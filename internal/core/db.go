package core

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"maps"
	"slices"
	"sort"
	"time"

	"forkbase/internal/chunker"
	"forkbase/internal/fnode"
	"forkbase/internal/hash"
	"forkbase/internal/index"
	"forkbase/internal/nodecache"
	"forkbase/internal/obs"
	"forkbase/internal/store"
	"forkbase/internal/value"
)

// DefaultBranch is the branch Put targets when none is named, mirroring the
// "master" branch of the paper's demo UI.
const DefaultBranch = "master"

// DB is a ForkBase storage engine instance.
//
// A DB combines an (untrusted) chunk store with a (trusted) branch table.
// All chunk reads go through a verifying wrapper, so any tampering by the
// storage provider surfaces as chunk.ErrCorrupt.
type DB struct {
	// The store stack, assembled once by assembleStore; DB addresses these
	// layers directly and never looks them up again.
	st       store.Store           // top handle: verifier plus attachments
	raw      store.Store           // instrumented backend: Stats, capability discovery (store.As)
	verifier *store.VerifyingStore // fresh reads (verify, heal) and VerifyStats
	ncache   *nodecache.Cache      // the read path's decoded-node cache (core's own or caller-attached); nil = none

	met     *dbObs // observability wiring (metrics, slow-op logs)
	cfg     chunker.Config
	idxKind index.Kind // structure new composite values are indexed with
	// heads holds the GC fence and the collection clock: every head moves
	// through its Apply, and the epoch a writer or reader takes before it
	// stores or reads its first chunk is heads.Epoch().  A value built or
	// loaded is stamped with it (value.WithEpoch), and a commit hands it to
	// Apply, which refuses it with ErrCollected once a sweep followed it.
	heads  *FeedTable
	feed   *Feed
	stager store.Stager // the store's, when it holds a write's chunks for its publish; nil = none
	noCopy noCopy

	readOnly bool // fixed at Open: replicas move only through replication
}

type noCopy struct{}

func (*noCopy) Lock()   {}
func (*noCopy) Unlock() {}

// Options configure a DB.
type Options struct {
	// Store is the chunk store; defaults to a fresh MemStore.
	Store store.Store
	// Branches is the branch table; defaults to an empty table without a journal
	// (NewMemBranchTable).
	Branches BranchTable
	// Chunking overrides the chunker configuration (zero Q = DefaultConfig).
	// Open panics if the config, with its other zero fields defaulted, fails
	// chunker.Config.Validate.
	Chunking chunker.Config
	// Index selects the structure backing new composite (map/set) values:
	// index.KindPOS (default) or index.KindMPT; Open panics on any other
	// kind (index.Kind.Known).  Reading is always self-describing — every
	// FNode records the kind of the value it versions and loads go by that
	// record (value.LoadIndex) — so a DB can open data written under either
	// setting.
	Index index.Kind
	// NodeCacheBytes enables a decoded-node cache with the given byte
	// budget on the read path (0 = disabled).  POS and MPT index nodes and
	// the FNodes behind version reads share it, so a version this engine
	// saved or has read once is read again without touching the store.
	// Because chunks are immutable and content-addressed the cache needs no
	// invalidation; GC purges the ids it sweeps or moves, and a scrub that
	// quarantines purges it whole.  The cache is layered *above* the
	// verifying store, so only nodes that passed tamper verification, or
	// that this engine encoded itself, are ever cached; deep verification
	// reads bytes and never consults it.
	NodeCacheBytes int64
	// Metrics selects the registry this engine reports into: engine
	// operation counts/latencies, store-level per-backend instrumentation,
	// cache and dedup gauges, GC/heal/scrub accounting.  nil selects
	// obs.Default(); obs.Discard disables instrumentation entirely (the
	// store is not even wrapped — the bare hot path stays bare).
	Metrics *obs.Registry
	// Logger receives the engine's structured log records (today:
	// threshold-gated slow-op reports).  nil selects slog.Default().
	Logger *slog.Logger
	// SlowOp, when positive, logs any engine or store operation that takes
	// at least this long, with the operation, duration and the trace ID
	// carried by the request context — the handle for following one slow
	// PutBatch across layers.  0 disables slow-op logging.
	SlowOp time.Duration
	// ReadOnly makes every mutating engine operation, GC included, return
	// ErrReadOnly for the life of the DB.  A replica sets it: replication
	// writes through the store and branch table, not engine operations.
	ReadOnly bool
}

// Open assembles a DB from options.
func Open(opts Options) *DB {
	if opts.Store == nil {
		opts.Store = store.NewMemStore()
	}
	if opts.Branches == nil {
		opts.Branches = NewMemBranchTable()
	}
	if opts.Chunking.Q == 0 {
		opts.Chunking = chunker.DefaultConfig()
	}
	if err := opts.Chunking.Normalized().Validate(); err != nil {
		panic(err)
	}
	if !opts.Index.Known() {
		panic(fmt.Sprintf("core: unknown index kind %s", opts.Index))
	}
	if opts.Metrics == nil {
		opts.Metrics = obs.Default()
	}
	if opts.Logger == nil {
		opts.Logger = slog.Default()
	}
	db := &DB{
		met:      newDBObs(opts.Metrics, opts.Logger, opts.SlowOp),
		cfg:      opts.Chunking,
		idxKind:  opts.Index,
		readOnly: opts.ReadOnly,
	}
	db.st, db.raw, db.verifier, db.ncache = assembleStore(opts)
	// Every head movement is journaled into the change feed (the replication
	// source).  A caller that already wrapped its table keeps its feed;
	// otherwise the DB owns a fresh one of the default capacity.  A node's
	// TCP server serves the wrapped table (DB.BranchTable) and this feed, so
	// head moves over the wire land in the same sequence.
	ft, ok := opts.Branches.(*FeedTable)
	if !ok {
		ft = WithFeed(opts.Branches, NewFeed(0))
	}
	db.heads = ft
	db.feed = ft.Feed()
	db.stager, _ = store.As[store.Stager](db.st)
	db.registerGauges()
	return db
}

// assembleStore builds the engine's store stack in its one fixed order:
//
//	backend → metrics → verification → node cache
//
// Every chunk operation crossing into the backend is counted and timed per
// backend kind (store.Instrument is the identity for obs.Discard, so a
// metrics-disabled engine keeps the unwrapped hot path); every read is
// verified above that; and the cache attachment sits on top, so only nodes
// that passed verification are ever cached.  It returns the top handle
// together with the layers DB addresses directly.  A stack the caller
// injected (a fault injector over a MemStore, a store with its own node
// cache) is the backend here; its capabilities stay reachable through
// store.As.
func assembleStore(opts Options) (top, raw store.Store, verifier *store.VerifyingStore, cache *nodecache.Cache) {
	raw = store.Instrument(opts.Store, opts.Metrics, obs.SlowLog{Logger: opts.Logger, Threshold: opts.SlowOp})
	verifier = store.NewVerifyingStore(raw)
	if opts.NodeCacheBytes > 0 {
		cache = nodecache.New(opts.NodeCacheBytes)
	}
	top = store.WithNodeCache(verifier, cache) // the identity for a nil cache
	if cache == nil {
		cache = store.NodeCacheOf(raw) // one the caller attached, if any
	}
	return top, raw, verifier, cache
}

// Close releases nothing and returns nil: the engine starts no goroutine of
// its own, and the store and branch table are owned by the caller.  It is
// kept so callers can treat a DB like any other closable handle.
func (db *DB) Close() error { return nil }

// Store returns the verifying chunk store (reads are tamper-checked).
func (db *DB) Store() store.Store { return db.st }

// RawStore returns the backend under the engine's store meter: the chunk
// store the engine was opened over, wrapped only by store.Instrument, so
// chunk operations through it are counted in the forkbase_store_* families
// but not verified and not cached.  It serves Stats, capability discovery
// (store.As) and peers that rehash what they fetch (the TCP server).
func (db *DB) RawStore() store.Store { return db.raw }

// Chunking returns the chunker configuration.
func (db *DB) Chunking() chunker.Config { return db.cfg }

// IndexKind returns the structure backing new composite values.
func (db *DB) IndexKind() index.Kind { return db.idxKind }

// NewMapValue builds a map value over the engine's configured index
// structure.  All engine-adjacent layers (public API, REST, datasets) build
// composite values through these helpers so index selection plumbs through
// uniformly.
//
// The value is stamped with the collection epoch it was built under, so a
// Put of it after a GC that may have swept its chunks fails with
// ErrCollected instead of publishing a head that names missing chunks.
func (db *DB) NewMapValue(entries []index.Entry) (value.Value, error) {
	e := db.heads.Epoch()
	v, err := value.NewMapWith(db.st, db.cfg, db.idxKind, entries)
	return value.WithEpoch(v, e), err
}

// NewSetValue builds a set value over the engine's configured index
// structure, stamped as NewMapValue's.
func (db *DB) NewSetValue(elems [][]byte) (value.Value, error) {
	e := db.heads.Epoch()
	v, err := value.NewSetWith(db.st, db.cfg, db.idxKind, elems)
	return value.WithEpoch(v, e), err
}

// IndexOf loads the versioned index backing a map- or set-valued version,
// whatever structure it was written with.
func (db *DB) IndexOf(v Version) (index.VersionedIndex, error) {
	return v.Value.Index(db.st, db.cfg)
}

// NodeCache returns the decoded-node cache the read path uses (core's own or
// one the caller attached to the injected store), or nil when there is none.
func (db *DB) NodeCache() *nodecache.Cache { return db.ncache }

// NodeCacheStats snapshots decoded-node cache effectiveness (zeros when the
// cache is disabled — nodecache methods are nil-safe).
func (db *DB) NodeCacheStats() nodecache.Stats { return db.ncache.Stats() }

// Branches returns the branch table.
func (db *DB) BranchTable() BranchTable { return db.heads }

// Feed returns the change feed: the sequenced journal of head movements
// replication consumes.  It is always non-nil.
func (db *DB) Feed() *Feed { return db.feed }

// ErrReadOnly is returned by every mutating engine operation on a read-only
// engine (a replica: its state moves only through replication).
var ErrReadOnly = errors.New("core: engine is read-only (replica)")

// ReadOnly reports whether the engine was opened read-only
// (Options.ReadOnly).  Edges that answer a write before reaching the engine
// (REST's 403) read it here.
func (db *DB) ReadOnly() bool { return db.readOnly }

// writeGuard rejects engine mutations when read-only, whichever layer (a
// dataset handle, REST, the facade) reaches the engine.
func (db *DB) writeGuard() error {
	if db.readOnly {
		return ErrReadOnly
	}
	return nil
}

// Version describes one version of an object.
type Version struct {
	UID   hash.Hash
	Seq   uint64
	Bases []hash.Hash
	Value value.Value
	Meta  map[string]string
	Key   string
}

// Put writes a new version of key on branch, deriving from the current
// branch head, and advances the head.  Retrying on concurrent head moves is
// NOT performed: if another writer advances the head between the read and
// the compare-and-set, Put returns ErrStaleHead (wrapped, so errors.Is
// matches) without writing the head, and the caller decides whether to
// reload and retry, branch, or give up.  (A head a remote table only
// remembered is read again once before that: see write.)  The version chunk
// itself is already stored at that point; it is unreachable garbage unless
// the caller reuses it.
func (db *DB) Put(key, branch string, v value.Value, meta map[string]string) (Version, error) {
	return db.BuildAndPutCtx(context.Background(), key, branch, meta, func() (value.Value, error) { return v, nil })
}

// write is the one frame every mutating engine method runs in: the write
// guard, op's metrics (nil: unmetered; logKV, called after build, names the
// slow-op record's fields), and the GC fence's read side across build and
// publish, so a collection cannot sweep a version between its chunks landing
// and its head moving.  build gets the epoch taken under the fence and a
// head reader, reads heads, stores a value's chunks and returns the FNodes
// versioning it and the head moves publishing them, the first len(fnodes) of
// which set their heads to those FNodes.  Each op that sets a head carries
// that epoch, or its value's when build stamped an older one.  The publish
// is one fnode.SaveAll and one Apply through the fence already held, all or
// nothing, failing with refused when an expectation no longer holds.  An
// empty result stores and moves nothing.  On a store that stages a write's
// chunks (store.Stager) they travel with the Apply.
//
// The head reader answers as the branch table last saw the head
// (BranchTable.LastHead).  When an answer came from memory and the publish
// is refused, or the build or publish finds a chunk missing or collected,
// build runs once more against heads read now: one attempt against current
// heads before refused.
func (db *DB) write(ctx context.Context, op *obs.Op, refused error, logKV func() []any,
	build func(e uint64, heads *headReader) ([]*fnode.FNode, []HeadOp, error)) (uids []hash.Hash, err error) {
	if err := db.writeGuard(); err != nil {
		return nil, err
	}
	var start time.Time
	var buildDur time.Duration
	if op != nil {
		start = op.Begin()
		defer func() { op.End(ctx, start, err, append(logKV(), "build", buildDur)...) }()
	}
	if db.stager != nil {
		defer db.stager.Stage()()
	}
	db.heads.fence.RLock()
	defer db.heads.fence.RUnlock()
	e := db.heads.Epoch()
	attempt := func(r *headReader) ([]hash.Hash, []HeadOp, bool, error) {
		fnodes, heads, err := build(e, r)
		if !start.IsZero() {
			buildDur = time.Since(start)
		}
		if err != nil {
			return nil, nil, false, err
		}
		var uids []hash.Hash
		if len(fnodes) > 0 {
			if uids, err = fnode.SaveAll(db.st, fnodes); err != nil {
				return nil, nil, false, err
			}
			for i, uid := range uids {
				heads[i].Set = uid
			}
		}
		if len(heads) == 0 {
			return uids, nil, true, nil
		}
		for i := range heads { // a delete publishes no chunk: it goes unstamped
			if !heads[i].Set.IsZero() && (heads[i].Epoch == 0 || heads[i].Epoch > e) {
				heads[i].Epoch = e
			}
		}
		ok, err := db.heads.apply(heads)
		return uids, heads, ok, err
	}
	last := &headReader{t: db.heads, last: true}
	uids, heads, ok, err := attempt(last)
	if last.remembered && (err == nil && !ok || errors.Is(err, store.ErrNotFound) || errors.Is(err, ErrCollected)) {
		uids, heads, ok, err = attempt(&headReader{t: db.heads})
	}
	if err != nil || ok {
		return uids, err
	}
	if len(heads) == 1 {
		return nil, fmt.Errorf("%w: %s@%s", refused, heads[0].Key, heads[0].Branch)
	}
	return nil, fmt.Errorf("%w: a head of the %d-op batch moved; nothing committed", refused, len(heads))
}

// headReader reads heads for a write's build: as the branch table last saw
// them (BranchTable.LastHead) on a write's first attempt, from the table
// itself on its retry.
type headReader struct {
	t          BranchTable
	last       bool // read with LastHead
	remembered bool // an answer came from memory, so it may be stale
}

// head is key@branch's head; ok=false when the branch does not exist.
func (r *headReader) head(key, branch string) (uid hash.Hash, ok bool, err error) {
	if !r.last {
		return r.t.Head(key, branch)
	}
	uid, ok, mem, err := r.t.LastHead(key, branch)
	r.remembered = r.remembered || mem
	return uid, ok, err
}

// must is r's head of key@branch, failing with ErrBranchNotFound when the
// branch does not exist.
func (r *headReader) must(key, branch string) (hash.Hash, error) {
	uid, ok, err := r.head(key, branch)
	if err == nil && !ok {
		err = fmt.Errorf("%w: %s@%s", ErrBranchNotFound, key, branch)
	}
	return uid, err
}

// successor derives the FNode recording v as the version of key after
// parent (zero: a first version).  p is the parent's FNode when the caller
// holds it, one a batch derived and has not stored yet; nil loads it.
func (db *DB) successor(key string, parent hash.Hash, p *fnode.FNode, v value.Value, meta map[string]string) (*fnode.FNode, error) {
	var bases []hash.Hash
	seq := uint64(1)
	if !parent.IsZero() {
		if p == nil {
			var err error
			if p, err = fnode.Load(db.st, parent); err != nil {
				return nil, fmt.Errorf("core: loading parent %s of %s: %w", parent.Short(), key, err)
			}
		}
		bases, seq = []hash.Hash{parent}, p.Seq+1
	}
	return fnode.New([]byte(key), v, bases, seq, meta), nil
}

// saved is the Version a write returns for FNode f, stored as uid, which it
// built from v and meta.  f is frozen once saved, so the Version gets its
// own Bases.  Its value is stamped with e, an epoch the write took under
// the fence: published, its chunks were live then.
func saved(key string, uid hash.Hash, f *fnode.FNode, v value.Value, meta map[string]string, e uint64) Version {
	return Version{UID: uid, Seq: f.Seq, Bases: slices.Clone(f.Bases), Value: value.WithEpoch(v, e), Meta: meta, Key: key}
}

// WriteOp is one object write of a WriteBatch.
type WriteOp struct {
	Key    string
	Branch string // "" = DefaultBranch
	Value  value.Value
	Meta   map[string]string
	// parent is the version an edit derived Value from, which the op is
	// published against (zero: the head), so a writer that moved the head
	// since costs the edit ErrStaleHead instead of silently losing it.
	parent hash.Hash
}

// WriteBatch writes a new version of every op's object in one batched round:
// heads are read first, all FNodes are stored with a single fnode.SaveAll
// (one store lock acquisition and, on a FileStore, one group-commit write),
// and then every branch head moves in one BranchTable.Apply.  Later ops
// targeting the same key@branch derive from earlier ops in the batch, so a
// batch behaves like the equivalent Put sequence.  The batch commits all or
// nothing, under Put's no-retry contract: if a head it derives from moved
// concurrently, no head moves and WriteBatch returns ErrStaleHead.
func (db *DB) WriteBatch(ops []WriteOp) ([]Version, error) {
	return db.BuildAndWriteBatchCtx(context.Background(), func() ([]WriteOp, error) { return ops, nil })
}

// BuildAndPut runs build — which typically stores chunks, e.g. the value
// constructors — and commits the resulting value, all under the GC write
// fence: a concurrent collection can never sweep the freshly built chunks
// before the head CAS publishes them.  build must not call other fenced DB
// write methods (the fence is not reentrant); plain reads are fine.
func (db *DB) BuildAndPut(key, branch string, meta map[string]string, build func() (value.Value, error)) (Version, error) {
	return db.BuildAndPutCtx(context.Background(), key, branch, meta, build)
}

// BuildAndPutCtx is BuildAndPut carrying a request context: the trace ID
// minted at the serving edge rides ctx into the slow-op log, so a stalled
// commit can be attributed to the request that issued it.  ctx does not
// cancel the write — a version is either fully committed or not published.
// The slow-op record splits the build phase (chunking, store writes and
// deriving the version object) from the whole operation, so a slow commit
// shows whether the time went to building the value or to publishing it.
func (db *DB) BuildAndPutCtx(ctx context.Context, key, branch string, meta map[string]string, build func() (value.Value, error)) (Version, error) {
	return first(db.commit(ctx, db.met.opPut, func(*headReader) ([]WriteOp, error) {
		v, err := build()
		return []WriteOp{{Key: key, Branch: branch, Value: v, Meta: meta}}, err
	}))
}

// BuildAndWriteBatchCtx is BuildAndPutCtx for batched writes: build
// assembles the ops (storing their values' chunks) inside the fence.
func (db *DB) BuildAndWriteBatchCtx(ctx context.Context, build func() ([]WriteOp, error)) ([]Version, error) {
	return db.commit(ctx, db.met.opWriteBatch, func(*headReader) ([]WriteOp, error) { return build() })
}

// commit is the write of Put, the edits and WriteBatch: each op build
// returns is stored as the successor of its parent — the version an edit
// derived it from, an earlier op on the same key@branch, else the branch's
// head — and published with a head CAS against it.  When write runs the
// build again against current heads, build itself runs again only if an op
// was derived from a head (an edit's); the others keep their values and
// are re-derived from the heads alone.  A one-op commit is logged under its
// key and branch, a batch by its size.
func (db *DB) commit(ctx context.Context, op *obs.Op, build func(heads *headReader) ([]WriteOp, error)) ([]Version, error) {
	var ops []WriteOp
	var fnodes []*fnode.FNode
	var e uint64
	logKV := func() []any {
		if len(ops) == 1 {
			return []any{"key", ops[0].Key, "branch", orDefault(ops[0].Branch)}
		}
		return []any{"ops", len(ops)}
	}
	uids, err := db.write(ctx, op, ErrStaleHead, logKV, func(epoch uint64, r *headReader) ([]*fnode.FNode, []HeadOp, error) {
		var err error
		e = epoch
		if ops == nil || slices.ContainsFunc(ops, func(w WriteOp) bool { return !w.parent.IsZero() }) {
			if ops, err = build(r); err != nil {
				return nil, nil, err
			}
		}
		heads := make([]HeadOp, len(ops))
		fnodes = make([]*fnode.FNode, len(ops))
		last := make(map[string]int, len(ops)) // key@branch → its latest op
		for i, w := range ops {
			branch := orDefault(w.Branch)
			ref := w.Key + "\x00" + branch
			parent, p := w.parent, (*fnode.FNode)(nil)
			if prev, ok := last[ref]; ok {
				p = fnodes[prev]
				parent = p.UID()
			} else if parent.IsZero() {
				if parent, _, err = r.head(w.Key, branch); err != nil {
					return nil, nil, fmt.Errorf("op %d (%s@%s): %w", i, w.Key, branch, err)
				}
			}
			if fnodes[i], err = db.successor(w.Key, parent, p, w.Value, w.Meta); err != nil {
				return nil, nil, err
			}
			last[ref] = i
			heads[i] = HeadOp{Key: w.Key, Branch: branch, Expect: parent, Epoch: value.EpochOf(w.Value)}
		}
		return fnodes, heads, nil
	})
	if err != nil {
		return nil, err
	}
	out := make([]Version, len(ops))
	for i, w := range ops {
		out[i] = saved(w.Key, uids[i], fnodes[i], w.Value, w.Meta, e)
	}
	return out, nil
}

// first is the Version of a one-op commit.
func first(vers []Version, err error) (Version, error) {
	if err != nil {
		return Version{}, err
	}
	return vers[0], nil
}

// Get returns the current value of key on branch.
func (db *DB) Get(key, branch string) (Version, error) {
	return db.GetCtx(context.Background(), key, branch)
}

// GetCtx is Get carrying a request context (see BuildAndPutCtx).
func (db *DB) GetCtx(ctx context.Context, key, branch string) (_ Version, err error) {
	start := db.met.opGet.Begin()
	defer func() {
		if db.met.opGet.Logs(start) { // boxing the fields costs a hit its only allocations
			db.met.opGet.End(ctx, start, err, "key", key, "branch", branch)
			return
		}
		db.met.opGet.End(ctx, start, err)
	}()
	head, err := db.Head(key, branch)
	if err != nil {
		return Version{}, err
	}
	return db.GetVersion(key, head)
}

// GetVersion returns a specific version of key by uid.  The FNode chunk is
// verified against the uid, so a forged version cannot be returned.
func (db *DB) GetVersion(key string, uid hash.Hash) (Version, error) {
	e := db.heads.Epoch()
	f, err := fnode.Load(db.st, uid)
	if err != nil {
		return Version{}, err
	}
	return versionOf(key, uid, f, e)
}

// versionOf builds the Version of key that FNode f, loaded and verified
// under uid after epoch e was taken, describes — rejecting an FNode of
// another key.  f may be the decoded-node cache's shared copy, so the
// Version gets its own Bases and Meta, and its value, not f's, carries the
// epoch: a caller mutating them cannot change what the next read returns.
func versionOf(key string, uid hash.Hash, f *fnode.FNode, e uint64) (Version, error) {
	if string(f.Key) != key {
		return Version{}, fmt.Errorf("core: version %s belongs to key %q, not %q", uid.Short(), f.Key, key)
	}
	return Version{UID: uid, Seq: f.Seq, Bases: slices.Clone(f.Bases), Value: value.WithEpoch(f.Value, e), Meta: maps.Clone(f.Meta), Key: key}, nil
}

// Head returns the head uid of key@branch.
func (db *DB) Head(key, branch string) (hash.Hash, error) {
	return db.head(key, orDefault(branch))
}

// orDefault is the branch a name targets: "" means DefaultBranch.
func orDefault(branch string) string {
	if branch == "" {
		return DefaultBranch
	}
	return branch
}

// head is Head of the branch named exactly branch.
func (db *DB) head(key, branch string) (hash.Hash, error) {
	return (&headReader{t: db.heads}).must(key, branch)
}

// Latest returns the branch and version with the highest logical sequence
// number across all branches of key (ties broken by branch name for
// determinism) — the engine-level Latest operation of Fig 1.
func (db *DB) Latest(key string) (string, Version, error) {
	branches, err := db.heads.Branches(key)
	if err != nil {
		return "", Version{}, err
	}
	var bestName string
	var best Version
	for b, uid := range branches {
		v, err := db.GetVersion(key, uid)
		if err != nil {
			return "", Version{}, err
		}
		if bestName == "" || v.Seq > best.Seq || v.Seq == best.Seq && b < bestName {
			bestName, best = b, v
		}
	}
	return bestName, best, nil
}

// Branch forks a new branch of key from an existing branch's head — an O(1)
// metadata operation: no data is copied, the new branch simply shares every
// chunk with its origin.
func (db *DB) Branch(key, newBranch, fromBranch string) error {
	_, err := db.write(context.Background(), nil, ErrBranchExists, nil, func(uint64, *headReader) ([]*fnode.FNode, []HeadOp, error) {
		head, err := db.Head(key, fromBranch)
		return nil, []HeadOp{{Key: key, Branch: newBranch, Set: head}}, err
	})
	return err
}

// BranchFromVersion forks a new branch from an arbitrary historical version.
// The version is read and the branch published under the GC fence, so a
// version no head references (a deleted branch's) cannot be collected in
// between.
func (db *DB) BranchFromVersion(key, newBranch string, uid hash.Hash) error {
	_, err := db.write(context.Background(), nil, ErrBranchExists, nil, func(uint64, *headReader) ([]*fnode.FNode, []HeadOp, error) {
		_, err := db.GetVersion(key, uid)
		return nil, []HeadOp{{Key: key, Branch: newBranch, Set: uid}}, err
	})
	return err
}

// DeleteBranch removes a branch head (chunks remain; they may be shared).
// It fails with ErrBranchNotFound, or ErrStaleHead if a commit moves it.
func (db *DB) DeleteBranch(key, branch string) error {
	_, err := db.write(context.Background(), nil, ErrStaleHead, nil, func(uint64, *headReader) ([]*fnode.FNode, []HeadOp, error) {
		uid, err := db.head(key, branch)
		return nil, []HeadOp{{Key: key, Branch: branch, Expect: uid}}, err
	})
	return err
}

// RenameBranch renames a branch: one Apply deletes from and creates to at
// its head.  It fails with ErrBranchNotFound when from does not exist,
// ErrBranchExists when to does, and ErrStaleHead if a commit moves either.
func (db *DB) RenameBranch(key, from, to string) error {
	_, err := db.write(context.Background(), nil, ErrStaleHead, nil, func(uint64, *headReader) ([]*fnode.FNode, []HeadOp, error) {
		uid, err := db.head(key, from)
		if err != nil {
			return nil, nil, err
		}
		if _, exists, err := db.heads.Head(key, to); err != nil || exists {
			if err == nil {
				err = fmt.Errorf("%w: %s@%s", ErrBranchExists, key, to)
			}
			return nil, nil, err
		}
		return nil, []HeadOp{{Key: key, Branch: from, Expect: uid}, {Key: key, Branch: to, Set: uid}}, nil
	})
	return err
}

// ListBranches returns the branch names of key, sorted.
func (db *DB) ListBranches(key string) ([]string, error) {
	branches, err := db.heads.Branches(key)
	if err != nil {
		return nil, err
	}
	out := make([]string, 0, len(branches))
	for b := range branches {
		out = append(out, b)
	}
	sort.Strings(out)
	return out, nil
}

// ListKeys returns all object keys, sorted.
func (db *DB) ListKeys() ([]string, error) { return db.heads.Keys() }

// History returns up to limit versions of key@branch, newest first,
// following first parents.  The walk returns its loaded FNodes, so each
// version chunk is fetched and decoded exactly once (the walk itself needs
// them to follow parent links; re-loading via GetVersion would double the
// work).
func (db *DB) History(key, branch string, limit int) ([]Version, error) {
	head, err := db.Head(key, branch)
	if err != nil {
		return nil, err
	}
	e := db.heads.Epoch()
	uids, nodes, err := fnode.HistoryNodes(db.st, head, limit)
	if err != nil {
		return nil, err
	}
	out := make([]Version, len(nodes))
	for i, f := range nodes {
		if out[i], err = versionOf(key, uids[i], f, e); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// Diff computes key-level deltas between two versions of a map- or
// set-valued object (the differential query of paper §III-B).
func (db *DB) Diff(key string, from, to hash.Hash) ([]index.Delta, index.DiffStats, error) {
	vf, err := db.GetVersion(key, from)
	if err != nil {
		return nil, index.DiffStats{}, err
	}
	vt, err := db.GetVersion(key, to)
	if err != nil {
		return nil, index.DiffStats{}, err
	}
	return db.diffValues(vf.Value, vt.Value)
}

// DiffBranches diffs the heads of two branches of key.
func (db *DB) DiffBranches(key, fromBranch, toBranch string) ([]index.Delta, index.DiffStats, error) {
	from, err := db.Head(key, fromBranch)
	if err != nil {
		return nil, index.DiffStats{}, err
	}
	to, err := db.Head(key, toBranch)
	if err != nil {
		return nil, index.DiffStats{}, err
	}
	return db.Diff(key, from, to)
}

// diffValues diffs two map/set values directly.  Each side loads under the
// structure its value carries (value.Index), so same-structure diffs prune
// shared subtrees — whatever the structure — and cross-structure diffs fall
// back to the generic iterator merge.
func (db *DB) diffValues(a, b value.Value) ([]index.Delta, index.DiffStats, error) {
	if a.Kind() != b.Kind() {
		return nil, index.DiffStats{}, fmt.Errorf("core: cannot diff %s against %s", a.Kind(), b.Kind())
	}
	switch a.Kind() {
	case value.KindMap, value.KindSet:
	default:
		return nil, index.DiffStats{}, fmt.Errorf("core: diff unsupported for %s values", a.Kind())
	}
	ia, err := a.Index(db.st, db.cfg)
	if err != nil {
		return nil, index.DiffStats{}, err
	}
	ib, err := b.Index(db.st, db.cfg)
	if err != nil {
		return nil, index.DiffStats{}, err
	}
	return ia.DiffWith(ib)
}

// MergeResult reports the outcome of a Merge.
type MergeResult struct {
	Version Version
	Stats   index.MergeStats
	// FastForward is true when no merge commit was needed.
	FastForward bool
}

// Merge three-way-merges branch src into branch dst of key (paper §II-B).
// The merge base is the LCA in the version DAG, found by one walk in
// descending Seq order (fnode.MergeBase) that stops at the first version
// both heads reach — the highest Seq, the smaller uid among equals — so a
// merge costs the distance to its base, not the history; a history breaking
// that order fails with ErrTampered and publishes nothing.  The merged
// version carries both heads as bases, making the merge itself part of the
// tamper-evident history.  resolve handles conflicting keys (nil = fail on
// conflict).
func (db *DB) Merge(key, dst, src string, resolve index.Resolver, meta map[string]string) (MergeResult, error) {
	return db.MergeCtx(context.Background(), key, dst, src, resolve, meta)
}

// MergeCtx is Merge carrying a request context (see BuildAndPutCtx).  The
// slow-op record carries ancestry_nodes, the FNodes the base walk loaded.
func (db *DB) MergeCtx(ctx context.Context, key, dst, src string, resolve index.Resolver, meta map[string]string) (MergeResult, error) {
	// Default the names up front: Head defaults them on the read side, and
	// the CAS must target the branch whose head it read.
	dst, src = orDefault(dst), orDefault(src)
	var anc fnode.Ancestry
	var res MergeResult
	var merged *fnode.FNode
	logKV := func() []any { return []any{"key", key, "dst", dst, "src", src, "ancestry_nodes", anc.Loaded} }
	var e uint64
	uids, err := db.write(ctx, db.met.opMerge, ErrStaleHead, logKV, func(epoch uint64, heads *headReader) ([]*fnode.FNode, []HeadOp, error) {
		e, merged = epoch, nil
		dstHead, err := heads.must(key, dst)
		if err != nil {
			return nil, nil, err
		}
		srcHead, err := heads.must(key, src)
		if err != nil {
			return nil, nil, err
		}
		anc, err = fnode.MergeBase(db.st, dstHead, srcHead)
		db.met.mergeAncestry.Add(int64(anc.Loaded))
		if err != nil {
			if errors.Is(err, fnode.ErrSeqOrder) {
				err = fmt.Errorf("%w: %w", ErrTampered, err)
			}
			return nil, nil, err
		}
		dv, err := versionOf(key, dstHead, anc.A, e)
		if err != nil {
			return nil, nil, err
		}
		sv, err := versionOf(key, srcHead, anc.B, e)
		if err != nil {
			return nil, nil, err
		}
		move := []HeadOp{{Key: key, Branch: dst, Expect: dstHead, Set: srcHead}}
		if heads.remembered {
			// A head answered from memory may be stale.  The op on src moves
			// nothing: it checks that the source merged is src's head, so a
			// source that moved since is refused and read again, not merged.
			move = append(move, HeadOp{Key: key, Branch: src, Expect: srcHead, Set: srcHead})
		}
		switch anc.Base {
		case srcHead: // already merged: dst contains src (or is src)
			res = MergeResult{Version: dv, FastForward: true}
			if !heads.remembered {
				return nil, nil, nil
			}
			move[0].Set = dstHead // check both heads instead
			return nil, move, nil
		case dstHead: // src descends from dst
			res = MergeResult{Version: sv, FastForward: true}
			return nil, move, nil
		}
		var base value.Value // unrelated histories merge against an empty base
		if !anc.Base.IsZero() {
			bv, err := versionOf(key, anc.Base, anc.BaseNode, e)
			if err != nil {
				return nil, nil, err
			}
			base = bv.Value
		}
		v, stats, err := db.mergeValues(base, dv.Value, sv.Value, resolve)
		if err != nil {
			return nil, nil, err
		}
		// The merged version derives from both heads.
		merged = fnode.New([]byte(key), v, []hash.Hash{dstHead, srcHead}, max(dv.Seq, sv.Seq)+1, meta)
		res = MergeResult{Version: Version{Value: v}, Stats: stats}
		return []*fnode.FNode{merged}, move, nil
	})
	if err != nil {
		return MergeResult{}, err
	}
	if merged != nil {
		res.Version = saved(key, uids[0], merged, res.Version.Value, meta, e)
	}
	return res, nil
}

func (db *DB) mergeValues(baseVal, a, b value.Value, resolve index.Resolver) (value.Value, index.MergeStats, error) {
	if a.Equal(b) {
		return a, index.MergeStats{}, nil
	}
	if a.Kind() != b.Kind() {
		return value.Value{}, index.MergeStats{}, fmt.Errorf("core: cannot merge %s into %s", b.Kind(), a.Kind())
	}
	switch a.Kind() {
	case value.KindMap, value.KindSet:
	default:
		return value.Value{}, index.MergeStats{}, fmt.Errorf("core: merge unsupported for diverged %s values", a.Kind())
	}

	// The destination side decides the structure; a missing base loads as
	// that structure's empty index so the base→a diff can prune.
	at, err := a.Index(db.st, db.cfg)
	if err != nil {
		return value.Value{}, index.MergeStats{}, err
	}
	loadIdx := func(v value.Value) (index.VersionedIndex, error) {
		if v.Kind() == value.KindInvalid || v.Root().IsZero() && !v.Kind().Composite() {
			return value.LoadIndex(db.st, db.cfg, hash.Hash{}, at.Kind())
		}
		return v.Index(db.st, db.cfg)
	}
	baseIdx, err := loadIdx(baseVal)
	if err != nil {
		return value.Value{}, index.MergeStats{}, err
	}
	bt, err := loadIdx(b)
	if err != nil {
		return value.Value{}, index.MergeStats{}, err
	}
	merged, stats, err := index.Merge3(baseIdx, at, bt, resolve)
	if err != nil {
		return value.Value{}, stats, err
	}
	return value.FromIndex(a.Kind(), merged), stats, nil
}

// Exists reports whether key has any branch.
func (db *DB) Exists(key string) bool {
	branches, err := db.heads.Branches(key)
	return err == nil && len(branches) > 0
}

// Stats returns the underlying store's dedup accounting.
func (db *DB) Stats() store.Stats { return db.raw.Stats() }
