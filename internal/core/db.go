package core

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"maps"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
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
	verifier *store.VerifyingStore // invalidation hooks and VerifyStats
	ncache   *nodecache.Cache      // the read path's decoded-node cache (core's own or caller-attached); nil = none

	met     *dbObs // observability wiring (metrics, slow-op logs)
	cfg     chunker.Config
	idxKind index.Kind // structure new composite values are indexed with
	heads   BranchTable
	feed    *Feed
	noCopy  noCopy

	readOnly atomic.Bool

	// writeMu fences garbage collection against in-flight engine writes:
	// every mutating method runs in write, which holds the read side from
	// its first read to its head Apply, and gc holds the write side across
	// mark and sweep — so a version can never be swept between its chunks
	// landing and its head advancing.  Readers are unaffected.
	writeMu sync.RWMutex
}

type noCopy struct{}

func (*noCopy) Lock()   {}
func (*noCopy) Unlock() {}

// Options configure a DB.
type Options struct {
	// Store is the chunk store; defaults to a fresh MemStore.
	Store store.Store
	// Branches is the branch table; defaults to a fresh MemBranchTable.
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
	// invalidation; GC purges the ids it sweeps.  The cache is layered
	// *above* the verifying store, so only nodes that passed tamper
	// verification, or that this engine encoded itself, are ever cached;
	// deep verification reads bytes and never consults it.
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
		met:     newDBObs(opts.Metrics, opts.Logger, opts.SlowOp),
		cfg:     opts.Chunking,
		idxKind: opts.Index,
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
func (db *DB) NewMapValue(entries []index.Entry) (value.Value, error) {
	return value.NewMapWith(db.st, db.cfg, db.idxKind, entries)
}

// NewSetValue builds a set value over the engine's configured index
// structure.
func (db *DB) NewSetValue(elems [][]byte) (value.Value, error) {
	return value.NewSetWith(db.st, db.cfg, db.idxKind, elems)
}

// IndexOf loads the versioned index backing a map- or set-valued version,
// whatever structure it was written with.
func (db *DB) IndexOf(v Version) (index.VersionedIndex, error) {
	return v.Value.Index(db.st, db.cfg, v.Index)
}

// kindOf resolves which index structure backs a value: known directly for
// values built through the constructors or read through the engine, the
// engine default for bare descriptors, and the POS zero value for kinds that
// have no key index at all (primitives, blobs, lists) so their FNode
// encodings stay byte-identical with pre-index-layer versions.
func (db *DB) kindOf(v value.Value) index.Kind {
	if v.Kind() != value.KindMap && v.Kind() != value.KindSet {
		return index.KindPOS
	}
	if k, ok := v.IndexKind(); ok {
		return k
	}
	return db.idxKind
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

// SetReadOnly turns the engine-level write gate on or off.  Replicas set it
// so every mutation path — including layers that reach the engine directly,
// like dataset handles — is rejected, not just the public API wrappers.
// The replication follower is unaffected: it writes through the store and
// branch table, not through engine operations.
func (db *DB) SetReadOnly(ro bool) { db.readOnly.Store(ro) }

// ReadOnly reports whether the engine-level write gate is on.  Edges that
// answer a write before reaching the engine (REST's 403) read it here.
func (db *DB) ReadOnly() bool { return db.readOnly.Load() }

// writeGuard rejects engine mutations when read-only.
func (db *DB) writeGuard() error {
	if db.readOnly.Load() {
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
	// Index is the structure backing the version's composite value (from
	// the FNode's self-describing metadata); index.KindPOS for primitives.
	Index index.Kind
}

// Put writes a new version of key on branch, deriving from the current
// branch head, and advances the head.  Retrying on concurrent head moves is
// NOT performed: if another writer advances the head between the read and
// the compare-and-set, Put returns ErrStaleHead (wrapped, so errors.Is
// matches) without writing the head, and the caller decides whether to
// reload and retry, branch, or give up.  The version chunk itself is already
// stored at that point; it is unreachable garbage unless the caller reuses
// it.
func (db *DB) Put(key, branch string, v value.Value, meta map[string]string) (Version, error) {
	return db.PutCtx(context.Background(), key, branch, v, meta)
}

// PutCtx is Put carrying a request context: the trace ID minted at the
// serving edge rides ctx into the slow-op log, so a stalled commit can be
// attributed to the request that issued it.  ctx does not cancel the
// write — a version is either fully committed or not published.
func (db *DB) PutCtx(ctx context.Context, key, branch string, v value.Value, meta map[string]string) (Version, error) {
	return db.BuildAndPutCtx(ctx, key, branch, meta, func() (value.Value, error) { return v, nil })
}

// write is the one frame every mutating engine method runs in: the write
// guard, op's metrics (nil: unmetered; logKV, called after build, names the
// slow-op record's fields), and the GC fence's read side across build and
// publish, so a collection cannot sweep a version between its chunks landing
// and its head moving.  build reads heads, stores a value's chunks and
// returns the FNodes versioning it and the head moves publishing them, the
// first len(fnodes) of which set their heads to those FNodes.  The publish
// is one fnode.SaveAll and one BranchTable.Apply, all or nothing, failing
// with refused when an expectation no longer holds.  An empty result stores
// and moves nothing.
func (db *DB) write(ctx context.Context, op *obs.Op, refused error, logKV func() []any,
	build func() ([]*fnode.FNode, []HeadOp, error)) (uids []hash.Hash, err error) {
	if err := db.writeGuard(); err != nil {
		return nil, err
	}
	var start time.Time
	var buildDur time.Duration
	if op != nil {
		start = op.Begin()
		defer func() { op.End(ctx, start, err, append(logKV(), "build", buildDur)...) }()
	}
	db.writeMu.RLock()
	defer db.writeMu.RUnlock()
	fnodes, heads, err := build()
	if !start.IsZero() {
		buildDur = time.Since(start)
	}
	if err != nil {
		return nil, err
	}
	if len(fnodes) > 0 {
		if uids, err = fnode.SaveAll(db.st, fnodes); err != nil {
			return nil, err
		}
		for i, uid := range uids {
			heads[i].Set = uid
		}
	}
	if len(heads) == 0 {
		return uids, nil
	}
	if ok, err := db.heads.Apply(heads); err != nil || ok {
		return uids, err
	}
	if len(heads) == 1 {
		return nil, fmt.Errorf("%w: %s@%s", refused, heads[0].Key, heads[0].Branch)
	}
	return nil, fmt.Errorf("%w: a head of the %d-op batch moved; nothing committed", refused, len(heads))
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
	f := fnode.New([]byte(key), v, bases, seq, meta)
	f.Index = db.kindOf(v)
	return f, nil
}

// saved is the Version a write returns for FNode f, stored as uid, which it
// built from v and meta.  f is frozen once saved, so the Version gets its
// own Bases.
func saved(key string, uid hash.Hash, f *fnode.FNode, v value.Value, meta map[string]string) Version {
	return Version{UID: uid, Seq: f.Seq, Bases: slices.Clone(f.Bases), Value: v, Meta: meta, Key: key, Index: f.Index}
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

// BuildAndPutCtx is BuildAndPut carrying a request context.  The slow-op
// record splits the build phase (chunking, store writes and deriving the
// version object) from the whole operation, so a slow commit shows whether
// the time went to building the value or to publishing it.
func (db *DB) BuildAndPutCtx(ctx context.Context, key, branch string, meta map[string]string, build func() (value.Value, error)) (Version, error) {
	return first(db.commit(ctx, db.met.opPut, func() ([]WriteOp, error) {
		v, err := build()
		return []WriteOp{{Key: key, Branch: branch, Value: v, Meta: meta}}, err
	}))
}

// BuildAndWriteBatchCtx is BuildAndPutCtx for batched writes: build
// assembles the ops (storing their values' chunks) inside the fence.
func (db *DB) BuildAndWriteBatchCtx(ctx context.Context, build func() ([]WriteOp, error)) ([]Version, error) {
	return db.commit(ctx, db.met.opWriteBatch, build)
}

// commit is the write of Put, the edits and WriteBatch: each op build
// returns is stored as the successor of its parent — the version an edit
// derived it from, an earlier op on the same key@branch, else the branch's
// head — and published with a head CAS against it.  A one-op commit is
// logged under its key and branch, a batch by its size.
func (db *DB) commit(ctx context.Context, op *obs.Op, build func() ([]WriteOp, error)) ([]Version, error) {
	var ops []WriteOp
	var fnodes []*fnode.FNode
	logKV := func() []any {
		if len(ops) == 1 {
			return []any{"key", ops[0].Key, "branch", orDefault(ops[0].Branch)}
		}
		return []any{"ops", len(ops)}
	}
	uids, err := db.write(ctx, op, ErrStaleHead, logKV, func() ([]*fnode.FNode, []HeadOp, error) {
		var err error
		if ops, err = build(); err != nil {
			return nil, nil, err
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
				if parent, _, err = db.heads.Head(w.Key, branch); err != nil {
					return nil, nil, fmt.Errorf("op %d (%s@%s): %w", i, w.Key, branch, err)
				}
			}
			if fnodes[i], err = db.successor(w.Key, parent, p, w.Value, w.Meta); err != nil {
				return nil, nil, err
			}
			last[ref] = i
			heads[i] = HeadOp{Key: w.Key, Branch: branch, Expect: parent}
		}
		return fnodes, heads, nil
	})
	if err != nil {
		return nil, err
	}
	out := make([]Version, len(ops))
	for i, w := range ops {
		out[i] = saved(w.Key, uids[i], fnodes[i], w.Value, w.Meta)
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

// GetCtx is Get carrying a request context (see PutCtx).
func (db *DB) GetCtx(ctx context.Context, key, branch string) (_ Version, err error) {
	start := db.met.opGet.Begin()
	defer func() { db.met.opGet.End(ctx, start, err, "key", key, "branch", branch) }()
	head, err := db.Head(key, branch)
	if err != nil {
		return Version{}, err
	}
	return db.GetVersion(key, head)
}

// GetVersion returns a specific version of key by uid.  The FNode chunk is
// verified against the uid, so a forged version cannot be returned.
func (db *DB) GetVersion(key string, uid hash.Hash) (Version, error) {
	f, err := fnode.Load(db.st, uid)
	if err != nil {
		return Version{}, err
	}
	return versionOf(key, uid, f)
}

// versionOf builds the Version of key that FNode f, loaded and verified
// under uid, describes — rejecting an FNode of another key.  f may be the
// decoded-node cache's shared copy, so the Version gets its own Bases and
// Meta: a caller mutating them cannot change what the next read returns.
func versionOf(key string, uid hash.Hash, f *fnode.FNode) (Version, error) {
	if string(f.Key) != key {
		return Version{}, fmt.Errorf("core: version %s belongs to key %q, not %q", uid.Short(), f.Key, key)
	}
	v, err := f.DecodedValue()
	if err != nil {
		return Version{}, err
	}
	// Stamp the FNode's recorded structure onto the decoded descriptor, so
	// its loads — empty values included — keep the branch's structure
	// instead of falling back to the engine default.
	v = v.WithIndexKind(f.Index)
	return Version{UID: uid, Seq: f.Seq, Bases: slices.Clone(f.Bases), Value: v, Meta: maps.Clone(f.Meta), Key: key, Index: f.Index}, nil
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
	uid, ok, err := db.heads.Head(key, branch)
	if err != nil {
		return hash.Hash{}, err
	}
	if !ok {
		return hash.Hash{}, fmt.Errorf("%w: %s@%s", ErrBranchNotFound, key, branch)
	}
	return uid, nil
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
	_, err := db.write(context.Background(), nil, ErrBranchExists, nil, func() ([]*fnode.FNode, []HeadOp, error) {
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
	_, err := db.write(context.Background(), nil, ErrBranchExists, nil, func() ([]*fnode.FNode, []HeadOp, error) {
		_, err := db.GetVersion(key, uid)
		return nil, []HeadOp{{Key: key, Branch: newBranch, Set: uid}}, err
	})
	return err
}

// DeleteBranch removes a branch head (chunks remain; they may be shared).
// It fails with ErrBranchNotFound, or ErrStaleHead if a commit moves it.
func (db *DB) DeleteBranch(key, branch string) error {
	_, err := db.write(context.Background(), nil, ErrStaleHead, nil, func() ([]*fnode.FNode, []HeadOp, error) {
		uid, err := db.head(key, branch)
		return nil, []HeadOp{{Key: key, Branch: branch, Expect: uid}}, err
	})
	return err
}

// RenameBranch renames a branch: one Apply deletes from and creates to at
// its head.  It fails with ErrBranchNotFound when from does not exist,
// ErrBranchExists when to does, and ErrStaleHead if a commit moves either.
func (db *DB) RenameBranch(key, from, to string) error {
	_, err := db.write(context.Background(), nil, ErrStaleHead, nil, func() ([]*fnode.FNode, []HeadOp, error) {
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
	uids, nodes, err := fnode.HistoryNodes(db.st, head, limit)
	if err != nil {
		return nil, err
	}
	out := make([]Version, len(nodes))
	for i, f := range nodes {
		if out[i], err = versionOf(key, uids[i], f); err != nil {
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
	return db.DiffValues(vf.Value, vt.Value)
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

// DiffValues diffs two map/set values directly.  Each side loads under the
// structure its value carries (value.Index; a bare decoded descriptor loads
// as the engine default), so same-structure diffs prune shared subtrees —
// whatever the structure — and cross-structure diffs fall back to the
// generic iterator merge.
func (db *DB) DiffValues(a, b value.Value) ([]index.Delta, index.DiffStats, error) {
	if a.Kind() != b.Kind() {
		return nil, index.DiffStats{}, fmt.Errorf("core: cannot diff %s against %s", a.Kind(), b.Kind())
	}
	switch a.Kind() {
	case value.KindMap, value.KindSet:
	default:
		return nil, index.DiffStats{}, fmt.Errorf("core: diff unsupported for %s values", a.Kind())
	}
	ia, err := a.Index(db.st, db.cfg, db.idxKind)
	if err != nil {
		return nil, index.DiffStats{}, err
	}
	ib, err := b.Index(db.st, db.cfg, ia.Kind())
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

// MergeCtx is Merge carrying a request context (see PutCtx).  The slow-op
// record carries ancestry_nodes, the FNodes the base walk loaded.
func (db *DB) MergeCtx(ctx context.Context, key, dst, src string, resolve index.Resolver, meta map[string]string) (MergeResult, error) {
	// Default the names up front: Head defaults them on the read side, and
	// the CAS must target the branch whose head it read.
	dst, src = orDefault(dst), orDefault(src)
	var anc fnode.Ancestry
	var res MergeResult
	var merged *fnode.FNode
	logKV := func() []any { return []any{"key", key, "dst", dst, "src", src, "ancestry_nodes", anc.Loaded} }
	uids, err := db.write(ctx, db.met.opMerge, ErrStaleHead, logKV, func() ([]*fnode.FNode, []HeadOp, error) {
		dstHead, err := db.head(key, dst)
		if err != nil {
			return nil, nil, err
		}
		srcHead, err := db.head(key, src)
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
		dv, err := versionOf(key, dstHead, anc.A)
		if err != nil {
			return nil, nil, err
		}
		sv, err := versionOf(key, srcHead, anc.B)
		if err != nil {
			return nil, nil, err
		}
		move := []HeadOp{{Key: key, Branch: dst, Expect: dstHead, Set: srcHead}}
		switch anc.Base {
		case srcHead: // already merged: dst contains src (or is src)
			res = MergeResult{Version: dv, FastForward: true}
			return nil, nil, nil
		case dstHead: // src descends from dst
			res = MergeResult{Version: sv, FastForward: true}
			return nil, move, nil
		}
		var base value.Value // unrelated histories merge against an empty base
		if !anc.Base.IsZero() {
			bv, err := versionOf(key, anc.Base, anc.BaseNode)
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
		merged.Index = db.kindOf(v)
		res = MergeResult{Version: Version{Value: v}, Stats: stats}
		return []*fnode.FNode{merged}, move, nil
	})
	if err != nil {
		return MergeResult{}, err
	}
	if merged != nil {
		res.Version = saved(key, uids[0], merged, res.Version.Value, meta)
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
	at, err := a.Index(db.st, db.cfg, db.idxKind)
	if err != nil {
		return value.Value{}, index.MergeStats{}, err
	}
	loadIdx := func(v value.Value) (index.VersionedIndex, error) {
		if v.Kind() == value.KindInvalid || v.Root().IsZero() && !v.Kind().Composite() {
			return value.LoadIndex(db.st, db.cfg, hash.Hash{}, at.Kind())
		}
		return v.Index(db.st, db.cfg, at.Kind())
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
