// Package forkbase is a Go implementation of ForkBase — an immutable,
// tamper-evident storage substrate for branchable applications (Lin et al.,
// ICDE 2020; Wang et al., PVLDB 2018).
//
// ForkBase pushes Git-style versioning and branching down into the storage
// layer.  Every object is multi-versioned and content-addressed: a version
// identifier (uid) is the Merkle root of the value plus its derivation
// history, so it uniquely identifies the data AND is tamper-evident against
// a malicious storage provider.  Values are stored in Pattern-Oriented-Split
// Trees (POS-Trees): probabilistically balanced Merkle search trees whose
// node boundaries are content-defined, giving structural invariance —
// logically identical data is byte-identical on disk — and therefore
// page-level deduplication, O(D log N) diffs and sub-tree-reusing merges.
//
// Quick start:
//
//	db := forkbase.MustOpen(forkbase.InMemory())
//	db.PutString("greeting", "master", "hello", nil)
//	v, _ := db.Get("greeting", "master")
//	fmt.Println(v.Value.Display())
package forkbase

import (
	"errors"
	"io"
	"log/slog"
	"time"

	"forkbase/internal/access"
	"forkbase/internal/core"
	"forkbase/internal/dataset"
	"forkbase/internal/hash"
	"forkbase/internal/index"
	"forkbase/internal/nodecache"
	"forkbase/internal/obs"
	"forkbase/internal/pos"
	"forkbase/internal/repl"
	"forkbase/internal/rest"
	"forkbase/internal/server"
	"forkbase/internal/store"
	"forkbase/internal/value"
)

// Re-exported fundamental types.  Consumers program against these aliases;
// the internal packages remain free to evolve.
type (
	// Hash is a 256-bit content identifier (chunk id or version uid).
	Hash = hash.Hash
	// Value is a typed ForkBase value descriptor.
	Value = value.Value
	// Version describes one version of an object.
	Version = core.Version
	// Entry is a key/value pair of a map value.
	Entry = pos.Entry
	// Delta is one key-level difference between two map values.
	Delta = index.Delta
	// DiffStats instruments a differential query.
	DiffStats = index.DiffStats
	// MergeStats counts a three-way merge's work in keys: those each side
	// changed against the base, and the conflicts.
	MergeStats = index.MergeStats
	// Conflict is a key modified divergently by both merge sides.
	Conflict = index.Conflict
	// Resolver decides merged values for conflicting keys.
	Resolver = index.Resolver
	// MergeResult is the outcome of DB.Merge.
	MergeResult = core.MergeResult
	// GCStats reports a garbage-collection / compaction run.
	GCStats = core.GCStats
	// StoreStats is chunk-store dedup accounting.
	StoreStats = store.Stats
	// NodeCacheStats is decoded-node cache effectiveness accounting.
	NodeCacheStats = nodecache.Stats
	// ReplStats instruments a replica's sync progress (cursor, chunks and
	// bytes fetched, subtrees pruned, snapshots, errors).
	ReplStats = repl.Stats
	// VerifyReport summarises a tamper-evidence validation.
	VerifyReport = core.VerifyReport
	// ScrubStats reports one scrub pass over a file-backed store: chunks
	// verified, damage classified (corrupt / torn / unreadable), segments
	// quarantined, records rescued, and the ids lost pending repair.
	ScrubStats = store.ScrubStats
	// HealStats reports a Merkle self-healing pass (DB.Heal): chunks
	// checked, damage found, and repairs landed.
	HealStats = core.HealStats
	// ChunkSource serves verified chunks by id — the intact copy Heal
	// repairs from.  repl sources (a peer server, a local engine) satisfy
	// it.
	ChunkSource = core.ChunkSource
	// IndexKind selects the structure backing composite values (see
	// WithIndex): IndexPOS or IndexMPT.
	IndexKind = index.Kind
	// Index is the structure-agnostic handle to a map/set value's
	// versioned index (get/iter/diff/apply), whatever structure backs
	// it; obtained via DB.IndexOf.
	Index = index.VersionedIndex
	// IndexStats describes an index's physical shape (height, nodes, node
	// sizes), comparable across structures.
	IndexStats = index.Stats
	// Schema describes dataset columns.
	Schema = dataset.Schema
	// Row is one dataset record.
	Row = dataset.Row
	// Dataset is a handle to one dataset version.
	Dataset = dataset.Dataset
	// RowDelta is a row-level dataset difference.
	RowDelta = dataset.RowDelta
	// DiffResult is a dataset differential-query result.
	DiffResult = dataset.DiffResult
)

// Re-exported errors and constants.
var (
	// ErrBranchNotFound is returned for operations on missing branches.
	ErrBranchNotFound = core.ErrBranchNotFound
	// ErrBranchExists is returned when creating a branch that exists.
	ErrBranchExists = core.ErrBranchExists
	// ErrTampered is returned when validation detects corruption.
	ErrTampered = core.ErrTampered
	// ErrKeyNotFound is returned by map lookups for absent keys.
	ErrKeyNotFound = index.ErrKeyNotFound
	// ErrDenied is returned when access control rejects an operation.
	ErrDenied = access.ErrDenied
	// ErrReadOnlyReplica is returned by every mutating operation on a DB
	// opened as a read replica (WithFollow): replica state moves only
	// through replication; writes go to the primary.  It is the engine-level
	// gate (core.ErrReadOnly), so paths that reach the engine directly —
	// dataset handles, REST — reject writes identically.
	ErrReadOnlyReplica = core.ErrReadOnly
	// ErrCollected is returned by a Put of a value built or read before a
	// GC that completed since and may have swept its chunks.  Nothing is
	// published: rebuild or reload the value and retry.
	ErrCollected = core.ErrCollected
	// ErrTooLarge is returned by a write that would store a chunk of more
	// than 16 MiB, which no replica or client could fetch.  A string or one
	// map entry is one chunk: store large data as a blob, which is chunked.
	ErrTooLarge = store.ErrTooLarge
)

// DefaultBranch is the branch used when none is named.
const DefaultBranch = core.DefaultBranch

// Index structures selectable with WithIndex.
const (
	// IndexPOS is the Pattern-Oriented-Split Tree (the default): content-
	// defined node boundaries, page-level deduplication across versions.
	IndexPOS = index.KindPOS
	// IndexMPT is the Merkle Patricia Trie: key-prefix-structured nodes,
	// the paper's main SIRI comparison structure.
	IndexMPT = index.KindMPT
)

// ParseHash decodes the Base32 text form of a version uid or chunk id.
func ParseHash(s string) (Hash, error) { return hash.Parse(s) }

// Value constructors.
var (
	// NewString constructs a string value.
	NewString = value.String
	// NewInt constructs an integer value.
	NewInt = value.Int
	// NewFloat constructs a float value.
	NewFloat = value.Float
	// NewBool constructs a boolean value.
	NewBool = value.Bool
	// ResolveOurs / ResolveTheirs are stock merge resolvers.
	ResolveOurs   = index.ResolveOurs
	ResolveTheirs = index.ResolveTheirs
)

// DB is a ForkBase instance: a chunk store, a branch table, and the Git-like
// operation surface of the paper's Fig 1.
//
// The operations are the engine's (internal/core.DB), promoted through an
// embedded field that go doc does not expand.  testdata/api.golden records
// the full method set, promoted methods included, with every other exported
// name of the package; TestPublicAPI fails when it and the code disagree.
//
// The methods declared here add behaviour on top: closing the backends,
// replication, the node's TCP and REST services, healing from a peer, typed
// puts, datasets and sessions.
type DB struct {
	*engine
	acl *access.Controller

	fileStore *store.FileStore // non-nil for file-backed instances
	fileHeads *core.HeadTable  // non-nil for file-backed instances

	// remote is the connection to the one server behind Remote or
	// WithFollow; follower is non-nil for a replica.
	remote   *server.Client
	follower *repl.Follower
}

// engine names core.DB so the embedded field stays unexported.
type engine = core.DB

// WriteOp is one object write of a WriteBatch.
type WriteOp = core.WriteOp

// Option configures Open.
type Option func(*options)

// options is the engine's configuration plus the backends Open resolves.
// Each backend option records that it was given, so Open can refuse an
// empty argument instead of reading it as "not given".
type options struct {
	core.Options
	fileBacked bool
	dir        string
	remote     bool
	addr       string
	follow     bool
	followAddr string
}

// InMemory keeps everything in RAM (default).
func InMemory() Option { return func(o *options) {} }

// FileBacked persists chunks and branch heads under dir.
func FileBacked(dir string) Option { return func(o *options) { o.fileBacked, o.dir = true, dir } }

// Remote keeps chunks and branch heads on the forkbased server at addr: the
// engine runs in this process over that server's store and branch table.
func Remote(addr string) Option { return func(o *options) { o.remote, o.addr = true, addr } }

// WithFollow opens the DB as a read replica of the forkbased primary at
// addr: a follower goroutine tails the primary's change feed and converges
// the local store by Merkle-delta sync (only chunks the replica is missing
// cross the wire).  The DB serves reads throughout — every published head
// is a complete, tamper-verified version — and every mutating operation
// returns ErrReadOnlyReplica.  Combine with FileBacked for a durable
// replica or WithNodeCache for a hot read tier.
func WithFollow(addr string) Option { return func(o *options) { o.follow, o.followAddr = true, addr } }

// WithIndex selects the structure backing new composite (map/set) values:
// IndexPOS (default) or IndexMPT.  The choice applies to values written
// through this handle; reading is always self-describing — every stored
// root chunk and every version object records its structure, so a DB opened
// with either setting reads data written under the other, and GC,
// verification, diff, merge and replication work identically for both.
func WithIndex(k IndexKind) Option {
	return func(o *options) { o.Index = k }
}

// WithStore injects a custom chunk store (advanced; used by benchmarks).
func WithStore(st store.Store) Option { return func(o *options) { o.Store = st } }

// WithNodeCache enables the decoded-node cache on the read path with the
// given byte budget (<= 0 selects a 32 MiB default).
//
// The cache holds *decoded* index nodes (POS-Tree and MPT) and version
// objects (FNodes) keyed by chunk id, so hot traversals and version reads
// skip both the store fetch and the decode; over Remote, reading a head
// this client committed costs only the head lookup.  Immutability makes it
// trivially coherent: a content address can only ever denote one payload,
// so entries never go stale — eviction (LRU per shard, byte-budgeted) is the
// only way anything leaves.  The cache sits above chunk verification, so a
// malicious store can never populate it with forged data, and deep
// verification reads the stored bytes rather than the cache.
func WithNodeCache(bytes int64) Option {
	return func(o *options) {
		if bytes <= 0 {
			bytes = nodecache.DefaultBytes
		}
		o.NodeCacheBytes = bytes
	}
}

// WithMetrics selects the registry this instance reports into: engine and
// store operation counts/latencies, cache and dedup gauges, GC/scrub/heal
// accounting.  The default is obs.Default() (the process-wide registry);
// obs.Discard disables instrumentation entirely.
func WithMetrics(reg *obs.Registry) Option {
	return func(o *options) { o.Metrics = reg }
}

// WithLogger routes the engine's structured log records (slow-op reports)
// through l instead of slog.Default().
func WithLogger(l *slog.Logger) Option {
	return func(o *options) { o.Logger = l }
}

// WithSlowOpThreshold logs any engine or store operation that takes at
// least d, carrying the request's trace ID so one slow write can be
// followed across layers.  0 (the default) disables slow-op logging.
func WithSlowOpThreshold(d time.Duration) Option {
	return func(o *options) { o.SlowOp = d }
}

// Open creates or opens a ForkBase instance.  Remote, FileBacked and
// WithStore each choose the chunk store, so at most one of them may be
// given.  An empty address or directory is refused before anything is
// dialled or opened.
func Open(opts ...Option) (*DB, error) {
	var o options
	for _, opt := range opts {
		opt(&o)
	}
	if !o.Index.Known() {
		return nil, errors.New("forkbase: unknown index kind " + o.Index.String())
	}
	db := &DB{acl: access.NewController()}
	switch {
	case o.fileBacked && o.dir == "":
		return nil, errors.New("forkbase: FileBacked needs a directory")
	case o.remote && o.addr == "":
		return nil, errors.New("forkbase: Remote needs a server address")
	case o.follow && o.followAddr == "":
		return nil, errors.New("forkbase: WithFollow needs a primary's address")
	case o.remote && (o.fileBacked || o.Store != nil), o.fileBacked && o.Store != nil:
		return nil, errors.New("forkbase: Remote, FileBacked and WithStore each choose the chunk store; give at most one")
	case o.remote && o.follow:
		return nil, errors.New("forkbase: WithFollow cannot be combined with Remote")
	case o.remote:
		cl, err := server.Dial(o.addr)
		if err != nil {
			return nil, err
		}
		db.remote = cl
		o.Store, o.Branches = cl, cl
	case o.fileBacked:
		fs, err := store.OpenFileStore(o.dir)
		if err != nil {
			return nil, err
		}
		bt, err := core.OpenFileBranchTable(o.dir)
		if err != nil {
			fs.Close()
			return nil, err
		}
		db.fileStore, db.fileHeads = fs, bt
		o.Store, o.Branches = fs, bt
	}
	o.ReadOnly = o.follow // gates every path that reaches a replica's engine
	db.engine = core.Open(o.Options)
	if o.follow {
		cli, err := server.Dial(o.followAddr)
		if err != nil {
			db.Close()
			return nil, err
		}
		db.remote = cli
		// The follower writes through the engine's verifying store, so every
		// replicated chunk is integrity-checked before it lands.
		db.follower = repl.NewFollower(repl.NewRemoteSource(cli), db.Store(), db.BranchTable(), repl.Options{})
		db.follower.RegisterMetrics(db.Metrics())
		db.follower.Start()
	}
	return db, nil
}

// MustOpen is Open for examples and tests; it panics on error.
func MustOpen(opts ...Option) *DB {
	db, err := Open(opts...)
	if err != nil {
		panic(err)
	}
	return db
}

// Close stops the replication follower, releases file handles and network
// connections, and purges the decoded-node cache so post-close reads fail at
// the store uniformly instead of succeeding whenever a node happens to be
// cached.  A file-backed instance fsyncs its chunks, then its heads journal,
// so chunks are on disk before the heads naming them, and invalidates the
// zero-copy payloads the storage engine handed out (their segment mappings
// are released); copy anything that must outlive the handle.
func (db *DB) Close() error {
	var err error
	if db.remote != nil {
		err = db.remote.Close() // fails a follower's in-flight long poll at once
	}
	if db.follower != nil {
		_ = db.follower.Close() // stop pulling before the store goes away
	}
	db.NodeCache().Purge() // nil-safe; covers injected caches too
	if db.fileStore != nil {
		err = errors.Join(err, db.fileStore.Close(), db.fileHeads.Close())
	}
	return err
}

// Following reports whether this DB is a read replica.
func (db *DB) Following() bool { return db.follower != nil }

// NewServer builds the TCP chunk/branch service over this DB — what
// `forkbased -listen` serves and what Remote clients and replicas
// (WithFollow) dial.  It serves the backend under the engine's store meter
// (RawStore) and the engine's branch table, so a head moved over the wire
// lands in the same change feed as one moved by the engine, and it reports
// into the engine's registry.  A replica's server is read-only.  The caller
// sets limits, listens and closes it; closing the server leaves the DB open.
func (db *DB) NewServer(logger *slog.Logger) *server.Server {
	var srv *server.Server
	if db.Following() {
		srv = server.NewReadOnly(db.RawStore(), db.BranchTable(), logger)
	} else {
		srv = server.New(db.RawStore(), db.BranchTable(), logger)
	}
	srv.SetMetrics(db.Metrics())
	srv.AttachFeed(db.Feed())
	return srv
}

// NewHandler builds the REST API over this DB (`forkbased -http`).  Write
// routes answer 403 on a replica, and a replica publishes its follower's
// progress at GET /v1/repl/status.
func (db *DB) NewHandler() *rest.Handler {
	h := rest.New(db.engine)
	if db.follower != nil {
		h.WithReplStatus(db.follower.Stats)
	}
	return h
}

// ReplStats snapshots replication progress (zeros when not following).
func (db *DB) ReplStats() ReplStats {
	if db.follower == nil {
		return ReplStats{}
	}
	return db.follower.Stats()
}

// WaitSynced blocks until the replica has applied every commit the primary
// had at the moment of the call, or the timeout elapses.  It is the
// read-your-writes fence: write to the primary, WaitSynced on the replica,
// then read.  On a non-replica it returns nil immediately.
func (db *DB) WaitSynced(timeout time.Duration) error {
	if db.follower == nil {
		return nil
	}
	return db.follower.WaitCaughtUp(timeout)
}

// FeedLag reports how many feed entries this replica is behind its primary
// (0 when caught up).  It costs one round trip to the primary; on a DB
// that is not a replica it returns an error.
func (db *DB) FeedLag() (uint64, error) {
	if db.follower == nil {
		return 0, errors.New("forkbase: not a replica")
	}
	return db.follower.Lag()
}

// PutString is Put with a string value.
func (db *DB) PutString(key, branch, s string, meta map[string]string) (Version, error) {
	return db.Put(key, branch, value.String(s), meta)
}

// PutMap builds a map value from entries — over the structure selected
// with WithIndex — and Puts it.  Construction and commit run under the
// engine's GC write fence, so a concurrent collection cannot sweep the
// freshly built chunks before the head publishes them.
func (db *DB) PutMap(key, branch string, entries []Entry, meta map[string]string) (Version, error) {
	return db.BuildAndPut(key, branch, meta, func() (Value, error) {
		return db.NewMapValue(entries)
	})
}

// PutBlob builds a blob value from data and Puts it (fenced; see PutMap).
func (db *DB) PutBlob(key, branch string, data []byte, meta map[string]string) (Version, error) {
	return db.BuildAndPut(key, branch, meta, func() (Value, error) {
		return value.NewBlob(db.Store(), db.Chunking(), data)
	})
}

// PutSet builds a set value from elements (over the structure selected
// with WithIndex) and Puts it (fenced; see PutMap).
func (db *DB) PutSet(key, branch string, elems [][]byte, meta map[string]string) (Version, error) {
	return db.BuildAndPut(key, branch, meta, func() (Value, error) {
		return db.NewSetValue(elems)
	})
}

// PutList builds a list value from items and Puts it (fenced; see PutMap).
func (db *DB) PutList(key, branch string, items [][]byte, meta map[string]string) (Version, error) {
	return db.BuildAndPut(key, branch, meta, func() (Value, error) {
		return value.NewList(db.Store(), db.Chunking(), items)
	})
}

// BlobBytes materialises a blob-valued version's content.
func (db *DB) BlobBytes(v Version) ([]byte, error) {
	b, err := v.Value.Blob(db.Store(), db.Chunking())
	if err != nil {
		return nil, err
	}
	return b.Bytes()
}

// Heal walks the live Merkle graph from every branch head, refetches any
// missing or corrupt chunk from src, verifies each against its content
// address, and lands it back in the local store.  Heal is deliberately not
// gated by the replica write guard: repairing a read replica from its
// primary is the expected deployment.  With a nil src, a replica heals from
// the primary it follows; otherwise a source is required.
func (db *DB) Heal(src ChunkSource) (HealStats, error) {
	if src == nil {
		if db.follower == nil {
			return HealStats{}, errors.New("forkbase: heal needs a chunk source")
		}
		src = repl.NewRemoteSource(db.remote)
	}
	return db.engine.Heal(src)
}

// HealFrom heals from the forkbased server at addr (see Heal).
func (db *DB) HealFrom(addr string) (HealStats, error) {
	cli, err := server.Dial(addr)
	if err != nil {
		return HealStats{}, err
	}
	defer cli.Close()
	return db.engine.Heal(repl.NewRemoteSource(cli))
}

// --- datasets ----------------------------------------------------------------

// CreateDataset writes rows as a new dataset.
func (db *DB) CreateDataset(name, branch string, schema Schema, rows []Row, meta map[string]string) (*Dataset, error) {
	return dataset.Create(db.engine, name, branch, schema, rows, meta)
}

// LoadCSVDataset loads a CSV stream (header first) as a dataset.
func (db *DB) LoadCSVDataset(name, branch, keyColumn string, r io.Reader, meta map[string]string) (*Dataset, error) {
	return dataset.CreateFromCSV(db.engine, name, branch, keyColumn, r, meta)
}

// OpenDataset attaches to the head version of a dataset.
func (db *DB) OpenDataset(name, branch string) (*Dataset, error) {
	return dataset.Open(db.engine, name, branch)
}

// DiffDatasets runs a differential query between two branches of a dataset.
func (db *DB) DiffDatasets(name, fromBranch, toBranch string) (DiffResult, error) {
	return dataset.DiffBranches(db.engine, name, fromBranch, toBranch)
}

// --- access control ----------------------------------------------------------

// ACL exposes the access controller for grants.
func (db *DB) ACL() *access.Controller { return db.acl }

// Session binds a user identity to the DB; every operation is checked
// against the ACL first (branch-based access control, paper Fig 1).
type Session struct {
	db   *DB
	user string
}

// SessionFor returns a session for user.
func (db *DB) SessionFor(user string) *Session { return &Session{db: db, user: user} }

func (s *Session) check(key, branch string, lvl access.Level) error {
	if branch == "" {
		branch = DefaultBranch
	}
	return s.db.acl.Check(s.user, key, branch, lvl)
}

// Get reads key@branch if the user holds read access.
func (s *Session) Get(key, branch string) (Version, error) {
	if err := s.check(key, branch, access.Read); err != nil {
		return Version{}, err
	}
	return s.db.Get(key, branch)
}

// Put writes key@branch if the user holds write access.
func (s *Session) Put(key, branch string, v Value, meta map[string]string) (Version, error) {
	if err := s.check(key, branch, access.Write); err != nil {
		return Version{}, err
	}
	return s.db.Put(key, branch, v, meta)
}

// Branch forks a branch if the user can read the source and write the new
// branch.
func (s *Session) Branch(key, newBranch, fromBranch string) error {
	if err := s.check(key, fromBranch, access.Read); err != nil {
		return err
	}
	if err := s.check(key, newBranch, access.Write); err != nil {
		return err
	}
	return s.db.Branch(key, newBranch, fromBranch)
}

// Merge merges src into dst if the user can read src and write dst.
func (s *Session) Merge(key, dst, src string, resolve Resolver, meta map[string]string) (MergeResult, error) {
	if err := s.check(key, src, access.Read); err != nil {
		return MergeResult{}, err
	}
	if err := s.check(key, dst, access.Write); err != nil {
		return MergeResult{}, err
	}
	return s.db.Merge(key, dst, src, resolve, meta)
}

// Diff runs a differential query if the user can read both branches.
func (s *Session) Diff(key, fromBranch, toBranch string) ([]Delta, DiffStats, error) {
	if err := s.check(key, fromBranch, access.Read); err != nil {
		return nil, DiffStats{}, err
	}
	if err := s.check(key, toBranch, access.Read); err != nil {
		return nil, DiffStats{}, err
	}
	return s.db.DiffBranches(key, fromBranch, toBranch)
}

// DeleteBranch removes a branch if the user holds admin on it.
func (s *Session) DeleteBranch(key, branch string) error {
	if err := s.check(key, branch, access.Admin); err != nil {
		return err
	}
	return s.db.DeleteBranch(key, branch)
}
