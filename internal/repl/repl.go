// Package repl implements ForkBase's primary→replica replication: a replica
// follows the primary's sequenced change feed and converges by Merkle-delta
// sync.
//
// The paper's structural bet — values as content-addressed POS-Trees, uids
// as Merkle roots — makes replication a pruned graph walk rather than a log
// shipping problem: to mirror a head, a replica walks the head's chunk graph
// top-down, asks its *local* store which subtree roots it already has
// (anything shared with a previous version, a sibling branch, or any other
// object is pruned wholesale), and fetches only the missing chunks, in
// batches shared by every head of a publish.  A 1% edit to a 100k-entry map
// ships kilobytes — the O(D log N) deltas of the paper's diffs, applied to
// transfer.
//
// Consistency model: per-branch prefix consistency.  A replica's head for
// key@branch is always some committed version of that branch on the
// primary, and it converges to the primary's latest as the feed drains; a
// primary's batch appears whole (a feed page is one Apply), and during a
// snapshot catch-up a branch may transiently step back before converging.
// Reads are served throughout — chunk immutability means a version, once
// its head is published locally, is complete and tamper-verified.
package repl

import (
	"math/rand"
	"time"

	"forkbase/internal/chunk"
	"forkbase/internal/core"
	"forkbase/internal/hash"
)

// Source is the replica's view of a primary: a sequenced change feed, a
// branch-head snapshot and batched chunk reads.  Two implementations ship:
// LocalSource (in-process, for embedded replicas and tests) and
// RemoteSource (over the TCP protocol's OpFeedSince/OpHeads/OpGetChunks).
// Each holds one lease on the primary's feed (core.Feed.Read), which keeps
// what its follower pulls safe from the primary's collector; one source
// serves one follower.
type Source interface {
	// Seq returns the primary's current feed position (epoch + sequence)
	// and renews the lease without moving its cursor, so a probe
	// (WaitCaughtUp, Lag, readiness) never releases a pull in flight.
	Seq() (core.FeedCursor, error)
	// FeedSince reads feed entries after cursor (limit 0 = source default),
	// long-polling up to wait when the feed is idle, and sets the lease's
	// cursor to cursor.  truncated reports the cursor is unusable — fell
	// out of the feed's retained window, or belongs to a previous feed
	// incarnation — and the replica must snapshot.
	FeedSince(cursor core.FeedCursor, limit int, wait time.Duration) (entries []core.FeedEntry, next core.FeedCursor, truncated bool, err error)
	// Heads snapshots all branch heads: key -> branch -> uid.
	Heads() (map[string]map[string]hash.Hash, error)
	// GetChunks fetches chunks by id; out[i] is nil when ids[i] is absent.
	// Returned chunks are verified against the requested ids before use.
	GetChunks(ids []hash.Hash) ([]*chunk.Chunk, error)
	// Pin and Unpin are no-ops nothing in the product calls, kept only
	// because the benchmark harness's traced source forwards them.
	Pin(root hash.Hash) error
	Unpin(root hash.Hash) error
}

// newLease mints a source's lease id: random, so followers of one primary
// do not collide, and never 0, which reads without a lease.
func newLease() uint64 {
	for {
		if id := rand.Uint64(); id != 0 {
			return id
		}
	}
}

// Stats instruments a replica's sync progress.  Counters are cumulative
// since the follower started.
type Stats struct {
	// Cursor is the feed sequence the replica has fully applied.
	Cursor uint64
	// Rounds counts sync rounds (one batch of feed entries, or a snapshot).
	Rounds uint64
	// Snapshots counts full catch-ups (initial sync and truncation recovery).
	Snapshots uint64
	// HeadsApplied counts branch-head advances applied locally.
	HeadsApplied uint64
	// BranchesDeleted counts branch deletions applied locally.
	BranchesDeleted uint64
	// ChunksFetched / BytesFetched measure what actually crossed the wire.
	ChunksFetched uint64
	BytesFetched  uint64
	// ChunksSkipped counts frontier nodes pruned because the local store
	// already held them — the Merkle-delta savings.  It counts local
	// HasBatch hits only: a chunk a pull reaches twice is deduplicated by
	// the walk before that check.
	ChunksSkipped uint64
	// Errors counts failed rounds (each is retried with backoff).
	Errors uint64
	// LastError is the most recent failure, "" when the last round was clean.
	LastError string
}

// LocalSource adapts an in-process core.DB into a Source — the primary and
// replica share an address space (embedded replicas, tests, the benchmark)
// but replication still moves only chunk bytes, so measurements over a
// LocalSource reflect wire costs faithfully.
type LocalSource struct {
	db    *core.DB
	lease uint64
}

// NewLocalSource wraps db.
func NewLocalSource(db *core.DB) *LocalSource { return &LocalSource{db: db, lease: newLease()} }

// Seq implements Source.
func (s *LocalSource) Seq() (core.FeedCursor, error) {
	_, tip, _ := s.db.Feed().Read(s.lease, core.FeedCursor{}, -1, 0)
	return tip, nil
}

// FeedSince implements Source.
func (s *LocalSource) FeedSince(cursor core.FeedCursor, limit int, wait time.Duration) ([]core.FeedEntry, core.FeedCursor, bool, error) {
	entries, next, truncated := s.db.Feed().Read(s.lease, cursor, limit, wait)
	return entries, next, truncated, nil
}

// Heads implements Source.
func (s *LocalSource) Heads() (map[string]map[string]hash.Hash, error) {
	return core.ListHeads(s.db.BranchTable())
}

// GetChunks implements Source; chunks come through the primary's verifying
// read path.  Payloads are copied out before crossing the replication
// boundary: a file-backed primary serves zero-copy slices of its segment
// mappings, and a replica storing those aliases would share the primary's
// fate — its "independent" copy rotting or vanishing with the primary's
// disk.  A remote source gives this ownership guarantee for free (bytes
// cross the wire); the local source must give the same one.
func (s *LocalSource) GetChunks(ids []hash.Hash) ([]*chunk.Chunk, error) {
	out, err := s.db.Store().GetBatch(ids)
	if err != nil {
		return nil, err
	}
	for i, c := range out {
		if c == nil {
			continue
		}
		out[i] = chunk.NewClaimed(c.Type(), append([]byte(nil), c.Data()...), c.ID())
	}
	return out, nil
}

// Pin implements Source as a no-op.
func (s *LocalSource) Pin(hash.Hash) error { return nil }

// Unpin implements Source as a no-op.
func (s *LocalSource) Unpin(hash.Hash) error { return nil }
