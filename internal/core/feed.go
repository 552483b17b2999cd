package core

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"forkbase/internal/chunk"
	"forkbase/internal/fnode"
	"forkbase/internal/hash"
	"forkbase/internal/store"
)

// FeedEntry is one sequenced head movement of the primary's change feed.
// Replication consumes these: each entry names the branch that moved and the
// uid it moved to, and the uid — being a Merkle root — is everything a
// replica needs to pull exactly the chunks it is missing.
type FeedEntry struct {
	// Seq is the entry's position in the feed: strictly monotonic, starting
	// at 1, assigned under the same critical section that records the entry,
	// so feed order is a total order over head movements.
	Seq uint64
	// Key and Branch name the head that moved.
	Key    string
	Branch string
	// Old is the head before the movement (zero for branch creation).
	// Replicas converge on New alone; the collector keeps the Old of every
	// entry after a live lease's cursor (see leasedRoots).
	Old hash.Hash
	// New is the head after the movement; zero means the branch was deleted.
	New hash.Hash
}

// DefaultFeedCapacity is the number of head movements the feed retains —
// the replay window for replica cursors (a cursor older than the window
// forces a snapshot catch-up).
const DefaultFeedCapacity = 4096

// DefaultLease is how long a follower's lease on its feed cursor (see
// leasedRoots) lives without a read or probe renewing it: the expiry bounds
// the cost of a follower that vanished mid-sync.
const DefaultLease = time.Minute

// Feed is the primary-side change feed: a bounded, sequence-numbered ring of
// head movements with blocking tail reads.  It is safe for concurrent use.
type Feed struct {
	epoch   uint64 // this incarnation: stable for its lifetime, new at each restart
	mu      sync.Mutex
	entries []FeedEntry // the retained entries, entries[0].Seq == start
	ends    []bool      // ends[i]: entries[i] is the last of its Append
	start   uint64      // seq of the oldest retained entry (0 when empty)
	next    uint64      // seq the next Append will assign
	cap     int
	wake    chan struct{} // closed and replaced on every Append
	leases  map[uint64]lease
	ttl     time.Duration // a lease's life without renewal: DefaultLease
	pruneAt int           // lease count at which the next new lease drops lapsed ones
}

// lease is a follower's hold on the feed: what it may be pulling is what
// was current at cursor or later.
type lease struct {
	cursor   uint64
	deadline time.Time
}

// FeedCursor is a replica's resumable position: a sequence number *within a
// specific feed incarnation*.  Sequences restart from 1 when a primary
// restarts, so a bare seq from a previous life could silently alias into
// the new feed; the epoch disambiguates, and an epoch mismatch is treated
// exactly like ring truncation — snapshot and resume.
type FeedCursor struct {
	Epoch uint64
	Seq   uint64
}

// NewFeed returns an empty feed retaining up to capacity entries
// (0 selects DefaultFeedCapacity).
func NewFeed(capacity int) *Feed {
	if capacity <= 0 {
		capacity = DefaultFeedCapacity
	}
	return &Feed{
		epoch:  uint64(time.Now().UnixNano()),
		next:   1,
		cap:    capacity,
		wake:   make(chan struct{}),
		leases: make(map[uint64]lease),
		ttl:    DefaultLease,
	}
}

// Append records a group of head movements — one Apply's — under
// consecutive sequence numbers (their Seq fields are ignored) and returns
// the last one.  Since never splits a group.
func (f *Feed) Append(group ...FeedEntry) uint64 {
	f.mu.Lock()
	if len(f.entries) == 0 {
		f.start = f.next
	}
	for i, e := range group {
		e.Seq = f.next
		f.next++
		f.entries = append(f.entries, e)
		f.ends = append(f.ends, i == len(group)-1)
	}
	if drop := len(f.entries) - f.cap; drop > 0 {
		// Reslicing, not copying: append moves the retained entries only
		// when it outgrows the backing array, so a trim is amortised O(1).
		f.entries, f.ends = f.entries[drop:], f.ends[drop:]
		f.start += uint64(drop)
	}
	seq := f.next - 1
	wake := f.wake
	f.wake = make(chan struct{})
	f.mu.Unlock()
	close(wake) // release blocked tail readers
	return seq
}

// Seq returns the sequence number of the newest entry (0 when nothing has
// ever been appended).
func (f *Feed) Seq() uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.next - 1
}

// Since returns up to limit entries with Seq > cursor (limit <= 0 means all
// retained), plus the cursor the caller should resume from.  A page ends
// where an Append's group ends: it stops short of limit rather than split
// one, and runs past limit only when its first group alone is longer.
// truncated reports that entries between cursor and the returned batch have
// been evicted from the ring: the caller's incremental view has a hole and
// it must fall back to a snapshot catch-up.
func (f *Feed) Since(cursor uint64, limit int) (entries []FeedEntry, next uint64, truncated bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	next = cursor
	if len(f.entries) == 0 {
		// An empty ring truncates any cursor from before the retained window
		// (e.g. a primary restart reset the feed).
		return nil, cursor, cursor > f.next-1
	}
	if cursor+1 < f.start {
		return nil, cursor, true
	}
	first := int(cursor + 1 - f.start) // index of the first wanted entry
	if first >= len(f.entries) {
		return nil, cursor, cursor > f.next-1
	}
	n := len(f.entries) - first
	if limit > 0 && n > limit {
		n = limit
		for n > 0 && !f.ends[first+n-1] {
			n--
		}
		for n == 0 || !f.ends[first+n-1] { // the newest entry ends a group
			n++
		}
	}
	entries = append([]FeedEntry(nil), f.entries[first:first+n]...)
	return entries, entries[len(entries)-1].Seq, false
}

// A feed read returns at most feedDefaultLimit entries — a replica streams
// the window in pages — and long-polls at most feedMaxWait, so an idle
// reader never parks a serving goroutine for long.
const (
	feedDefaultLimit = 512
	feedMaxWait      = 30 * time.Second
)

// Read is the one feed-read rule every replication source serves, for the
// follower holding lease (0: a reader without one).  A read sets the
// lease's cursor to cursor; a negative limit probes — no entries, the cursor
// of the feed's tip, and the lease only created or renewed.  A
// cursor of another incarnation (a nonzero epoch that is not this feed's)
// comes back truncated, exactly like one that fell out of the ring: the
// reader must snapshot.  Otherwise it long-polls up to wait (at most
// feedMaxWait, and no longer than stop stays open) while nothing follows
// cursor, and returns Since's page of at most limit entries (0, or more
// than feedDefaultLimit, means feedDefaultLimit) and the cursor to resume
// from.
func (f *Feed) Read(lease uint64, cursor FeedCursor, limit int, wait time.Duration, stop <-chan struct{}) ([]FeedEntry, FeedCursor, bool) {
	f.hold(lease, cursor, limit >= 0)
	if limit < 0 {
		return nil, FeedCursor{Epoch: f.epoch, Seq: f.Seq()}, false
	}
	if cursor.Epoch != 0 && cursor.Epoch != f.epoch {
		return nil, FeedCursor{Epoch: f.epoch, Seq: cursor.Seq}, true
	}
	if limit == 0 || limit > feedDefaultLimit {
		limit = feedDefaultLimit
	}
	if wait > 0 {
		f.Wait(cursor.Seq, min(wait, feedMaxWait), stop)
	}
	entries, next, truncated := f.Since(cursor.Seq, limit)
	return entries, FeedCursor{Epoch: f.epoch, Seq: next}, truncated
}

// Wait blocks until the feed's newest sequence exceeds cursor, the timeout
// elapses or stop closes (nil: never), and reports whether new entries are
// available.  A zero or negative timeout polls without blocking.
func (f *Feed) Wait(cursor uint64, timeout time.Duration, stop <-chan struct{}) bool {
	deadline := time.Now().Add(timeout)
	for {
		f.mu.Lock()
		newest := f.next - 1
		wake := f.wake
		f.mu.Unlock()
		if newest > cursor {
			return true
		}
		remain := time.Until(deadline)
		if remain <= 0 {
			return false
		}
		t := time.NewTimer(remain)
		select {
		case <-wake:
			t.Stop()
		case <-t.C:
			return false
		case <-stop:
			t.Stop()
			return false
		}
	}
}

// hold creates or renews lease id (0: none) for DefaultLease; a read also
// sets its cursor to the one it reads from, while a probe leaves the cursor
// of a live lease where it is.  A new or lapsed lease starts at cursor 0.
func (f *Feed) hold(id uint64, cursor FeedCursor, read bool) {
	if id == 0 {
		return
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	now := time.Now()
	l, ok := f.leases[id]
	if !ok && len(f.leases) >= f.pruneAt { // amortised: lapsed leases cannot pile up
		f.dropLapsed(now)
		f.pruneAt = 2*len(f.leases) + 64
	}
	if read || now.After(l.deadline) {
		l.cursor = 0 // lapsed, or another incarnation's cursor: hold every retained Old
	}
	if read && (cursor.Epoch == 0 || cursor.Epoch == f.epoch) {
		l.cursor = cursor.Seq
	}
	l.deadline = now.Add(f.ttl)
	f.leases[id] = l
}

// leasedRoots returns the heads a leased follower may still be pulling: the
// Old of every retained entry after the oldest live lease's cursor (none
// without a live lease).  With the branch heads they are the GC roots: a
// head current at cursor c is either still a head or the Old of the first
// entry after c that moved its branch.
func (f *Feed) leasedRoots() []hash.Hash {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.dropLapsed(time.Now())
	oldest := f.next - 1
	for _, l := range f.leases {
		oldest = min(oldest, l.cursor)
	}
	var roots []hash.Hash
	for _, e := range f.entries {
		if e.Seq > oldest && !e.Old.IsZero() {
			roots = append(roots, e.Old)
		}
	}
	return roots
}

// dropLapsed deletes the leases whose deadline passed.  Callers hold mu.
func (f *Feed) dropLapsed(now time.Time) {
	for id, l := range f.leases {
		if now.After(l.deadline) {
			delete(f.leases, id)
		}
	}
}

// FeedTable is a BranchTable that also journals every successful Apply into
// a Feed, as one group; its reads are the table's own.  The wrap happens
// once, at the point writes enter the system: core.Open wraps its branch
// table automatically, and a network node serves that same table
// (DB.BranchTable) over TCP beside the engine (forkbase.DB.NewServer), so
// every write shares one sequence.
//
// Every Apply holds mu across the table operation AND its journal append.
// This is load-bearing: replicas converge by applying the *last* feed entry
// per branch, so feed order must equal mutation order — two concurrent wins
// appended in the opposite order would permanently park replicas on the
// older head.  Branch-table mutations are tiny metadata operations, so the
// serialization is not a throughput concern.
//
// Because every head moves here — engine commits, remote commits and a
// follower's Applies — the table also keeps the one collection rule.  GC
// holds the fence's write side from listing heads to ticking the clock, so
// no head moves during a collection; every Apply holds its read side, and
// refuses an op whose epoch precedes a sweep that completed since with
// ErrCollected.  A writer that stored chunks before that sweep may have lost
// them to it.  A remote writer's chunks land only in a Commit, under the
// same hold as its ops, and a Commit that could name a swept chunk is
// refused only for what it names and did not carry.
type FeedTable struct {
	BranchTable // the table the feed sequences
	feed        *Feed
	mu          sync.Mutex

	fence sync.RWMutex
	// swept counts the collections that deleted chunks under the fence; it
	// moves only under the write side, so it is stable under the read side.
	swept atomic.Uint64
}

var _ BranchTable = (*FeedTable)(nil)

// WithFeed wraps table so head movements are journaled into feed.  A table
// that is already feed-wrapped is returned unchanged (its existing feed
// keeps the sequence; double-journaling would fork it).
func WithFeed(table BranchTable, feed *Feed) *FeedTable {
	if ft, ok := table.(*FeedTable); ok {
		return ft
	}
	return &FeedTable{BranchTable: table, feed: feed}
}

// Feed returns the journal.
func (t *FeedTable) Feed() *Feed { return t.feed }

// Epoch implements BranchTable: the wrapped table's epoch plus the
// collections that swept chunks under this table's fence.  Over a
// HeadTable that is the collection clock, starting at the table's
// incarnation stamp; over a remote table it is the server's clock as this
// client last saw it, so the engine takes its epoch from the node that
// collects.
func (t *FeedTable) Epoch() uint64 { return t.BranchTable.Epoch() + t.swept.Load() }

// Apply implements BranchTable under the fence's read side (see apply).
func (t *FeedTable) Apply(ops []HeadOp) (bool, error) {
	t.fence.RLock()
	defer t.fence.RUnlock()
	return t.apply(ops)
}

// apply is Apply for a caller that already holds the fence's read side (an
// RWMutex must not be read-locked twice: a waiting GC would deadlock it).
// An op stamped before the current epoch fails the whole Apply with
// ErrCollected once this table has swept: over a remote table, which never
// does, the epoch moves only with the server's replies, and the server
// judges its own sweeps when the commit reaches it.
func (t *FeedTable) apply(ops []HeadOp) (bool, error) {
	if t.swept.Load() > 0 {
		if i := t.stale(ops); i >= 0 {
			return false, fmt.Errorf("%w: op %d (%s@%s)", ErrCollected, i, ops[i].Key, ops[i].Branch)
		}
	}
	return t.publish(ops)
}

// stale returns the index of the first op stamped before the current epoch,
// or -1.
func (t *FeedTable) stale(ops []HeadOp) int {
	now := t.Epoch()
	return slices.IndexFunc(ops, func(op HeadOp) bool { return op.Epoch != 0 && op.Epoch < now })
}

// Commit is the one way a remote writer's chunks land: under one hold of
// the fence's read side it lands the chunks cs in st and applies ops, so no
// collection falls between the two, and it returns st's fresh flags for cs
// and whether the ops applied.  A commit with no head ops (a put outside a
// write, or a write's chunks landed before its publish), or with an op
// stamped before the current epoch (built from chunks a sweep may have
// taken since), is first checked for what it names (named) and refused
// with ErrCollected, landing nothing, if a name is missing.  So every chunk
// a remote writer landed was complete when it landed, and a commit of fresh
// ops costs no store read.  The chunks land even when an op's expectation
// fails, as a put followed by an Apply would.
func (t *FeedTable) Commit(st store.Store, cs []*chunk.Chunk, ops []HeadOp) (fresh []bool, ok bool, err error) {
	t.fence.RLock()
	defer t.fence.RUnlock()
	if len(ops) == 0 || t.stale(ops) >= 0 {
		if err := named(st, cs, ops); err != nil {
			return nil, false, err
		}
	}
	if len(cs) > 0 {
		if fresh, err = st.PutBatch(cs); err != nil {
			return nil, false, err
		}
	}
	if len(ops) == 0 {
		return fresh, true, nil
	}
	ok, err = t.publish(ops)
	return fresh, ok, err
}

// named checks that st holds every id the commit of cs and ops names and
// does not carry, with one HasBatch.  Presence stands for the subtree under
// an id: a remote writer's chunks land complete (Commit), an engine write's
// under the fence, and a sweep keeps a chunk only while it is reachable,
// children and all.
func named(st store.Store, cs []*chunk.Chunk, ops []HeadOp) error {
	seen := make(map[hash.Hash]bool, len(cs))
	for _, c := range cs {
		seen[c.ID()] = true
	}
	var want []hash.Hash
	add := func(id hash.Hash) {
		if !id.IsZero() && !seen[id] {
			seen[id] = true
			want = append(want, id)
		}
	}
	for _, c := range cs {
		refs, err := fnode.Refs(c)
		if err != nil {
			return err
		}
		for _, id := range refs {
			add(id)
		}
	}
	for _, op := range ops {
		add(op.Set)
	}
	has, err := st.HasBatch(want)
	if err != nil {
		return err
	}
	if i := slices.Index(has, false); i >= 0 {
		return fmt.Errorf("%w: the commit names %s, which it does not carry and a sweep took", ErrCollected, want[i].Short())
	}
	return nil
}

// publish applies ops and journals an Apply that succeeds, in the same
// critical section, as one group of an entry per op that moves a head.  An
// op's Old is the head it expected, so only an op with Any costs a head read
// (of the head before the Apply).  The caller holds the fence's read side.
func (t *FeedTable) publish(ops []HeadOp) (bool, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	group := make([]FeedEntry, 0, len(ops))
	for _, op := range ops {
		old := op.Expect
		if op.Any {
			var err error
			if old, _, err = t.BranchTable.Head(op.Key, op.Branch); err != nil {
				return false, err
			}
		}
		if old != op.Set {
			group = append(group, FeedEntry{Key: op.Key, Branch: op.Branch, Old: old, New: op.Set})
		}
	}
	ok, err := t.BranchTable.Apply(ops)
	if ok && err == nil && len(group) > 0 {
		t.feed.Append(group...)
	}
	return ok, err
}

// collect runs a collection: sweep, with every Apply fenced out.  When it
// reports that it deleted chunks, the clock moves before the fence lifts, so
// every op stamped before it is refused.
func (t *FeedTable) collect(sweep func() (deleted bool)) {
	t.fence.Lock()
	defer t.fence.Unlock()
	if sweep() {
		t.swept.Add(1)
	}
}

// CompareAndSet implements BranchTable: the one-op Apply, so it lands in the
// feed too.
func (t *FeedTable) CompareAndSet(key, branch string, old, new hash.Hash) (bool, error) {
	return t.Apply([]HeadOp{{Key: key, Branch: branch, Expect: old, Set: new}})
}
