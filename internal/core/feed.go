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
// same hold as its ops, and only those that are complete or that its fresh
// ops reach: the rule is the server's alone, whatever the client carries.
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
// the fence's read side it lands in st the chunks of cs the landing rule
// admits and applies ops, so no collection falls between the two.  It
// returns st's fresh flags for cs (false for a chunk that did not land)
// and whether the ops applied.
//
// The rule asks nothing of the client, so it holds whatever a commit
// carries.  A carried chunk lands when each id it names is in st or lands
// in the same commit: presence stands for the subtree under an id, since
// every chunk a server holds landed complete or under the fence, and a
// sweep keeps a chunk only while it is reachable, children and all.  A
// carried chunk also lands when a fresh op's Set reaches it through
// carried chunks: a fresh op is stamped with the current epoch, so no sweep
// completed since its writer built what it reaches, and a commit of
// fresh ops that reach all it carries costs no store read.  Nothing else
// lands.  A stale op (stamped with another epoch) applies only if its Set
// is in st or lands; otherwise the ops fail with ErrCollected.  An
// unstamped op is neither checked nor reaches.  A commit with no ops that
// leaves a chunk unlanded answers ErrCollected once the others landed.
// The chunks land even when an op's expectation fails, as a put followed
// by an Apply would.
func (t *FeedTable) Commit(st store.Store, cs []*chunk.Chunk, ops []HeadOp) (fresh []bool, ok bool, err error) {
	t.fence.RLock()
	defer t.fence.RUnlock()
	now := t.Epoch()
	stale := func(op HeadOp) bool { return op.Epoch != 0 && op.Epoch != now }
	l, err := carry(cs)
	if err != nil {
		return nil, false, err
	}
	// One HasBatch asks st about what the commit names and does not carry:
	// the stale ops' Sets and the refs of the chunks no fresh op reaches.
	var named []hash.Hash
	ask := func(ids ...hash.Hash) {
		for _, id := range ids {
			if !id.IsZero() && l.carried(id) == nil {
				named = append(named, id)
			}
		}
	}
	for _, op := range ops {
		if stale(op) {
			ask(op.Set)
		} else if op.Epoch != 0 {
			l.reach(op.Set)
		}
	}
	for _, c := range cs {
		if n := l.table[c.ID()]; !n.known {
			ask(n.refs...)
		}
	}
	if len(named) > 0 {
		has, err := st.HasBatch(named)
		if err != nil {
			return nil, false, err
		}
		l.has = make(map[hash.Hash]bool, len(named))
		for i, id := range named {
			l.has[id] = has[i]
		}
	}
	// What lands is cs filtered by holds; st's fresh flags follow by position.
	fresh = make([]bool, len(cs))
	put := make([]*chunk.Chunk, 0, len(cs))
	for i, c := range cs {
		if fresh[i] = l.holds(c.ID()); fresh[i] {
			put = append(put, c)
		}
	}
	if len(put) > 0 {
		got, err := st.PutBatch(put)
		if err != nil {
			return nil, false, err
		}
		for i := range fresh {
			if fresh[i] {
				fresh[i], got = got[0], got[1:]
			}
		}
	}
	// A put answers for every chunk it carries, a stale op for its Set.
	if len(put) < len(cs) && len(ops) == 0 || slices.ContainsFunc(ops, func(op HeadOp) bool { return stale(op) && !l.holds(op.Set) }) {
		var lacked hash.Hash // the cause of every chunk left out and every stale Set not held
		if i := slices.IndexFunc(named, func(id hash.Hash) bool { return !l.has[id] }); i >= 0 {
			lacked = named[i]
		}
		return nil, false, fmt.Errorf("%w: the commit names %s, which it does not carry and a sweep took", ErrCollected, lacked.Short())
	}
	ok, err = t.publish(ops)
	return fresh, ok, err
}

// landing is a commit's table of carried chunks, built once: from each
// carried id to the ids it names (fnode.Refs) and what the rule decided.
type landing struct {
	table map[hash.Hash]*entry
	first [4]uint64          // bit b is set when a carried id starts with byte b
	has   map[hash.Hash]bool // whether st holds each uncarried id asked about
}

// entry is a carried chunk's refs and, once it is reached or decided
// (known), whether it lands.
type entry struct {
	refs         []hash.Hash
	known, lands bool
}

// Reach returns, in their order and in cs's own array, the chunks of cs
// that the Set of one of ops reaches through cs: what a Commit carrying cs
// lands unchecked when ops are fresh.  A client whose writes share one
// staging carries with a write's commit what Reach finds for its ops, so
// one rule decides what a commit must carry and what it lands unchecked.
func Reach(cs []*chunk.Chunk, ops []HeadOp) ([]*chunk.Chunk, error) {
	l, err := carry(cs)
	if err != nil {
		return nil, err
	}
	for _, op := range ops {
		l.reach(op.Set)
	}
	return slices.DeleteFunc(cs, func(c *chunk.Chunk) bool { return !l.table[c.ID()].lands }), nil
}

// carry builds the table of cs, with nothing known.
func carry(cs []*chunk.Chunk) (landing, error) {
	l := landing{table: make(map[hash.Hash]*entry, len(cs))}
	nodes := make([]entry, len(cs))
	for i, c := range cs {
		refs, err := fnode.Refs(c)
		if err != nil {
			return landing{}, err
		}
		id := c.ID()
		nodes[i].refs, l.table[id] = refs, &nodes[i]
		l.first[id[0]>>6] |= 1 << (id[0] & 63)
	}
	return l, nil
}

// carried returns id's entry in the table, or nil when id is not carried.
// Most ids a commit's chunks name are not, and the first-byte filter turns
// them away before the table.
func (l *landing) carried(id hash.Hash) *entry {
	if l.first[id[0]>>6]&(1<<(id[0]&63)) == 0 {
		return nil
	}
	return l.table[id]
}

// reach marks what root reaches through carried chunks as landing.
func (l *landing) reach(root hash.Hash) {
	var stack []*entry
	mark := func(id hash.Hash) {
		if n := l.carried(id); n != nil && !n.known {
			n.known, n.lands = true, true
			stack = append(stack, n)
		}
	}
	for mark(root); len(stack) > 0; {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, ref := range n.refs {
			mark(ref)
		}
	}
}

// held reports whether id is zero, in st (as asked), or a carried chunk
// known to land.
func (l *landing) held(id hash.Hash) bool {
	if n := l.carried(id); n != nil {
		return n.lands
	}
	return id.IsZero() || l.has[id]
}

// holds is held, once a carried chunk neither reached nor decided is
// decided, after the carried chunks it names: it lands when each id it
// names is held.  The walk keeps its path on a stack, and a chunk on the
// path reads as not landing, so a cycle, which no hash admits, lands
// nothing.
func (l *landing) holds(id hash.Hash) bool {
	type frame struct {
		n    *entry
		todo []hash.Hash // the refs not yet visited
	}
	if n := l.carried(id); n != nil && !n.known {
		n.known = true
		for stack := []frame{{n, n.refs}}; len(stack) > 0; {
			f := &stack[len(stack)-1]
			if len(f.todo) > 0 {
				m := l.carried(f.todo[0])
				f.todo = f.todo[1:]
				if m != nil && !m.known {
					m.known = true
					stack = append(stack, frame{m, m.refs})
				}
				continue
			}
			f.n.lands = !slices.ContainsFunc(f.n.refs, func(ref hash.Hash) bool { return !l.held(ref) })
			stack = stack[:len(stack)-1]
		}
	}
	return l.held(id)
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
