package repl

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"forkbase/internal/core"
	"forkbase/internal/hash"
	"forkbase/internal/obs"
	"forkbase/internal/retry"
	"forkbase/internal/store"
)

// Options tune a Follower.
type Options struct {
	// Poll is the long-poll budget per feed read when the feed is idle
	// (default 2s).  Every read renews the source's feed lease, so Poll must
	// stay well under core.DefaultLease; longer polls cost less chatter.
	Poll time.Duration
	// BatchLimit bounds feed entries applied per round (default 256).
	BatchLimit int
	// RetryMin / RetryMax bound the jittered exponential backoff after a
	// failed round (defaults 100ms / 5s).  A round is not retried inside:
	// any failure — a feed read, a fetch batch, a local write — ends it, and
	// the next round's pull prunes every chunk the failed one landed, so it
	// resumes where that one stopped.  Transport failures are retried one
	// layer down, per round trip, by server.Client.
	RetryMin, RetryMax time.Duration
}

func (o *Options) fill() {
	if o.Poll <= 0 {
		o.Poll = 2 * time.Second
	}
	if o.BatchLimit <= 0 {
		o.BatchLimit = 256
	}
	if o.RetryMin <= 0 {
		o.RetryMin = 100 * time.Millisecond
	}
	if o.RetryMax <= 0 {
		o.RetryMax = 5 * time.Second
	}
}

// backoffPolicy is the round-level backoff shape, shared with the retry
// package so every loop in the system backs off the same (jittered) way.
func (o *Options) backoffPolicy() retry.Policy {
	return retry.Policy{Base: o.RetryMin, Max: o.RetryMax}
}

// Follower is the replica state machine: snapshot catch-up, then an
// incremental tail off the change feed, with backoff-retry around every
// failure (transport errors reconnect inside the client; feed truncation
// falls back to a fresh snapshot).
//
//	         ┌──────────────┐ truncated / vanished-head loop ┌───────────┐
//	start ──▶│ snapshot     │◀────────────────────────────── │ tail      │
//	         │ (list, walk, │ ──────────────────────────────▶│ (feed →   │
//	         │  all heads)  │   cursor anchored at the tip   │  deltas)  │
//	         └──────────────┘                                └───────────┘
type Follower struct {
	src   Source
	sync  *syncer
	heads core.BranchTable
	opts  Options

	mu      sync.Mutex
	stats   Stats
	cursor  core.FeedCursor // fully-applied feed position
	running bool
	stop    chan struct{}
	done    chan struct{}
	// applied broadcasts cursor advancement to WaitCaughtUp waiters.
	applied *sync.Cond
}

// NewFollower assembles a follower that pulls from src into the given local
// store and branch table.  The store should be the replica engine's
// verifying store, so every replicated chunk is integrity-checked on the
// way in; the branch table must not have concurrent writers other than the
// follower.
func NewFollower(src Source, local store.Store, heads core.BranchTable, opts Options) *Follower {
	opts.fill()
	stop := make(chan struct{})
	f := &Follower{
		src:   src,
		sync:  &syncer{src: src, local: local, stop: stop},
		heads: heads,
		opts:  opts,
		stop:  stop,
		done:  make(chan struct{}),
	}
	f.applied = sync.NewCond(&f.mu)
	return f
}

// Start launches the follower loop.  It is a no-op if already running.
func (f *Follower) Start() {
	f.mu.Lock()
	if f.running {
		f.mu.Unlock()
		return
	}
	f.running = true
	f.mu.Unlock()
	go f.run()
}

// Close stops the loop and waits for it to exit.  Safe to call more than
// once and before Start.
func (f *Follower) Close() error {
	f.mu.Lock()
	select {
	case <-f.stop:
		// already closed
	default:
		close(f.stop)
	}
	running := f.running
	f.mu.Unlock()
	if running {
		<-f.done
	}
	return nil
}

// Stats snapshots replication progress.
func (f *Follower) Stats() Stats {
	f.mu.Lock()
	s := f.stats
	f.mu.Unlock()
	s.ChunksFetched = f.sync.chunksFetched.Load()
	s.BytesFetched = f.sync.bytesFetched.Load()
	s.ChunksSkipped = f.sync.chunksSkipped.Load()
	return s
}

// WaitCaughtUp blocks until the replica has applied every feed entry the
// primary had at the moment of the call (or the timeout elapses).  It is
// how tests and read-your-writes callers fence: write on the primary, then
// WaitCaughtUp on the replica, then read.
func (f *Follower) WaitCaughtUp(timeout time.Duration) error {
	target, err := f.src.Seq()
	if err != nil {
		return err
	}
	deadline := time.Now().Add(timeout)
	// Wake the waiters loop even if nothing is applied (timeout handling).
	timer := time.AfterFunc(timeout, func() {
		f.mu.Lock()
		f.applied.Broadcast()
		f.mu.Unlock()
	})
	defer timer.Stop()
	f.mu.Lock()
	defer f.mu.Unlock()
	for f.cursor.Epoch != target.Epoch || f.cursor.Seq < target.Seq {
		if time.Now().After(deadline) {
			return fmt.Errorf("repl: not caught up to %v (at %v) after %v: %s", target, f.cursor, timeout, f.stats.LastError)
		}
		f.applied.Wait()
	}
	return nil
}

// setCursor publishes an applied cursor and wakes waiters.
func (f *Follower) setCursor(c core.FeedCursor) {
	f.mu.Lock()
	f.cursor = c
	f.stats.Cursor = c.Seq
	f.stats.LastError = ""
	f.applied.Broadcast()
	f.mu.Unlock()
}

func (f *Follower) noteError(err error) {
	f.mu.Lock()
	f.stats.Errors++
	f.stats.LastError = err.Error()
	f.applied.Broadcast()
	f.mu.Unlock()
}

func (f *Follower) bump(fn func(*Stats)) {
	f.mu.Lock()
	fn(&f.stats)
	f.mu.Unlock()
}

// run is the follower loop.
func (f *Follower) run() {
	defer close(f.done)
	pol := f.opts.backoffPolicy()
	fails := 0 // consecutive failed rounds; indexes the backoff curve
	needSnapshot := true
	vanished := 0 // consecutive ErrChunkVanished rounds
	var cursor core.FeedCursor
	for {
		select {
		case <-f.stop:
			return
		default:
		}
		var err error
		if needSnapshot {
			cursor, err = f.snapshot()
			if err == nil {
				needSnapshot = false
				f.setCursor(cursor)
			}
		} else {
			var truncated bool
			cursor, truncated, err = f.tailOnce(cursor)
			if err == nil {
				if truncated {
					needSnapshot = true
					continue
				}
				f.setCursor(cursor)
			}
		}
		if err != nil {
			f.noteError(err)
			if errors.Is(err, ErrChunkVanished) {
				// The head we were pulling was superseded and collected on
				// the primary.  Usually re-reading the feed yields the
				// superseding entry — but if that entry lies beyond the
				// batch limit, the same batch (and the same dead head)
				// comes back every time.  Backoff below keeps the retry
				// from spinning, and after a few consecutive failures a
				// snapshot skips the poisoned window entirely (it mirrors
				// only *current* heads and re-anchors the cursor).
				vanished++
				if vanished >= 3 {
					vanished = 0
					needSnapshot = true
				}
			} else {
				vanished = 0
			}
			select {
			case <-f.stop:
				return
			case <-time.After(pol.Backoff(fails)):
			}
			fails++
			continue
		}
		fails = 0
		vanished = 0
	}
}

// Lag reports how many feed entries the replica trails the primary by
// right now (one Seq probe against the source).  An epoch mismatch —
// primary restarted, or nothing applied yet — counts as fully behind.
// RegisterMetrics publishes this follower's sync progress into reg:
// cumulative sync counters (rounds, snapshot fallbacks, heads applied,
// chunks/bytes fetched, Merkle-prune skips, errors) read at scrape time
// from Stats, plus forkbase_repl_lag.  The lag gauge costs one sequence
// probe to the primary per scrape — the same round trip replica readiness
// already pays per healthz — and reports -1 while the primary is
// unreachable.
func (f *Follower) RegisterMetrics(reg *obs.Registry) {
	stat := func(pick func(Stats) uint64) func() float64 {
		return func() float64 { return float64(pick(f.Stats())) }
	}
	reg.CounterFunc("forkbase_repl_rounds_total", "Replication sync rounds completed.",
		stat(func(s Stats) uint64 { return s.Rounds }))
	reg.CounterFunc("forkbase_repl_snapshots_total", "Full snapshot catch-ups (initial sync and truncation fallbacks).",
		stat(func(s Stats) uint64 { return s.Snapshots }))
	reg.CounterFunc("forkbase_repl_heads_applied_total", "Branch-head advances applied locally.",
		stat(func(s Stats) uint64 { return s.HeadsApplied }))
	reg.CounterFunc("forkbase_repl_chunks_fetched_total", "Chunks pulled across the wire.",
		stat(func(s Stats) uint64 { return s.ChunksFetched }))
	reg.CounterFunc("forkbase_repl_bytes_fetched_total", "Chunk bytes pulled across the wire.",
		stat(func(s Stats) uint64 { return s.BytesFetched }))
	reg.CounterFunc("forkbase_repl_chunks_skipped_total", "Frontier chunks pruned because the local store already held them.",
		stat(func(s Stats) uint64 { return s.ChunksSkipped }))
	reg.CounterFunc("forkbase_repl_errors_total", "Failed sync rounds (each retried with backoff).",
		stat(func(s Stats) uint64 { return s.Errors }))
	reg.GaugeFunc("forkbase_repl_cursor", "Feed sequence fully applied locally.",
		stat(func(s Stats) uint64 { return s.Cursor }))
	reg.GaugeFunc("forkbase_repl_lag", "Feed entries behind the primary (-1: primary unreachable).",
		func() float64 {
			lag, err := f.Lag()
			if err != nil {
				return -1
			}
			return float64(lag)
		})
}

// Lag reports how many feed entries the follower is behind its primary (0
// when caught up), at the cost of one probe of the source; an unreachable
// primary is an error.  forkbased's readiness check and the repl_lag gauge
// read it.
func (f *Follower) Lag() (uint64, error) {
	target, err := f.src.Seq()
	if err != nil {
		return 0, err
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.cursor.Epoch != target.Epoch {
		return target.Seq + 1, nil
	}
	if f.cursor.Seq >= target.Seq {
		return 0, nil
	}
	return target.Seq - f.cursor.Seq, nil
}

// snapshot performs a full catch-up: anchor a cursor, mirror every primary
// head, and drop local branches the primary no longer has — all in one
// Apply.  The primary lists its heads key by key, so a batch landing
// mid-listing would show new heads for some keys and old ones for others:
// the feed entries from the anchor to the tip are overlaid on the listing,
// which makes it the primary's state at the last page read, and the cursor
// is anchored there.  A truncated overlay starts the snapshot over.  It
// returns the anchored cursor; entries after it will be replayed by the
// tail, which is idempotent (re-syncing a present head prunes immediately;
// re-applying a head is a no-op).
func (f *Follower) snapshot() (core.FeedCursor, error) {
	f.bump(func(s *Stats) { s.Snapshots++; s.Rounds++ })
	cursor, heads, truncated, err := f.listHeads()
	for err == nil && truncated {
		cursor, heads, truncated, err = f.listHeads()
	}
	if err != nil {
		return cursor, err
	}
	var ops []core.HeadOp
	for key, branches := range heads {
		for branch, uid := range branches {
			ops = append(ops, core.HeadOp{Key: key, Branch: branch, Any: true, Set: uid})
		}
	}
	// Remove local branches that no longer exist on the primary (deletions
	// that happened beyond the truncated feed window).
	local, err := core.ListHeads(f.heads)
	if err != nil {
		return cursor, err
	}
	for key, branches := range local {
		for branch := range branches {
			if _, ok := heads[key][branch]; !ok {
				ops = append(ops, core.HeadOp{Key: key, Branch: branch, Any: true})
			}
		}
	}
	return cursor, f.publish(ops)
}

// listHeads lists the primary's heads as of one feed cursor: the listing,
// overlaid with the feed entries from the cursor taken before it to the tip
// (later entries win; a zero New deletes).  truncated reports that the feed
// no longer holds the entries from that cursor on.
func (f *Follower) listHeads() (core.FeedCursor, map[string]map[string]hash.Hash, bool, error) {
	cursor, err := f.src.Seq()
	if err != nil {
		return cursor, nil, false, err
	}
	heads, err := f.src.Heads()
	if err != nil {
		return cursor, nil, false, err
	}
	for {
		entries, next, truncated, err := f.src.FeedSince(cursor, f.opts.BatchLimit, 0)
		if err != nil || truncated || len(entries) == 0 {
			return cursor, heads, truncated, err
		}
		for _, e := range entries {
			if e.New.IsZero() {
				delete(heads[e.Key], e.Branch)
				continue
			}
			if heads[e.Key] == nil {
				heads[e.Key] = make(map[string]hash.Hash)
			}
			heads[e.Key][e.Branch] = e.New
		}
		cursor = next
	}
}

// tailOnce reads one page of feed entries and applies it.  Within a page
// only the last entry per branch is applied — intermediate versions are
// skipped exactly as a briefly-lagging replica would skip them; their
// history chunks still arrive via the final head's base links.
func (f *Follower) tailOnce(cursor core.FeedCursor) (core.FeedCursor, bool, error) {
	entries, next, truncated, err := f.src.FeedSince(cursor, f.opts.BatchLimit, f.opts.Poll)
	if err != nil {
		return cursor, false, err
	}
	if truncated {
		return cursor, true, nil
	}
	if len(entries) == 0 {
		return cursor, false, nil
	}
	f.bump(func(s *Stats) { s.Rounds++ })
	type ref struct{ key, branch string }
	seen := make(map[ref]bool, len(entries))
	var ops []core.HeadOp
	for i := len(entries) - 1; i >= 0; i-- { // newest first: skip what a later entry supersedes
		if e := entries[i]; !seen[ref{e.Key, e.Branch}] {
			seen[ref{e.Key, e.Branch}] = true
			ops = append(ops, core.HeadOp{Key: e.Key, Branch: e.Branch, Any: true, Set: e.New})
		}
	}
	if err := f.publish(ops); err != nil {
		return cursor, false, err
	}
	return next, false, nil
}

// publish pulls the graph of every head ops sets in one walk, then makes all
// of ops local heads with one Apply: a replica shows a feed page, or a
// snapshot, whole or not at all — never part of a primary's batch.
func (f *Follower) publish(ops []core.HeadOp) error {
	var roots []hash.Hash
	for _, op := range ops {
		if !op.Set.IsZero() {
			roots = append(roots, op.Set)
		}
	}
	if err := f.sync.pull(roots); err != nil {
		return err
	}
	ok, err := f.heads.Apply(ops)
	if err == nil && !ok {
		err = errors.New("repl: the local branch table refused an Apply that expects any head")
	}
	if err != nil {
		return err
	}
	f.bump(func(s *Stats) {
		s.HeadsApplied += uint64(len(roots))
		s.BranchesDeleted += uint64(len(ops) - len(roots))
	})
	return nil
}
