package repl

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"forkbase/internal/chunk"
	"forkbase/internal/core"
	"forkbase/internal/hash"
	"forkbase/internal/pos"
	"forkbase/internal/store"
	"forkbase/internal/value"
)

// mkPrimary returns a primary engine pre-loaded with a map object.
func mkPrimary(t *testing.T, entries int) *core.DB {
	t.Helper()
	db := core.Open(core.Options{})
	if entries > 0 {
		if _, err := db.BuildAndPut("obj", "master", nil, func() (value.Value, error) {
			return value.NewMap(db.Store(), db.Chunking(), mapEntries(entries, 0))
		}); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

// mapEntries builds n entries; gen perturbs values so successive
// generations differ.
func mapEntries(n, gen int) []pos.Entry {
	out := make([]pos.Entry, n)
	for i := range out {
		out[i] = pos.Entry{
			Key: []byte(fmt.Sprintf("key-%06d", i)),
			Val: []byte(fmt.Sprintf("val-%d-%d", i, gen)),
		}
	}
	return out
}

// mkReplica returns a fresh local substrate and an engine reading it.
func mkReplica() (*core.DB, store.Store, core.BranchTable) {
	st := store.NewMemStore()
	bt := core.NewMemBranchTable()
	eng := core.Open(core.Options{Store: st, Branches: bt})
	return eng, eng.Store(), eng.BranchTable()
}

func startFollower(t *testing.T, primary *core.DB, opts Options) (*Follower, *core.DB) {
	t.Helper()
	eng, st, bt := mkReplica()
	f := NewFollower(NewLocalSource(primary), st, bt, opts)
	f.Start()
	t.Cleanup(func() { f.Close() })
	return f, eng
}

// requireConverged asserts the replica's branch heads are uid-identical to
// the primary's and that the replicated values actually decode.
func requireConverged(t *testing.T, primary, replica *core.DB) {
	t.Helper()
	keys, err := primary.ListKeys()
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range keys {
		pb, err := primary.BranchTable().Branches(key)
		if err != nil {
			t.Fatal(err)
		}
		rb, err := replica.BranchTable().Branches(key)
		if err != nil {
			t.Fatalf("replica missing key %s: %v", key, err)
		}
		if len(pb) != len(rb) {
			t.Fatalf("key %s: primary has %d branches, replica %d", key, len(pb), len(rb))
		}
		for branch, uid := range pb {
			if rb[branch] != uid {
				t.Fatalf("key %s@%s: primary %s, replica %s", key, branch, uid.Short(), rb[branch].Short())
			}
			// The head must be fully materialized: load and decode it.
			v, err := replica.GetVersion(key, uid)
			if err != nil {
				t.Fatalf("replica cannot read %s@%s: %v", key, branch, err)
			}
			if v.Value.Kind() == value.KindMap {
				tree, err := v.Value.MapTree(replica.Store(), replica.Chunking())
				if err != nil {
					t.Fatal(err)
				}
				// ComputeStats walks every chunk of the tree, proving the
				// replicated graph is complete and verified.
				if _, err := tree.ComputeStats(); err != nil {
					t.Fatalf("replica tree of %s@%s incomplete: %v", key, branch, err)
				}
			}
		}
	}
	rkeys, err := replica.ListKeys()
	if err != nil {
		t.Fatal(err)
	}
	if len(rkeys) != len(keys) {
		t.Fatalf("replica has %d keys, primary %d", len(rkeys), len(keys))
	}
}

func TestSnapshotCatchUp(t *testing.T) {
	primary := mkPrimary(t, 2000)
	if _, err := primary.Put("greeting", "master", value.String("hello"), nil); err != nil {
		t.Fatal(err)
	}
	if err := primary.Branch("obj", "dev", "master"); err != nil {
		t.Fatal(err)
	}
	f, replica := startFollower(t, primary, Options{Poll: 50 * time.Millisecond})
	if err := f.WaitCaughtUp(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	requireConverged(t, primary, replica)
	st := f.Stats()
	if st.Snapshots == 0 || st.HeadsApplied < 3 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestIncrementalTail(t *testing.T) {
	primary := mkPrimary(t, 2000)
	f, replica := startFollower(t, primary, Options{Poll: 50 * time.Millisecond})
	if err := f.WaitCaughtUp(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	base := f.Stats()

	// A stream of incremental commits: small edits, a new branch, a delete.
	for i := 0; i < 5; i++ {
		if _, err := primary.EditMap("obj", "master",
			[]pos.Entry{{Key: []byte(fmt.Sprintf("key-%06d", i)), Val: []byte(fmt.Sprintf("edited-%d", i))}},
			nil, nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := primary.Branch("obj", "exp", "master"); err != nil {
		t.Fatal(err)
	}
	if _, err := primary.Put("other", "master", value.String("x"), nil); err != nil {
		t.Fatal(err)
	}
	if err := primary.DeleteBranch("obj", "exp"); err != nil {
		t.Fatal(err)
	}
	if err := primary.RenameBranch("obj", "master", "main"); err != nil {
		t.Fatal(err)
	}
	if err := f.WaitCaughtUp(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	requireConverged(t, primary, replica)

	st := f.Stats()
	if st.BranchesDeleted == 0 {
		t.Fatalf("deletions did not propagate: %+v", st)
	}
	// Incremental rounds must have pruned shared structure: the edits touch
	// a handful of pages of a 2000-entry map.
	if st.ChunksSkipped <= base.ChunksSkipped {
		t.Fatalf("no Merkle pruning in incremental rounds: %+v", st)
	}
}

func TestDeltaSyncTransfersFractionOfFullCopy(t *testing.T) {
	primary := mkPrimary(t, 20000)
	f, _ := startFollower(t, primary, Options{Poll: 50 * time.Millisecond})
	if err := f.WaitCaughtUp(60 * time.Second); err != nil {
		t.Fatal(err)
	}
	cold := f.Stats().BytesFetched

	// A 0.5% edit over a contiguous key range (a hot partition): the
	// Merkle walk prunes every untouched subtree, so the transfer is the
	// touched leaf pages plus the index spine.
	puts := make([]pos.Entry, 100)
	for i := range puts {
		puts[i] = pos.Entry{Key: []byte(fmt.Sprintf("key-%06d", 10000+i)), Val: []byte("delta")}
	}
	if _, err := primary.EditMap("obj", "master", puts, nil, nil); err != nil {
		t.Fatal(err)
	}
	if err := f.WaitCaughtUp(60 * time.Second); err != nil {
		t.Fatal(err)
	}
	delta := f.Stats().BytesFetched - cold
	if delta == 0 {
		t.Fatal("delta sync fetched nothing")
	}
	if delta*10 > cold {
		t.Fatalf("delta sync fetched %d bytes vs %d cold — no real pruning", delta, cold)
	}
}

func TestReplicaServesReadsWhileSyncing(t *testing.T) {
	primary := mkPrimary(t, 5000)
	f, replica := startFollower(t, primary, Options{Poll: 20 * time.Millisecond})
	if err := f.WaitCaughtUp(30 * time.Second); err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	// Writer: continuous primary commits.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for gen := 1; ; gen++ {
			select {
			case <-stop:
				return
			default:
			}
			_, err := primary.EditMap("obj", "master",
				[]pos.Entry{{Key: []byte(fmt.Sprintf("key-%06d", gen%5000)), Val: []byte(fmt.Sprintf("gen-%d", gen))}},
				nil, nil)
			if err != nil {
				t.Errorf("primary edit: %v", err)
				return
			}
			time.Sleep(time.Millisecond)
		}
	}()
	// Readers: the replica must always serve a complete, verified version.
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				v, err := replica.Get("obj", "master")
				if err != nil {
					continue // briefly absent before first snapshot lands
				}
				tree, err := v.Value.MapTree(replica.Store(), replica.Chunking())
				if err != nil {
					t.Errorf("replica served incomplete head %s: %v", v.UID.Short(), err)
					return
				}
				if _, err := tree.Get([]byte("key-000001")); err != nil {
					t.Errorf("replica read through %s: %v", v.UID.Short(), err)
					return
				}
			}
		}()
	}
	time.Sleep(500 * time.Millisecond)
	close(stop)
	wg.Wait()
	if err := f.WaitCaughtUp(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	requireConverged(t, primary, replica)
}

// gatedSource pauses one GetChunks call (armed via arm) until released —
// the window in which the primary runs GC.
type gatedSource struct {
	Source
	mu      sync.Mutex
	calls   int
	pauseAt int           // 0 = disabled
	paused  chan struct{} // closed when the pause point is reached
	release chan struct{} // closed by the test to resume
	once    sync.Once
}

func (g *gatedSource) arm() {
	g.mu.Lock()
	g.pauseAt = g.calls + 1
	g.mu.Unlock()
}

func (g *gatedSource) GetChunks(ids []hash.Hash) ([]*chunk.Chunk, error) {
	g.mu.Lock()
	g.calls++
	hit := g.pauseAt != 0 && g.calls == g.pauseAt
	g.mu.Unlock()
	if hit {
		g.once.Do(func() { close(g.paused) })
		<-g.release
	}
	return g.Source.GetChunks(ids)
}

func TestPrimaryGCDuringInFlightSync(t *testing.T) {
	primary := mkPrimary(t, 2000)
	gated := &gatedSource{
		Source:  NewLocalSource(primary),
		paused:  make(chan struct{}),
		release: make(chan struct{}),
	}
	eng, st, bt := mkReplica()
	f := NewFollower(gated, st, bt, Options{Poll: 20 * time.Millisecond})
	f.Start()
	defer f.Close()
	if err := f.WaitCaughtUp(30 * time.Second); err != nil {
		t.Fatal(err)
	}

	// Publish a short-lived branch with distinct content; the follower will
	// start pulling it, and we pause it mid-walk.
	gated.arm()
	if _, err := primary.BuildAndPut("victim", "temp", nil, func() (value.Value, error) {
		return value.NewMap(primary.Store(), primary.Chunking(), mapEntries(3000, 7))
	}); err != nil {
		t.Fatal(err)
	}
	tempHead, err := primary.Head("victim", "temp")
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-gated.paused:
	case <-time.After(30 * time.Second):
		t.Fatal("follower never reached the pause point")
	}

	// Mid-pull: delete the branch and run a full GC.  The head's graph is
	// now garbage by reachability — only the replica's pin keeps it alive.
	if err := primary.DeleteBranch("victim", "temp"); err != nil {
		t.Fatal(err)
	}
	if _, err := primary.GC(); err != nil {
		t.Fatal(err)
	}
	if _, err := primary.GetVersion("victim", tempHead); err != nil {
		t.Fatalf("pinned in-flight head was collected: %v", err)
	}
	close(gated.release)

	// The follower finishes the pull, then applies the deletion; both sides
	// converge (victim gone), and no sync round failed.
	if err := f.WaitCaughtUp(60 * time.Second); err != nil {
		t.Fatal(err)
	}
	requireConverged(t, primary, eng)
	if eng.Exists("victim") {
		t.Fatal("replica kept the deleted branch")
	}
	st2 := f.Stats()
	if st2.LastError != "" || st2.Errors != 0 {
		t.Fatalf("follower hit errors during GC window: %+v", st2)
	}
	// After the replica releases its pin the next pass reclaims the graph.
	if _, err := primary.GC(); err != nil {
		t.Fatal(err)
	}
	if _, err := primary.GetVersion("victim", tempHead); err == nil {
		t.Fatal("unpinned garbage survived the follow-up GC")
	}
}

func TestFeedTruncationForcesSnapshot(t *testing.T) {
	// Tiny feed window: the replica misses entries while detached.
	primary := core.Open(core.Options{Branches: core.WithFeed(core.NewMemBranchTable(), core.NewFeed(4))})
	if _, err := primary.Put("a", "master", value.String("v1"), nil); err != nil {
		t.Fatal(err)
	}
	f, replica := startFollower(t, primary, Options{Poll: 20 * time.Millisecond})
	if err := f.WaitCaughtUp(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	f.Close() // detach

	// Far more movement than the window retains, including a deletion.
	for i := 0; i < 10; i++ {
		if _, err := primary.Put(fmt.Sprintf("k%d", i), "master", value.String("x"), nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := primary.DeleteBranch("a", "master"); err != nil {
		t.Fatal(err)
	}

	// Reattach a new follower over the same replica substrate.
	f2 := NewFollower(NewLocalSource(primary), replica.Store(), replica.BranchTable(), Options{Poll: 20 * time.Millisecond})
	// Seed its cursor path via a full run: Start consumes from zero, and the
	// replica's stale "a" branch must be dropped by the snapshot.
	f2.Start()
	defer f2.Close()
	if err := f2.WaitCaughtUp(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	requireConverged(t, primary, replica)
	if replica.Exists("a") {
		t.Fatal("replica kept a branch the primary deleted beyond the feed window")
	}
}

func TestPullResumesFromTornState(t *testing.T) {
	// Children land before parents, so the only torn state a died sync can
	// leave is "descendants present, ancestors missing".  Re-running from
	// that state must fetch exactly the missing ancestors and converge —
	// and a re-run over a complete store must fetch nothing at all.
	primary := mkPrimary(t, 3000)
	head, err := primary.Head("obj", "master")
	if err != nil {
		t.Fatal(err)
	}
	raw := store.NewMemStore()
	s := &syncer{src: NewLocalSource(primary), local: store.NewVerifyingStore(raw)}
	pull := func() uint64 {
		t.Helper()
		before := s.chunksFetched.Load()
		if err := s.pull([]hash.Hash{head}); err != nil {
			t.Fatal(err)
		}
		return s.chunksFetched.Load() - before
	}
	pull()
	// Simulate the torn state: drop the root (the FNode) and re-sync.
	raw.Delete(head)
	if chunks := pull(); chunks != 1 {
		t.Fatalf("resume fetched %d chunks, want exactly the torn root", chunks)
	}
	// Complete store: pure prune.
	if chunks := pull(); chunks != 0 {
		t.Fatalf("re-sync over complete store fetched %d chunks, want 0", chunks)
	}
}
