package repl

import (
	"errors"
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"
	"time"

	"forkbase/internal/chunk"
	"forkbase/internal/chunker"
	"forkbase/internal/core"
	"forkbase/internal/fnode"
	"forkbase/internal/hash"
	"forkbase/internal/index"
	"forkbase/internal/store"
	"forkbase/internal/value"
)

// countingSource counts a Source's chunk fetches and pins, and can slow
// every fetch down.  With landed shared with a landingStore, most records the
// largest number of chunks fetched but not yet landed.
type countingSource struct {
	Source
	delay          time.Duration
	failAt         int64 // the fetch round that fails, once (0: none)
	fetches        atomic.Int64
	pins, unpins   atomic.Int64
	fetched, most  atomic.Int64
	landed         *atomic.Int64
	firstFetchDone chan struct{}
}

func (s *countingSource) GetChunks(ids []hash.Hash) ([]*chunk.Chunk, error) {
	n := s.fetches.Add(1)
	if n == 1 && s.firstFetchDone != nil {
		close(s.firstFetchDone)
	}
	if n == s.failAt {
		return nil, errors.New("source unavailable")
	}
	time.Sleep(s.delay)
	out, err := s.Source.GetChunks(ids)
	got := s.fetched.Add(int64(len(out)))
	if s.landed != nil {
		if held := got - s.landed.Load(); held > s.most.Load() {
			s.most.Store(held)
		}
	}
	return out, err
}

func (s *countingSource) Pin(root hash.Hash) error {
	s.pins.Add(1)
	return s.Source.Pin(root)
}

func (s *countingSource) Unpin(root hash.Hash) error {
	s.unpins.Add(1)
	return s.Source.Unpin(root)
}

// landingStore counts the chunks put into it.
type landingStore struct {
	store.Store
	landed *atomic.Int64
}

func (s landingStore) PutBatch(cs []*chunk.Chunk) ([]bool, error) {
	fresh, err := s.Store.PutBatch(cs)
	s.landed.Add(int64(len(cs)))
	return fresh, err
}

// mkObjects fills db with n small map objects of versions versions each; the
// first collab objects get two collaborator branches, one commit each.
func mkObjects(tb testing.TB, db *core.DB, n, versions, collab int) {
	tb.Helper()
	put := func(key, branch string, gen int) {
		rows := make([]index.Entry, 8)
		for i := range rows {
			rows[i] = index.Entry{Key: []byte(fmt.Sprintf("row-%d", i)), Val: []byte(fmt.Sprintf("%s-%s-%d-%d", key, branch, i, gen))}
		}
		if _, err := db.BuildAndPut(key, branch, nil, func() (value.Value, error) { return db.NewMapValue(rows) }); err != nil {
			tb.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		key := fmt.Sprintf("obj-%04d", i)
		for gen := 0; gen < versions; gen++ {
			put(key, "master", gen)
		}
		for c := 0; i < collab && c < 2; c++ {
			branch := fmt.Sprintf("collab-%d", c)
			if err := db.Branch(key, branch, "master"); err != nil {
				tb.Fatal(err)
			}
			put(key, branch, versions)
		}
	}
}

// depth is the number of chunks on the longest path down from id.
func depth(t *testing.T, st store.Store, id hash.Hash, memo map[hash.Hash]int) int {
	t.Helper()
	if d, ok := memo[id]; ok || id.IsZero() {
		return d
	}
	c, err := st.Get(id)
	if err != nil {
		t.Fatal(err)
	}
	refs, err := fnode.Refs(c)
	if err != nil {
		t.Fatal(err)
	}
	d := 0
	for _, r := range refs {
		d = max(d, depth(t, st, r, memo))
	}
	memo[id] = d + 1
	return d + 1
}

// heads lists every branch head of db, with the closure and the depth of
// the graph under them.
func heads(t *testing.T, db *core.DB) (roots []hash.Hash, closed, deepest int) {
	t.Helper()
	keys, err := db.ListKeys()
	if err != nil {
		t.Fatal(err)
	}
	all, memo := map[hash.Hash]bool{}, map[hash.Hash]int{}
	for _, k := range keys {
		branches, err := db.BranchTable().Branches(k)
		if err != nil {
			t.Fatal(err)
		}
		for _, uid := range branches {
			roots = append(roots, uid)
			reach(t, db.RawStore(), uid, hash.Hash{}, all)
			deepest = max(deepest, depth(t, db.RawStore(), uid, memo))
		}
	}
	return roots, len(all), deepest
}

// TestSnapshotFetchRoundsFollowDepth: a cold snapshot of many small objects
// pulls every head in one walk, so its GetChunks rounds follow the graph's
// depth and its size, not the number of heads (pulled one by one, they
// would be about heads × depth).
func TestSnapshotFetchRoundsFollowDepth(t *testing.T) {
	primary := core.Open(core.Options{})
	mkObjects(t, primary, 300, 4, 30)
	roots, closed, deepest := heads(t, primary)
	src := &countingSource{Source: NewLocalSource(primary)}
	eng, st, bt := mkReplica()
	f := NewFollower(src, st, bt, Options{Poll: 10 * time.Millisecond})
	f.Start()
	defer f.Close()
	if err := f.WaitCaughtUp(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	requireConverged(t, primary, eng)
	bound := (closed+fnode.WalkBatch-1)/fnode.WalkBatch + 2*deepest
	if got := src.fetches.Load(); got > int64(bound) {
		t.Fatalf("%d heads, %d chunks %d deep took %d fetch rounds, want at most %d", len(roots), closed, deepest, got, bound)
	}
	if got := f.Stats().ChunksFetched; got != uint64(closed) {
		t.Fatalf("fetched %d chunks, the closure has %d", got, closed)
	}
}

// TestPullHoldsBoundedChunks: a cold pull lands chunks as the walk finishes
// them, so what it holds at once is bounded by the graph's depth times a
// batch, not by the closure.
func TestPullHoldsBoundedChunks(t *testing.T) {
	primary := core.Open(core.Options{Chunking: chunker.SmallConfig()})
	entries := mapEntries(50000, 0)
	for i := range entries {
		entries[i].Val = append(entries[i].Val, make([]byte, 96)...)
	}
	if _, err := primary.BuildAndPut("obj", "master", nil, func() (value.Value, error) {
		return value.NewMap(primary.Store(), primary.Chunking(), entries)
	}); err != nil {
		t.Fatal(err)
	}
	for gen := 1; gen <= 3; gen++ {
		puts := mapEntries(8, gen)
		for i := range puts {
			puts[i].Key = []byte(fmt.Sprintf("key-%06d", gen*9973+i))
		}
		if _, err := primary.EditMap("obj", "master", puts, nil, nil); err != nil {
			t.Fatal(err)
		}
	}
	_, closed, deepest := heads(t, primary)
	var landed atomic.Int64
	src := &countingSource{Source: NewLocalSource(primary), landed: &landed}
	eng, st, bt := mkReplica()
	f := NewFollower(src, landingStore{Store: st, landed: &landed}, bt, Options{Poll: 10 * time.Millisecond})
	f.Start()
	defer f.Close()
	if err := f.WaitCaughtUp(time.Minute); err != nil {
		t.Fatal(err)
	}
	requireConverged(t, primary, eng)
	if most, bound := src.most.Load(), int64(deepest*fnode.WalkBatch); most > bound || 4*most > int64(closed) {
		t.Fatalf("held up to %d chunks at once of a %d-chunk closure %d deep; want at most %d", most, closed, deepest, bound)
	}
}

// TestFailedRoundResumesFromWhatLanded: a fetch that fails mid-walk fails
// the round; the round backoff retries it, and the next pull prunes what the
// failed one landed, so it refetches at most what that walk held — not the
// half of the closure it had already pulled.
func TestFailedRoundResumesFromWhatLanded(t *testing.T) {
	primary := core.Open(core.Options{Chunking: chunker.SmallConfig()})
	entries := mapEntries(20000, 0)
	for i := range entries {
		entries[i].Val = append(entries[i].Val, make([]byte, 96)...)
	}
	if _, err := primary.BuildAndPut("obj", "master", nil, func() (value.Value, error) {
		return value.NewMap(primary.Store(), primary.Chunking(), entries)
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := primary.EditMap("obj", "master", mapEntries(8, 1), nil, nil); err != nil {
		t.Fatal(err)
	}
	_, closed, deepest := heads(t, primary)
	src := &countingSource{Source: NewLocalSource(primary), failAt: int64(max(2, closed/fnode.WalkBatch/2))}
	eng, st, bt := mkReplica()
	f := NewFollower(src, st, bt, Options{Poll: 10 * time.Millisecond, RetryMin: time.Millisecond, RetryMax: 10 * time.Millisecond})
	f.Start()
	defer f.Close()
	if err := f.WaitCaughtUp(time.Minute); err != nil {
		t.Fatal(err)
	}
	requireConverged(t, primary, eng)
	if n := f.Stats().Errors; n != 1 {
		t.Fatalf("%d failed rounds, want the one failed fetch's", n)
	}
	if got, bound := f.Stats().ChunksFetched, uint64(closed+deepest*fnode.WalkBatch); got > bound {
		t.Fatalf("fetched %d chunks for a %d-chunk closure %d deep; want at most %d", got, closed, deepest, bound)
	}
}

// TestCloseDuringSnapshot: Close interrupts a snapshot between two fetch
// batches, and publishes no head of it.
func TestCloseDuringSnapshot(t *testing.T) {
	primary := core.Open(core.Options{})
	mkObjects(t, primary, 40, 30, 0)
	src := &countingSource{Source: NewLocalSource(primary), delay: 20 * time.Millisecond, firstFetchDone: make(chan struct{})}
	_, st, bt := mkReplica()
	f := NewFollower(src, st, bt, Options{Poll: 10 * time.Millisecond})
	f.Start()
	<-src.firstFetchDone
	start := time.Now()
	f.Close()
	if took := time.Since(start); took > 500*time.Millisecond {
		t.Fatalf("Close took %v during a snapshot", took)
	}
	if keys, _ := bt.Keys(); len(keys) != 0 || f.Stats().HeadsApplied != 0 {
		t.Fatalf("a closed snapshot published %d keys, %d heads", len(keys), f.Stats().HeadsApplied)
	}
	if n := src.fetches.Load(); n > 3 {
		t.Fatalf("the snapshot went on for %d fetch rounds after Close", n)
	}
}

// TestPullRefreshesPins: a pull that outlives repinAfter pins each root
// again (Pin, then Unpin: the count stays, the deadline moves), and releases
// every pin it took.
func TestPullRefreshesPins(t *testing.T) {
	defer func(d time.Duration) { repinAfter = d }(repinAfter)
	repinAfter = 0
	primary := core.Open(core.Options{})
	mkObjects(t, primary, 20, 3, 0)
	roots, _, _ := heads(t, primary)
	src := &countingSource{Source: NewLocalSource(primary)}
	_, st, _ := mkReplica()
	s := &syncer{src: src, local: st}
	if err := s.pull(roots); err != nil {
		t.Fatal(err)
	}
	pins, unpins, rounds := src.pins.Load(), src.unpins.Load(), src.fetches.Load()
	if want := int64(len(roots)) * (1 + rounds); pins != want || unpins != pins {
		t.Fatalf("%d roots over %d rounds: %d pins, %d unpins, want %d of each", len(roots), rounds, pins, unpins, want)
	}
	if left := primary.Feed().PinnedHeads(); len(left) != 0 {
		t.Fatalf("%d pins left after the pull", len(left))
	}
}

// BenchmarkFollowerSnapshot times a fresh follower's cold catch-up: one
// object with a long history of small commits on a file-backed primary, and
// many small objects with collaborator branches.
func BenchmarkFollowerSnapshot(b *testing.B) {
	oneObject := func(b *testing.B) *core.DB {
		fs, err := store.OpenFileStore(b.TempDir())
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { fs.Close() })
		db := core.Open(core.Options{Store: fs})
		rng := rand.New(rand.NewSource(1))
		entries := mapEntries(40000, 0)
		for i := range entries {
			pad := make([]byte, 80)
			rng.Read(pad)
			entries[i].Val = append(entries[i].Val, pad...)
		}
		if _, err := db.BuildAndPut("obj", "master", nil, func() (value.Value, error) {
			return value.NewMap(db.Store(), db.Chunking(), entries)
		}); err != nil {
			b.Fatal(err)
		}
		for gen := 1; gen <= 300; gen++ {
			puts := mapEntries(8, gen)
			for i := range puts {
				puts[i].Key = []byte(fmt.Sprintf("key-%06d", (gen*7919)%39992+i))
			}
			if _, err := db.EditMap("obj", "master", puts, nil, nil); err != nil {
				b.Fatal(err)
			}
		}
		return db
	}
	manyObjects := func(b *testing.B) *core.DB {
		db := core.Open(core.Options{})
		mkObjects(b, db, 1000, 2, 100)
		return db
	}
	for _, bc := range []struct {
		name string
		mk   func(*testing.B) *core.DB
	}{{"one-object", oneObject}, {"many-objects", manyObjects}} {
		b.Run(bc.name, func(b *testing.B) {
			primary := bc.mk(b)
			b.ReportAllocs()
			b.ResetTimer()
			var bytes, rounds int64
			for i := 0; i < b.N; i++ {
				src := &countingSource{Source: NewLocalSource(primary)}
				_, st, bt := mkReplica()
				f := NewFollower(src, st, bt, Options{Poll: 10 * time.Millisecond})
				f.Start()
				if err := f.WaitCaughtUp(time.Minute); err != nil {
					b.Fatal(err)
				}
				f.Close()
				bytes, rounds = int64(f.Stats().BytesFetched), src.fetches.Load()
			}
			b.SetBytes(bytes)
			b.ReportMetric(float64(rounds), "rounds/op")
		})
	}
}
