package core

import (
	"bytes"
	"errors"
	"fmt"
	"log/slog"
	"strings"
	"sync"
	"testing"
	"time"

	"forkbase/internal/chunk"
	"forkbase/internal/chunker"
	"forkbase/internal/fnode"
	"forkbase/internal/hash"
	"forkbase/internal/index"
	"forkbase/internal/obs"
	"forkbase/internal/store"
	"forkbase/internal/value"
)

// seedHistory gives key n versions on master, each rewriting one
// fixed-width row, so the value's shape is the same at any depth.
func seedHistory(tb testing.TB, db *DB, key string, n int) {
	tb.Helper()
	for i := 0; i < n; i++ {
		row := []index.Entry{{Key: []byte("seed"), Val: []byte(fmt.Sprintf("%08d", i))}}
		var err error
		if i == 0 {
			var v value.Value
			if v, err = db.NewMapValue(row); err == nil {
				_, err = db.Put(key, "", v, nil)
			}
		} else {
			_, err = db.EditMap(key, "", row, nil, nil)
		}
		if err != nil {
			tb.Fatal(err)
		}
	}
}

// diverge forks branch fork off master and commits two rows on each side,
// one commit per row, so the merge base is two commits behind both heads.
func diverge(tb testing.TB, db *DB, key, fork string) {
	tb.Helper()
	if err := db.Branch(key, fork, ""); err != nil {
		tb.Fatal(err)
	}
	for _, branch := range []string{fork, DefaultBranch} {
		for r := 0; r < 2; r++ {
			row := []index.Entry{{Key: []byte(fmt.Sprintf("%s-%s-%d", fork, branch, r)), Val: []byte("v")}}
			if _, err := db.EditMap(key, branch, row, nil, nil); err != nil {
				tb.Fatal(err)
			}
		}
	}
}

// TestMergeReadsIndependentOfHistory: a merge costs the distance to its
// base, so merging a branch two commits from its base issues the same
// number of store reads over 64 and over 1,024 versions of history.
func TestMergeReadsIndependentOfHistory(t *testing.T) {
	gets := func(versions int) int64 {
		db := newTestDB()
		seedHistory(t, db, "t", versions)
		diverge(t, db, "t", "fork")
		before := db.RawStore().Stats().Gets
		res, err := db.Merge("t", "", "fork", nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if res.FastForward || len(res.Version.Bases) != 2 {
			t.Fatalf("%d versions: want a merge commit, got %+v", versions, res)
		}
		return db.RawStore().Stats().Gets - before
	}
	short, long := gets(64), gets(1024)
	if short != long {
		t.Fatalf("merge read %d chunks over 64 versions, %d over 1024", short, long)
	}
}

// idGets counts store reads per id; a merge's index diffs read concurrently.
type idGets struct {
	store.Store
	mu   sync.Mutex
	gets map[hash.Hash]int
}

func (g *idGets) Get(id hash.Hash) (*chunk.Chunk, error) {
	g.mu.Lock()
	g.gets[id]++
	g.mu.Unlock()
	return g.Store.Get(id)
}

// TestMergeLoadsEachVersionOnce: the base walk hands Merge the FNodes of
// both heads and the base, so none of them is read a second time.
func TestMergeLoadsEachVersionOnce(t *testing.T) {
	st := &idGets{Store: store.NewMemStore(), gets: map[hash.Hash]int{}}
	db := Open(Options{Store: st, Chunking: chunker.SmallConfig()})
	seedHistory(t, db, "t", 8)
	base, _ := db.Head("t", "")
	diverge(t, db, "t", "fork")
	dst, _ := db.Head("t", "")
	src, _ := db.Head("t", "fork")
	clear(st.gets)
	if _, err := db.Merge("t", "", "fork", nil, nil); err != nil {
		t.Fatal(err)
	}
	for name, uid := range map[string]hash.Hash{"dst": dst, "src": src, "base": base} {
		if n := st.gets[uid]; n != 1 {
			t.Errorf("%s FNode read %d times during the merge, want 1", name, n)
		}
	}
}

// forgeHead publishes on branch a version of key whose Seq is not above
// its base's — what an honest writer never produces — and returns its uid.
func forgeHead(t *testing.T, db *DB, key, branch string, base Version, seq uint64) hash.Hash {
	t.Helper()
	uid, err := fnode.New([]byte(key), value.String("forged"), []hash.Hash{base.UID}, seq, nil).Save(db.Store())
	if err != nil {
		t.Fatal(err)
	}
	old, _ := db.Head(key, branch)
	if ok, err := db.BranchTable().CompareAndSet(key, branch, old, uid); err != nil || !ok {
		t.Fatalf("installing the forged head: %v %v", ok, err)
	}
	return uid
}

// TestMergeRejectsSeqDisorder: a history whose Seq order is broken would
// mislead the base walk, so Merge fails as tampered and moves no head.
func TestMergeRejectsSeqDisorder(t *testing.T) {
	db := newTestDB()
	var head Version
	for i := 0; i < 2; i++ {
		var err error
		if head, err = db.Put("k", "", value.String(fmt.Sprint(i)), nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Branch("k", "dev", ""); err != nil {
		t.Fatal(err)
	}
	// dev's head claims the Seq of its base; master moves on, so the walk
	// must expand the forged head to find the base.
	forgeHead(t, db, "k", "dev", head, head.Seq)
	head, err := db.Put("k", "", value.String("2"), nil)
	if err != nil {
		t.Fatal(err)
	}
	_, err = db.Merge("k", "", "dev", nil, nil)
	if !errors.Is(err, ErrTampered) || !errors.Is(err, fnode.ErrSeqOrder) {
		t.Fatalf("merge over a Seq-disordered history: %v", err)
	}
	if now, _ := db.Head("k", ""); now != head.UID {
		t.Fatal("a failed merge moved the head")
	}
}

// TestVerifyDeepChecksSeqOrder: a deep verify reports a version whose Seq
// is not above its base's as one failure, whichever end of the edge the
// walk reaches first; a shallow verify does not look.
func TestVerifyDeepChecksSeqOrder(t *testing.T) {
	db := newTestDB()
	v1, err := db.Put("k", "", value.String("one"), nil)
	if err != nil {
		t.Fatal(err)
	}
	// Child first: the forged head is fetched a level above its base.
	forged := forgeHead(t, db, "k", DefaultBranch, v1, v1.Seq)
	if _, err := db.VerifyVersion("k", forged, false); err != nil {
		t.Fatalf("shallow verify: %v", err)
	}
	rep, err := db.VerifyVersion("k", forged, true)
	if !errors.Is(err, ErrTampered) || len(rep.Failures) != 1 || rep.Failures[0].ChunkID != forged ||
		!errors.Is(rep.Failures[0].Err, fnode.ErrSeqOrder) {
		t.Fatalf("deep verify, child first: err=%v report=%+v", err, rep)
	}
	// Base first: a merge names the base directly and through the forged
	// child, so the base is fetched before the child that is wrong about it.
	if _, err := db.Put("k2", "", value.String("one"), nil); err != nil {
		t.Fatal(err)
	}
	high, err := db.Put("k2", "", value.String("high"), nil)
	if err != nil {
		t.Fatal(err)
	}
	low, err := fnode.New([]byte("k2"), value.String("low"), []hash.Hash{high.UID}, high.Seq, nil).Save(db.Store())
	if err != nil {
		t.Fatal(err)
	}
	merge, err := fnode.New([]byte("k2"), value.String("m"), []hash.Hash{high.UID, low}, high.Seq+1, nil).Save(db.Store())
	if err != nil {
		t.Fatal(err)
	}
	rep, err = db.VerifyVersion("k2", merge, true)
	if !errors.Is(err, ErrTampered) || len(rep.Failures) != 1 || rep.Failures[0].ChunkID != low ||
		!errors.Is(rep.Failures[0].Err, fnode.ErrSeqOrder) {
		t.Fatalf("deep verify, base first: err=%v report=%+v", err, rep)
	}
	if _, err := db.VerifyVersion("k2", high.UID, true); err != nil {
		t.Fatalf("honest history: %v", err)
	}
}

// TestMergeReportsAncestryNodes: the merge's slow-op record and the
// ancestry counter both carry the number of FNodes the base walk loaded.
func TestMergeReportsAncestryNodes(t *testing.T) {
	reg := obs.NewRegistry()
	var logs bytes.Buffer
	db := Open(Options{
		Chunking: chunker.SmallConfig(), Metrics: reg,
		Logger: slog.New(slog.NewJSONHandler(&logs, nil)), SlowOp: time.Nanosecond,
	})
	seedHistory(t, db, "t", 16)
	diverge(t, db, "t", "fork")
	dst, _ := db.Head("t", "")
	src, _ := db.Head("t", "fork")
	want, err := fnode.MergeBase(db.Store(), dst, src)
	if err != nil {
		t.Fatal(err)
	}
	logs.Reset()
	if _, err := db.Merge("t", "", "fork", nil, nil); err != nil {
		t.Fatal(err)
	}
	if got, _ := reg.Value("forkbase_engine_merge_ancestry_nodes_total"); got != float64(want.Loaded) {
		t.Fatalf("ancestry counter = %v, the walk loaded %d", got, want.Loaded)
	}
	if field := fmt.Sprintf(`"ancestry_nodes":%d`, want.Loaded); !strings.Contains(logs.String(), field) {
		t.Fatalf("slow-op log lacks %s:\n%s", field, logs.String())
	}
}

// BenchmarkMergeHistory merges a fresh fork two commits from its base into
// master over histories of different depth: the time per merge should not
// depend on the depth.
func BenchmarkMergeHistory(b *testing.B) {
	for _, versions := range []int{64, 1024} {
		b.Run(fmt.Sprintf("versions=%d", versions), func(b *testing.B) {
			db := Open(Options{Chunking: chunker.SmallConfig(), Metrics: obs.Discard})
			seedHistory(b, db, "t", versions)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				fork := fmt.Sprintf("fork-%d", i)
				diverge(b, db, "t", fork)
				if _, err := db.Merge("t", "", fork, nil, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
