package pos

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"forkbase/internal/chunker"
	"forkbase/internal/index"
	"forkbase/internal/store"
)

// testCfg yields small nodes so even modest inputs exercise multi-level trees.
func testCfg() chunker.Config {
	return chunker.Config{Q: 6, Window: 16, MinSize: 8, MaxSize: 1 << 12}
}

func genEntries(n int, seed int64) []Entry {
	rng := rand.New(rand.NewSource(seed))
	out := make([]Entry, n)
	for i := range out {
		out[i] = Entry{
			Key: []byte(fmt.Sprintf("key-%08d", i)),
			Val: []byte(fmt.Sprintf("val-%d-%d", i, rng.Intn(1<<20))),
		}
	}
	return out
}

func mustBuild(t *testing.T, st store.Store, entries []Entry) *Tree {
	t.Helper()
	tree, err := BuildMap(st, testCfg(), entries)
	if err != nil {
		t.Fatalf("BuildMap: %v", err)
	}
	return tree
}

func TestBuildEmpty(t *testing.T) {
	st := store.NewMemStore()
	tree := mustBuild(t, st, nil)
	if !tree.Root().IsZero() {
		t.Fatalf("empty tree root = %s, want zero", tree.Root())
	}
	if tree.Len() != 0 {
		t.Fatalf("empty tree len = %d", tree.Len())
	}
	if _, err := tree.Get([]byte("x")); !errors.Is(err, index.ErrKeyNotFound) {
		t.Fatalf("Get on empty = %v, want ErrKeyNotFound", err)
	}
}

func TestBuildAndGet(t *testing.T) {
	for _, n := range []int{1, 2, 10, 100, 1000, 5000} {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			st := store.NewMemStore()
			entries := genEntries(n, 42)
			tree := mustBuild(t, st, entries)
			if got := tree.Len(); got != uint64(n) {
				t.Fatalf("Len = %d, want %d", got, n)
			}
			for _, e := range entries {
				v, err := tree.Get(e.Key)
				if err != nil {
					t.Fatalf("Get(%q): %v", e.Key, err)
				}
				if !bytes.Equal(v, e.Val) {
					t.Fatalf("Get(%q) = %q, want %q", e.Key, v, e.Val)
				}
			}
			if _, err := tree.Get([]byte("absent")); !errors.Is(err, index.ErrKeyNotFound) {
				t.Fatalf("absent key err = %v", err)
			}
			if _, err := tree.Get([]byte("zzzz-beyond-max")); !errors.Is(err, index.ErrKeyNotFound) {
				t.Fatalf("beyond-max key err = %v", err)
			}
		})
	}
}

func TestBuildDeterministicAcrossInsertionOrder(t *testing.T) {
	st := store.NewMemStore()
	entries := genEntries(2000, 7)
	want := mustBuild(t, st, entries)

	for trial := 0; trial < 5; trial++ {
		shuffled := make([]Entry, len(entries))
		copy(shuffled, entries)
		rng := rand.New(rand.NewSource(int64(trial)))
		rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		got := mustBuild(t, st, shuffled)
		if got.Root() != want.Root() {
			t.Fatalf("trial %d: shuffled build root %s != %s", trial, got.Root().Short(), want.Root().Short())
		}
	}
}

func TestBuildDuplicateKeysLastWins(t *testing.T) {
	st := store.NewMemStore()
	entries := []Entry{
		{Key: []byte("a"), Val: []byte("1")},
		{Key: []byte("b"), Val: []byte("2")},
		{Key: []byte("a"), Val: []byte("3")},
	}
	tree := mustBuild(t, st, entries)
	if tree.Len() != 2 {
		t.Fatalf("Len = %d, want 2", tree.Len())
	}
	v, err := tree.Get([]byte("a"))
	if err != nil || string(v) != "3" {
		t.Fatalf("Get(a) = %q, %v; want 3", v, err)
	}
}

func TestIterOrderAndCompleteness(t *testing.T) {
	st := store.NewMemStore()
	entries := genEntries(3000, 9)
	tree := mustBuild(t, st, entries)
	it, err := tree.Iter()
	if err != nil {
		t.Fatal(err)
	}
	i := 0
	var prev []byte
	for it.Next() {
		e := it.Entry()
		if prev != nil && bytes.Compare(prev, e.Key) >= 0 {
			t.Fatalf("iterator out of order at %d: %q after %q", i, e.Key, prev)
		}
		if !bytes.Equal(e.Key, entries[i].Key) || !bytes.Equal(e.Val, entries[i].Val) {
			t.Fatalf("entry %d = %q/%q, want %q/%q", i, e.Key, e.Val, entries[i].Key, entries[i].Val)
		}
		prev = append(prev[:0], e.Key...)
		i++
	}
	if err := it.Err(); err != nil {
		t.Fatal(err)
	}
	if i != len(entries) {
		t.Fatalf("iterated %d entries, want %d", i, len(entries))
	}
}

func TestIterFrom(t *testing.T) {
	st := store.NewMemStore()
	entries := genEntries(1000, 3)
	tree := mustBuild(t, st, entries)
	for _, start := range []int{0, 1, 499, 998, 999} {
		it, err := tree.IterFrom(entries[start].Key)
		if err != nil {
			t.Fatal(err)
		}
		i := start
		for it.Next() {
			if !bytes.Equal(it.Entry().Key, entries[i].Key) {
				t.Fatalf("IterFrom(%d): entry %q, want %q", start, it.Entry().Key, entries[i].Key)
			}
			i++
		}
		if i != len(entries) {
			t.Fatalf("IterFrom(%d) yielded %d entries, want %d", start, i-start, len(entries)-start)
		}
	}
	// Seek between keys and past the end.
	it, err := tree.IterFrom([]byte("key-00000499x"))
	if err != nil {
		t.Fatal(err)
	}
	if !it.Next() || !bytes.Equal(it.Entry().Key, entries[500].Key) {
		t.Fatalf("between-keys seek landed on %q", it.Entry().Key)
	}
	it, err = tree.IterFrom([]byte("zzz"))
	if err != nil {
		t.Fatal(err)
	}
	if it.Next() {
		t.Fatalf("past-the-end seek yielded %q", it.Entry().Key)
	}
}

func TestLoadTreeRoundTrip(t *testing.T) {
	st := store.NewMemStore()
	entries := genEntries(500, 5)
	tree := mustBuild(t, st, entries)
	loaded, err := LoadTree(st, testCfg(), tree.Root())
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Len() != tree.Len() {
		t.Fatalf("loaded len %d != %d", loaded.Len(), tree.Len())
	}
	v, err := loaded.Get(entries[123].Key)
	if err != nil || !bytes.Equal(v, entries[123].Val) {
		t.Fatalf("loaded Get = %q, %v", v, err)
	}
}

func TestComputeStats(t *testing.T) {
	st := store.NewMemStore()
	entries := genEntries(4000, 11)
	tree := mustBuild(t, st, entries)
	stats, err := tree.ComputeStats()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Entries != 4000 {
		t.Fatalf("stats entries %d", stats.Entries)
	}
	if stats.Height < 2 {
		t.Fatalf("expected multi-level tree, height=%d", stats.Height)
	}
	if stats.LeafNodes+stats.IndexNodes != stats.Nodes {
		t.Fatalf("node accounting mismatch: %+v", stats)
	}
	if stats.MaxNode > testCfg().MaxSize*4 {
		t.Fatalf("node exceeds max-size guard: %d", stats.MaxNode)
	}
	// Expected node size ~2^Q; allow generous slack but ensure it is not
	// wildly off (which would indicate broken pattern detection).
	avg := stats.AvgLeaf()
	if avg < 16 || avg > 4096 {
		t.Fatalf("suspicious average leaf size %.1f for Q=6", avg)
	}
}

// TestStructuralInvarianceViaEditPaths is the central SIRI property: the
// same record set must yield the same root no matter how it was reached.
func TestStructuralInvarianceViaEditPaths(t *testing.T) {
	st := store.NewMemStore()
	entries := genEntries(1500, 21)

	// Path 1: bulk build.
	bulk := mustBuild(t, st, entries)

	// Path 2: build half, then Edit in the rest in shuffled batches.
	half := mustBuild(t, st, entries[:750])
	rest := make([]Entry, len(entries)-750)
	copy(rest, entries[750:])
	rng := rand.New(rand.NewSource(99))
	rng.Shuffle(len(rest), func(i, j int) { rest[i], rest[j] = rest[j], rest[i] })
	cur := half
	for i := 0; i < len(rest); i += 100 {
		end := i + 100
		if end > len(rest) {
			end = len(rest)
		}
		ops := make([]Op, 0, end-i)
		for _, e := range rest[i:end] {
			ops = append(ops, Put(e.Key, e.Val))
		}
		var err error
		cur, err = cur.Edit(ops)
		if err != nil {
			t.Fatalf("Edit: %v", err)
		}
	}
	if cur.Root() != bulk.Root() {
		t.Fatalf("edit path root %s != bulk root %s", cur.Root().Short(), bulk.Root().Short())
	}

	// Path 3: build everything plus junk, then delete the junk.
	withJunk := make([]Entry, 0, len(entries)+100)
	withJunk = append(withJunk, entries...)
	var junkOps []Op
	for i := 0; i < 100; i++ {
		k := []byte(fmt.Sprintf("junk-%04d", i))
		withJunk = append(withJunk, Entry{Key: k, Val: []byte("x")})
		junkOps = append(junkOps, Del(k))
	}
	jt := mustBuild(t, st, withJunk)
	cleaned, err := jt.Edit(junkOps)
	if err != nil {
		t.Fatal(err)
	}
	if cleaned.Root() != bulk.Root() {
		t.Fatalf("delete path root %s != bulk root %s", cleaned.Root().Short(), bulk.Root().Short())
	}
}

func TestEditMatchesRebuildRandomized(t *testing.T) {
	st := store.NewMemStore()
	rng := rand.New(rand.NewSource(123))
	entries := genEntries(800, 55)
	tree := mustBuild(t, st, entries)
	model := map[string]string{}
	for _, e := range entries {
		model[string(e.Key)] = string(e.Val)
	}

	for round := 0; round < 30; round++ {
		nops := 1 + rng.Intn(40)
		ops := make([]Op, 0, nops)
		for i := 0; i < nops; i++ {
			switch rng.Intn(4) {
			case 0: // update existing
				k := fmt.Sprintf("key-%08d", rng.Intn(800))
				ops = append(ops, Put([]byte(k), []byte(fmt.Sprintf("upd-%d-%d", round, i))))
			case 1: // insert new
				k := fmt.Sprintf("new-%d-%d", round, rng.Intn(1000))
				ops = append(ops, Put([]byte(k), []byte("inserted")))
			case 2: // delete existing
				k := fmt.Sprintf("key-%08d", rng.Intn(800))
				ops = append(ops, Del([]byte(k)))
			default: // delete absent
				ops = append(ops, Del([]byte(fmt.Sprintf("ghost-%d", rng.Intn(1000)))))
			}
		}
		inc, err := tree.Edit(ops)
		if err != nil {
			t.Fatalf("round %d Edit: %v", round, err)
		}
		reb, err := tree.EditRebuild(ops)
		if err != nil {
			t.Fatalf("round %d EditRebuild: %v", round, err)
		}
		if inc.Root() != reb.Root() {
			t.Fatalf("round %d: incremental root %s != rebuild root %s",
				round, inc.Root().Short(), reb.Root().Short())
		}
		if inc.Len() != reb.Len() {
			t.Fatalf("round %d: len %d != %d", round, inc.Len(), reb.Len())
		}
		// Update the model and verify content.
		for _, o := range lastPerKey(ops, opKey) {
			if o.Delete {
				delete(model, string(o.Key))
			} else {
				model[string(o.Key)] = string(o.Val)
			}
		}
		if uint64(len(model)) != inc.Len() {
			t.Fatalf("round %d: model size %d != tree len %d", round, len(model), inc.Len())
		}
		tree = inc
	}
	// Final full-content check against the model.
	got, err := tree.Entries()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(model) {
		t.Fatalf("final entries %d != model %d", len(got), len(model))
	}
	for _, e := range got {
		if model[string(e.Key)] != string(e.Val) {
			t.Fatalf("final mismatch at %q: %q != %q", e.Key, e.Val, model[string(e.Key)])
		}
	}

	// The same three-way equivalence on batches built from the trees'
	// physical layout, on both page sizes.
	t.Run("shapes", testEditShapes)
}

func TestEditEdgeCases(t *testing.T) {
	st := store.NewMemStore()
	entries := genEntries(300, 17)
	tree := mustBuild(t, st, entries)

	t.Run("empty batch", func(t *testing.T) {
		got, err := tree.Edit(nil)
		if err != nil || got.Root() != tree.Root() {
			t.Fatalf("empty edit changed tree: %v", err)
		}
	})
	t.Run("identity put", func(t *testing.T) {
		got, err := tree.Edit([]Op{Put(entries[50].Key, entries[50].Val)})
		if err != nil {
			t.Fatal(err)
		}
		if got.Root() != tree.Root() {
			t.Fatalf("identity put changed root")
		}
	})
	t.Run("delete absent", func(t *testing.T) {
		got, err := tree.Edit([]Op{Del([]byte("nope"))})
		if err != nil || got.Root() != tree.Root() {
			t.Fatalf("deleting absent key changed tree: %v", err)
		}
	})
	t.Run("delete everything", func(t *testing.T) {
		ops := make([]Op, len(entries))
		for i, e := range entries {
			ops[i] = Del(e.Key)
		}
		got, err := tree.Edit(ops)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Root().IsZero() || got.Len() != 0 {
			t.Fatalf("delete-all left root=%s len=%d", got.Root().Short(), got.Len())
		}
	})
	t.Run("insert before first and after last", func(t *testing.T) {
		got, err := tree.Edit([]Op{
			Put([]byte("AAA-first"), []byte("front")),
			Put([]byte("zzz-last"), []byte("back")),
		})
		if err != nil {
			t.Fatal(err)
		}
		reb, err := tree.EditRebuild([]Op{
			Put([]byte("AAA-first"), []byte("front")),
			Put([]byte("zzz-last"), []byte("back")),
		})
		if err != nil {
			t.Fatal(err)
		}
		if got.Root() != reb.Root() {
			t.Fatalf("boundary inserts: incremental != rebuild")
		}
		if v, _ := got.Get([]byte("AAA-first")); string(v) != "front" {
			t.Fatalf("front insert lost")
		}
	})
	t.Run("edit into empty tree", func(t *testing.T) {
		empty := mustBuild(t, st, nil)
		got, err := empty.Edit([]Op{Put([]byte("k"), []byte("v")), Del([]byte("g"))})
		if err != nil {
			t.Fatal(err)
		}
		if got.Len() != 1 {
			t.Fatalf("len = %d", got.Len())
		}
	})
	t.Run("duplicate ops last wins", func(t *testing.T) {
		got, err := tree.Edit([]Op{
			Put([]byte("dup"), []byte("1")),
			Put([]byte("dup"), []byte("2")),
			Del([]byte("dup2")),
			Put([]byte("dup2"), []byte("kept")),
		})
		if err != nil {
			t.Fatal(err)
		}
		if v, _ := got.Get([]byte("dup")); string(v) != "2" {
			t.Fatalf("dup = %q", v)
		}
		if v, _ := got.Get([]byte("dup2")); string(v) != "kept" {
			t.Fatalf("dup2 = %q", v)
		}
	})
}

func TestEditSingleLeafTree(t *testing.T) {
	st := store.NewMemStore()
	tree := mustBuild(t, st, genEntries(3, 1))
	got, err := tree.Edit([]Op{Put([]byte("key-00000001"), []byte("changed"))})
	if err != nil {
		t.Fatal(err)
	}
	v, err := got.Get([]byte("key-00000001"))
	if err != nil || string(v) != "changed" {
		t.Fatalf("single-leaf edit: %q, %v", v, err)
	}
	reb, err := tree.EditRebuild([]Op{Put([]byte("key-00000001"), []byte("changed"))})
	if err != nil {
		t.Fatal(err)
	}
	if got.Root() != reb.Root() {
		t.Fatal("single-leaf: incremental != rebuild")
	}
}

// TestRecursivelyIdentical checks SIRI property 2: a single-record edit on a
// large tree must reuse almost all pages.
func TestRecursivelyIdentical(t *testing.T) {
	st := store.NewMemStore()
	entries := genEntries(20000, 77)
	tree := mustBuild(t, st, entries)
	stats, err := tree.ComputeStats()
	if err != nil {
		t.Fatal(err)
	}

	before := st.Stats().UniqueChunks
	edited, err := tree.Edit([]Op{Put([]byte("key-00010000"), []byte("poke"))})
	if err != nil {
		t.Fatal(err)
	}
	newChunks := st.Stats().UniqueChunks - before
	if edited.Root() == tree.Root() {
		t.Fatal("edit did not change root")
	}
	// |P(I2)-P(I1)| must be tiny compared with |P(I2) ∩ P(I1)|.
	if newChunks > int64(stats.Height)*4 {
		t.Fatalf("single edit created %d new chunks (height %d, nodes %d) — not recursively identical",
			newChunks, stats.Height, stats.Nodes)
	}
}

func TestChunkIDsCoverTree(t *testing.T) {
	st := store.NewMemStore()
	tree := mustBuild(t, st, genEntries(2000, 31))
	ids, err := tree.ChunkIDs()
	if err != nil {
		t.Fatal(err)
	}
	stats, err := tree.ComputeStats()
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != stats.Nodes {
		t.Fatalf("ChunkIDs %d != Nodes %d", len(ids), stats.Nodes)
	}
	seen := map[string]bool{}
	for _, id := range ids {
		if seen[id.String()] {
			// Shared sub-trees can repeat across branches of one tree only
			// if identical; that is legal, but for fresh sequential data it
			// would be surprising.  Don't fail, just note.
			t.Logf("duplicate chunk id %s", id.Short())
		}
		seen[id.String()] = true
	}
}

func TestEntriesSorted(t *testing.T) {
	st := store.NewMemStore()
	entries := genEntries(100, 2)
	tree := mustBuild(t, st, entries)
	got, err := tree.Entries()
	if err != nil {
		t.Fatal(err)
	}
	if !sort.SliceIsSorted(got, func(i, j int) bool { return bytes.Compare(got[i].Key, got[j].Key) < 0 }) {
		t.Fatal("Entries not sorted")
	}
}
