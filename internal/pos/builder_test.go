package pos

import (
	"fmt"
	"math/rand"
	"testing"

	"forkbase/internal/chunker"
	"forkbase/internal/store"
)

// randomEntries produces entries with randomized key/value sizes; ~20%
// duplicate keys and unsorted order exercise normalization.
func randomEntries(rng *rand.Rand, n int) []Entry {
	entries := make([]Entry, n)
	for i := range entries {
		k := rng.Intn(n * 2)
		val := make([]byte, 1+rng.Intn(120))
		rng.Read(val)
		entries[i] = Entry{Key: []byte(fmt.Sprintf("k%08d", k)), Val: val}
	}
	return entries
}

// TestBuildMapMatchesPerChunkPath is the differential test anchoring the
// batched write path: for randomized entry sets and both chunking configs,
// the sink builder and the preserved per-chunk builder must produce
// byte-identical trees (same root, same chunk set).
func TestBuildMapMatchesPerChunkPath(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, cfg := range []chunker.Config{chunker.DefaultConfig(), chunker.SmallConfig()} {
		for _, n := range []int{0, 1, 17, 400, 5000} {
			entries := randomEntries(rng, n)
			msNew, msOld := store.NewMemStore(), store.NewMemStore()
			a, err := BuildMap(msNew, cfg, entries)
			if err != nil {
				t.Fatal(err)
			}
			b, err := buildMapPerChunk(msOld, cfg, entries)
			if err != nil {
				t.Fatal(err)
			}
			if a.Root() != b.Root() {
				t.Fatalf("cfg=%+v n=%d: sink root %s != per-chunk root %s",
					cfg, n, a.Root().Short(), b.Root().Short())
			}
			if a.Len() != b.Len() {
				t.Fatalf("n=%d: len %d != %d", n, a.Len(), b.Len())
			}
			if msNew.Len() != msOld.Len() {
				t.Fatalf("n=%d: chunk count %d != %d", n, msNew.Len(), msOld.Len())
			}
		}
	}
}

// TestBuildMapPresortedFastPath: the sorted-input fast path must not change
// the tree, and must not mutate or retain the caller's slice.
func TestBuildMapPresortedFastPath(t *testing.T) {
	n := 3000
	entries := make([]Entry, n)
	for i := range entries {
		entries[i] = Entry{Key: []byte(fmt.Sprintf("key-%06d", i)), Val: []byte(fmt.Sprintf("v%d", i))}
	}
	a, err := BuildMap(store.NewMemStore(), chunker.DefaultConfig(), entries)
	if err != nil {
		t.Fatal(err)
	}
	// Shuffled copy must build the identical tree through the sort path.
	shuffled := make([]Entry, n)
	copy(shuffled, entries)
	rand.New(rand.NewSource(1)).Shuffle(n, func(i, j int) {
		shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
	})
	b, err := BuildMap(store.NewMemStore(), chunker.DefaultConfig(), shuffled)
	if err != nil {
		t.Fatal(err)
	}
	if a.Root() != b.Root() {
		t.Fatal("sorted fast path and sort path disagree")
	}
	// The caller's pre-sorted slice is untouched.
	for i := range entries {
		if string(entries[i].Key) != fmt.Sprintf("key-%06d", i) {
			t.Fatal("fast path mutated caller entries")
		}
	}
}

// TestLastPerKey: the one sort-and-dedupe keeps the last op per key in key
// order, leaves its input as it was, and hands a sorted unique input back
// without copying it.
func TestLastPerKey(t *testing.T) {
	ops := []Op{Put([]byte("b"), []byte("1")), Del([]byte("a")), Put([]byte("b"), []byte("2")), Put([]byte("a"), []byte("3"))}
	before := fmt.Sprint(ops)
	got := lastPerKey(ops, opKey)
	if fmt.Sprint(ops) != before {
		t.Fatalf("input mutated: %v, was %v", ops, before)
	}
	want := []Op{Put([]byte("a"), []byte("3")), Put([]byte("b"), []byte("2"))}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("lastPerKey = %v, want %v", got, want)
	}
	if again := lastPerKey(got, opKey); &again[0] != &got[0] {
		t.Fatal("a sorted unique input was copied")
	}
}

// TestEditMatchesRebuildAfterSinkRefactor re-pins the incremental-edit
// oracle through the sink path with randomized ops (the property suite in
// quick_test.go covers more shapes; this anchors the builder refactor
// specifically, including the edit sinks, whose re-emitted nodes land as the
// store's dedup hits).
func TestEditMatchesRebuildAfterSinkRefactor(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	ms := store.NewMemStore()
	tree, err := BuildMap(ms, chunker.SmallConfig(), randomEntries(rng, 4000))
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 5; trial++ {
		var ops []Op
		for i := 0; i < 1+rng.Intn(50); i++ {
			key := []byte(fmt.Sprintf("k%08d", rng.Intn(8000)))
			if rng.Intn(3) == 0 {
				ops = append(ops, Del(key))
			} else {
				ops = append(ops, Put(key, []byte(fmt.Sprintf("edit-%d-%d", trial, i))))
			}
		}
		inc, err := tree.Edit(ops)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := tree.EditRebuild(ops)
		if err != nil {
			t.Fatal(err)
		}
		if inc.Root() != ref.Root() {
			t.Fatalf("trial %d: incremental root %s != rebuild root %s",
				trial, inc.Root().Short(), ref.Root().Short())
		}
		tree = inc
	}
}

// TestBuildersOverFileStore: the batched write path group-commits through a
// FileStore; everything must survive reopen.
func TestBuildersOverFileStore(t *testing.T) {
	dir := t.TempDir()
	fs, err := store.OpenFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	entries := randomEntries(rand.New(rand.NewSource(3)), 2000)
	tree, err := BuildMap(fs, chunker.DefaultConfig(), entries)
	if err != nil {
		t.Fatal(err)
	}
	root := tree.Root()
	if err := fs.Close(); err != nil {
		t.Fatal(err)
	}

	fs2, err := store.OpenFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer fs2.Close()
	reopened, err := LoadTree(fs2, chunker.DefaultConfig(), root)
	if err != nil {
		t.Fatal(err)
	}
	it, err := reopened.Iter()
	if err != nil {
		t.Fatal(err)
	}
	count := 0
	for it.Next() {
		count++
	}
	if err := it.Err(); err != nil {
		t.Fatalf("scan after reopen: %v", err)
	}
	if uint64(count) != tree.Len() {
		t.Fatalf("reopened scan saw %d entries, want %d", count, tree.Len())
	}
}
