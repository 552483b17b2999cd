package pos

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"forkbase/internal/chunk"
	"forkbase/internal/chunker"
	"forkbase/internal/hash"
	"forkbase/internal/index"
	"forkbase/internal/nodecache"
	"forkbase/internal/store"
)

// cachedStore builds an n-entry tree over a MemStore wrapped with a
// decoded-node cache.
func cachedTree(t *testing.T, n int, budget int64) (*Tree, *store.MemStore, *nodecache.Cache) {
	t.Helper()
	ms := store.NewMemStore()
	cache := nodecache.New(budget)
	cs := store.WithNodeCache(ms, cache)
	entries := make([]Entry, n)
	for i := range entries {
		entries[i] = Entry{
			Key: []byte(fmt.Sprintf("key-%010d", i)),
			Val: []byte(fmt.Sprintf("value-%d", i)),
		}
	}
	tree, err := BuildMap(cs, chunker.DefaultConfig(), entries)
	if err != nil {
		t.Fatal(err)
	}
	return tree, ms, cache
}

// TestCachedTraversalHitRate is the headline property of the decoded-node
// cache: once a tree has been traversed, re-traversals are served from the
// cache — the store sees (almost) no further Gets and the hit rate
// approaches 1.
func TestCachedTraversalHitRate(t *testing.T) {
	const n = 20000
	tree, ms, cache := cachedTree(t, n, 64<<20)

	get := func(i int) {
		key := []byte(fmt.Sprintf("key-%010d", i))
		v, err := tree.Get(key)
		if err != nil {
			t.Fatalf("get %d: %v", i, err)
		}
		if want := fmt.Sprintf("value-%d", i); string(v) != want {
			t.Fatalf("get %d = %q, want %q", i, v, want)
		}
	}

	// Pass 1 populates the cache (all misses hit the store).
	for i := 0; i < n; i++ {
		get(i)
	}
	getsAfterWarm := ms.Stats().Gets

	// Pass 2 must be served entirely from the cache.
	for i := 0; i < n; i++ {
		get(i)
	}
	if got := ms.Stats().Gets; got != getsAfterWarm {
		t.Fatalf("warm traversal touched the store: %d extra Gets", got-getsAfterWarm)
	}
	st := cache.Stats()
	if st.HitRate() < 0.5 {
		t.Fatalf("hit rate after two passes = %.2f, want >= 0.5 (%+v)", st.HitRate(), st)
	}
	if st.Evictions != 0 {
		t.Fatalf("unexpected evictions under a roomy budget: %+v", st)
	}
}

// TestCachedIterMatchesUncached cross-checks that cached and uncached
// traversals observe identical data.
func TestCachedIterMatchesUncached(t *testing.T) {
	const n = 5000
	tree, ms, _ := cachedTree(t, n, 64<<20)
	plain, err := LoadTree(ms, chunker.DefaultConfig(), tree.Root())
	if err != nil {
		t.Fatal(err)
	}

	want, err := plain.Entries()
	if err != nil {
		t.Fatal(err)
	}
	// Iterate twice through the cache; the second pass runs hot.
	for pass := 0; pass < 2; pass++ {
		got, err := tree.Entries()
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("pass %d: %d entries, want %d", pass, len(got), len(want))
		}
		for i := range got {
			if string(got[i].Key) != string(want[i].Key) || string(got[i].Val) != string(want[i].Val) {
				t.Fatalf("pass %d: entry %d differs", pass, i)
			}
		}
	}
}

// TestCachedDiffAndEdit exercises the write-then-read paths (Edit, Diff,
// Merge3) through a cached source and cross-checks against the uncached
// tree.  Structural invariance means the roots must be identical bytes.
func TestCachedDiffAndEdit(t *testing.T) {
	const n = 10000
	tree, ms, _ := cachedTree(t, n, 64<<20)
	plain, err := LoadTree(ms, chunker.DefaultConfig(), tree.Root())
	if err != nil {
		t.Fatal(err)
	}

	ops := []Op{
		Put([]byte("key-0000000123"), []byte("mutated")),
		Put([]byte("key-0000009999"), []byte("also-mutated")),
		Del([]byte("key-0000005000")),
	}
	cachedEdit, err := tree.Edit(ops)
	if err != nil {
		t.Fatal(err)
	}
	plainEdit, err := plain.Edit(ops)
	if err != nil {
		t.Fatal(err)
	}
	if cachedEdit.Root() != plainEdit.Root() {
		t.Fatal("cached and uncached edits diverged (structural invariance broken)")
	}

	deltas, _, err := tree.Diff(cachedEdit)
	if err != nil {
		t.Fatal(err)
	}
	if len(deltas) != 3 {
		t.Fatalf("deltas = %d, want 3", len(deltas))
	}

	merged, _, err := index.Merge3(tree, cachedEdit, tree, nil)
	if err != nil {
		t.Fatal(err)
	}
	if merged.Root() != cachedEdit.Root() {
		t.Fatal("trivial merge did not return the edited side")
	}
}

// TestEditFillsNodeCache: the nodes an edit writes enter the decoded-node
// cache as they land, so reading the new version back — here the edited
// key, then a diff against the old version — fetches nothing from the store.
func TestEditFillsNodeCache(t *testing.T) {
	tree, ms, _ := cachedTree(t, 20000, 64<<20)
	key := []byte("key-0000012345")
	if _, err := tree.Entries(); err != nil { // every old node is now cached
		t.Fatal(err)
	}
	edited, err := tree.Edit([]Op{Put(key, []byte("rewritten"))})
	if err != nil {
		t.Fatal(err)
	}
	gets := ms.Stats().Gets
	if v, err := edited.Get(key); err != nil || string(v) != "rewritten" {
		t.Fatalf("Get after Edit = %q, %v", v, err)
	}
	if deltas, _, err := tree.Diff(edited); err != nil || len(deltas) != 1 {
		t.Fatalf("Diff after Edit = %d deltas, %v", len(deltas), err)
	}
	if n := ms.Stats().Gets - gets; n != 0 {
		t.Fatalf("reading back a just-edited path fetched %d chunks from the store", n)
	}
}

// TestCachedConcurrentReaders hammers one cached tree from many goroutines
// under -race: the cache and the RLock store path must both be safe, and
// every reader must observe correct values.
func TestCachedConcurrentReaders(t *testing.T) {
	const n = 5000
	tree, _, _ := cachedTree(t, n, 16<<20)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				k := (g*7919 + i) % n
				v, err := tree.Get([]byte(fmt.Sprintf("key-%010d", k)))
				if err != nil {
					t.Errorf("get: %v", err)
					return
				}
				if want := fmt.Sprintf("value-%d", k); string(v) != want {
					t.Errorf("got %q want %q", v, want)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestCachedSeqAndBlob covers the sequence and blob read paths through a
// cached source.
func TestCachedSeqAndBlob(t *testing.T) {
	ms := store.NewMemStore()
	cache := nodecache.New(16 << 20)
	cs := store.WithNodeCache(ms, cache)
	cfg := chunker.DefaultConfig()

	items := make([][]byte, 3000)
	for i := range items {
		items[i] = []byte(fmt.Sprintf("item-%08d", i))
	}
	seq, err := BuildSeq(cs, cfg, items)
	if err != nil {
		t.Fatal(err)
	}
	for pass := 0; pass < 2; pass++ {
		for _, i := range []uint64{0, 1, 1499, 2998, 2999} {
			v, err := seq.Get(i)
			if err != nil {
				t.Fatal(err)
			}
			if want := fmt.Sprintf("item-%08d", i); string(v) != want {
				t.Fatalf("seq[%d] = %q", i, v)
			}
		}
	}

	data := make([]byte, 256<<10)
	for i := range data {
		data[i] = byte(i * 131)
	}
	blob, err := BuildBlob(cs, cfg, data)
	if err != nil {
		t.Fatal(err)
	}
	for pass := 0; pass < 2; pass++ {
		got, err := blob.Bytes()
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(data) {
			t.Fatalf("pass %d: blob bytes = %d", pass, len(got))
		}
		for i := range got {
			if got[i] != data[i] {
				t.Fatalf("pass %d: byte %d differs", pass, i)
			}
		}
	}
	if cache.Stats().Hits == 0 {
		t.Fatal("seq/blob traversals produced no cache hits")
	}
}

// TestCacheEvictionKeepsCorrectness runs a traversal through a cache far too
// small for the tree: constant eviction, but still correct results.
func TestCacheEvictionKeepsCorrectness(t *testing.T) {
	const n = 10000
	tree, _, cache := cachedTree(t, n, 64<<10) // ~4 KiB per shard
	for i := 0; i < n; i += 37 {
		v, err := tree.Get([]byte(fmt.Sprintf("key-%010d", i)))
		if err != nil {
			t.Fatal(err)
		}
		if want := fmt.Sprintf("value-%d", i); string(v) != want {
			t.Fatalf("got %q want %q", v, want)
		}
	}
	if cache.Stats().Evictions == 0 {
		t.Fatal("expected evictions under a tiny budget")
	}
}

// batchProbe sits under the decoded-node cache and hands every batch an edit
// lands to put, which stands in for the store's PutBatch.
type batchProbe struct {
	*store.MemStore
	put func(cs []*chunk.Chunk) ([]bool, error)
	ids []hash.Hash
}

func (p *batchProbe) PutBatch(cs []*chunk.Chunk) ([]bool, error) {
	for _, c := range cs {
		p.ids = append(p.ids, c.ID())
	}
	if p.put == nil {
		return p.MemStore.PutBatch(cs)
	}
	return p.put(cs)
}

// TestCacheFillRevalidatesThroughPut: an edit inserts its nodes into the
// cache before the put, so the put is what vouches for them.  A landed batch
// stays resident; a failed put leaves none of its nodes behind; and a GC sweep
// that deletes the batch (store first, cache purge second) while the put is
// in flight leaves no swept node resident.
func TestCacheFillRevalidatesThroughPut(t *testing.T) {
	for _, tc := range []struct {
		name     string
		put      func(p *batchProbe, cache *nodecache.Cache, cs []*chunk.Chunk) ([]bool, error)
		wantErr  bool
		resident bool
	}{
		{name: "landed", resident: true, put: func(p *batchProbe, _ *nodecache.Cache, cs []*chunk.Chunk) ([]bool, error) {
			return p.MemStore.PutBatch(cs)
		}},
		{name: "failed put", wantErr: true, put: func(*batchProbe, *nodecache.Cache, []*chunk.Chunk) ([]bool, error) {
			return nil, errors.New("disk full")
		}},
		{name: "swept during put", put: func(p *batchProbe, cache *nodecache.Cache, cs []*chunk.Chunk) ([]bool, error) {
			fresh, err := p.MemStore.PutBatch(cs)
			for _, c := range cs {
				p.MemStore.Delete(c.ID())
				cache.Remove(c.ID())
			}
			return fresh, err
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			probe := &batchProbe{MemStore: store.NewMemStore()}
			cache := nodecache.New(64 << 20)
			entries := make([]Entry, 5000)
			for i := range entries {
				entries[i] = Entry{Key: []byte(fmt.Sprintf("key-%010d", i)), Val: []byte("v")}
			}
			tree, err := BuildMap(store.WithNodeCache(probe, cache), chunker.DefaultConfig(), entries)
			if err != nil {
				t.Fatal(err)
			}
			probe.ids = nil
			probe.put = func(cs []*chunk.Chunk) ([]bool, error) { return tc.put(probe, cache, cs) }
			_, err = tree.Edit([]Op{Put([]byte("key-0000001234"), []byte("edited"))})
			if (err != nil) != tc.wantErr {
				t.Fatalf("Edit error = %v, want error %v", err, tc.wantErr)
			}
			if len(probe.ids) == 0 {
				t.Fatal("the edit put no batch")
			}
			for _, id := range probe.ids {
				if _, ok := cache.Get(id); ok != tc.resident {
					t.Fatalf("node %s resident = %v, want %v", id.Short(), ok, tc.resident)
				}
			}
		})
	}
}
