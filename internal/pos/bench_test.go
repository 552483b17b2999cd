package pos

import (
	"fmt"
	"slices"
	"sync"
	"testing"

	"forkbase/internal/chunk"
	"forkbase/internal/chunker"
	"forkbase/internal/nodecache"
	"forkbase/internal/store"
)

// benchTree builds an n-entry tree with default (4 KiB page) chunking.
func benchTree(b *testing.B, n int) (*Tree, *store.MemStore) {
	b.Helper()
	ms := store.NewMemStore()
	entries := make([]Entry, n)
	for i := range entries {
		entries[i] = Entry{
			Key: []byte(fmt.Sprintf("key-%010d", i)),
			Val: []byte(fmt.Sprintf("value-%d", i)),
		}
	}
	tree, err := BuildMap(ms, chunker.DefaultConfig(), entries)
	if err != nil {
		b.Fatal(err)
	}
	return tree, ms
}

// benchTreeCached is benchTree over a store with an attached decoded-node
// cache, pre-warmed by one full traversal so steady-state hits dominate.
func benchTreeCached(b *testing.B, n int) *Tree {
	b.Helper()
	ms := store.NewMemStore()
	cs := store.WithNodeCache(ms, nodecache.New(256<<20))
	entries := make([]Entry, n)
	for i := range entries {
		entries[i] = Entry{
			Key: []byte(fmt.Sprintf("key-%010d", i)),
			Val: []byte(fmt.Sprintf("value-%d", i)),
		}
	}
	tree, err := BuildMap(cs, chunker.DefaultConfig(), entries)
	if err != nil {
		b.Fatal(err)
	}
	it, err := tree.Iter()
	if err != nil {
		b.Fatal(err)
	}
	for it.Next() {
	}
	if err := it.Err(); err != nil {
		b.Fatal(err)
	}
	return tree
}

func buildEntries(n int) []Entry {
	entries := make([]Entry, n)
	for i := range entries {
		entries[i] = Entry{
			Key: []byte(fmt.Sprintf("key-%010d", i)),
			Val: []byte(fmt.Sprintf("value-%d", i)),
		}
	}
	return entries
}

// BenchmarkBuildMap measures the batched (sink) write path.
func BenchmarkBuildMap(b *testing.B) {
	for _, n := range []int{1000, 10000, 100000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			entries := buildEntries(n)
			b.SetBytes(int64(n * 24))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ms := store.NewMemStore()
				if _, err := BuildMap(ms, chunker.DefaultConfig(), entries); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkBuildMapFileStore is the same build over a durable store, where
// the sink group-commits whole batches.
func BenchmarkBuildMapFileStore(b *testing.B) {
	entries := buildEntries(100000)
	b.SetBytes(int64(len(entries) * 24))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		fs, err := store.OpenFileStore(b.TempDir())
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if _, err := BuildMap(fs, chunker.DefaultConfig(), entries); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		fs.Close()
		b.StartTimer()
	}
}

// BenchmarkIngestParallel is the multi-client bulk-ingest workload: 8
// writers each build their own map into one shared FileStore.  The sink
// amortizes the store's write lock over whole batches (and hashes on a pool
// when cores allow).
func BenchmarkIngestParallel(b *testing.B) {
	const writers = 8
	parts := make([][]Entry, writers)
	for g := range parts {
		part := make([]Entry, 12500)
		for i := range part {
			part[i] = Entry{
				Key: []byte(fmt.Sprintf("w%d-key-%010d", g, i)),
				Val: []byte(fmt.Sprintf("value-%d", i)),
			}
		}
		parts[g] = part
	}
	b.SetBytes(int64(writers * 12500 * 24))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		fs, err := store.OpenFileStore(b.TempDir())
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		var wg sync.WaitGroup
		for g := 0; g < writers; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				if _, err := BuildMap(fs, chunker.DefaultConfig(), parts[g]); err != nil {
					b.Error(err)
				}
			}(g)
		}
		wg.Wait()
		b.StopTimer()
		fs.Close()
		b.StartTimer()
	}
}

func BenchmarkTreeGet(b *testing.B) {
	for _, n := range []int{10000, 100000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			tree, _ := benchTree(b, n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				key := []byte(fmt.Sprintf("key-%010d", i%n))
				if _, err := tree.Get(key); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkTreeInsert(b *testing.B) {
	for _, n := range []int{10000, 100000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			tree, _ := benchTree(b, n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				key := []byte(fmt.Sprintf("key-%010d", i%n))
				if _, err := tree.Insert(key, []byte(fmt.Sprintf("upd-%d", i))); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkEditScattered commits 8 puts to a 100k-row table of 96-byte rows,
// packed into one leaf or spread evenly over the key space, with and
// without a decoded-node cache.  gets/op is the chunks one Edit fetches from
// the store: the read side of "commit cost proportional to the edit".
func BenchmarkEditScattered(b *testing.B) {
	const rows, batch = 100003, 8
	entries := genRows(rows)
	for _, shape := range []struct {
		name   string
		stride int
	}{{"clustered", 1}, {"scattered", rows / batch}} {
		for _, cached := range []bool{false, true} {
			b.Run(fmt.Sprintf("%s/cache=%v", shape.name, cached), func(b *testing.B) {
				ms := store.NewMemStore()
				var st store.Store = ms
				if cached {
					st = store.WithNodeCache(ms, nodecache.New(256<<20))
				}
				tree, err := BuildMap(st, chunker.DefaultConfig(), entries)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := tree.Edit([]Op{Put(rowKey(0), []byte("warm"))}); err != nil {
					b.Fatal(err)
				}
				ops := make([]Op, batch)
				gets := ms.Stats().Gets
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					for j := range ops {
						ops[j] = Put(rowKey((i*131+j*shape.stride)%rows), []byte(fmt.Sprintf("edit-%d-%d", i, j)))
					}
					if _, err := tree.Edit(ops); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(ms.Stats().Gets-gets)/float64(b.N), "gets/op")
			})
		}
	}
}

// BenchmarkTreeGetCached is the cached counterpart of BenchmarkTreeGet:
// point lookups served from the decoded-node cache instead of re-fetching
// and re-decoding whole leaves per Get.
func BenchmarkTreeGetCached(b *testing.B) {
	for _, n := range []int{10000, 100000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			tree := benchTreeCached(b, n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				key := []byte(fmt.Sprintf("key-%010d", i%n))
				if _, err := tree.Get(key); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTreeGetParallel measures read scalability: all goroutines hammer
// one tree.  With the exclusive store mutex of the seed this serialized;
// with RLock + atomic stats (and optionally the cache) it must scale with
// GOMAXPROCS.
func BenchmarkTreeGetParallel(b *testing.B) {
	const n = 100000
	for _, cached := range []bool{false, true} {
		name := "cache=off"
		if cached {
			name = "cache=on"
		}
		b.Run(name, func(b *testing.B) {
			var tree *Tree
			if cached {
				tree = benchTreeCached(b, n)
			} else {
				tree, _ = benchTree(b, n)
			}
			b.ReportAllocs()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				i := 0
				for pb.Next() {
					key := []byte(fmt.Sprintf("key-%010d", i%n))
					if _, err := tree.Get(key); err != nil {
						b.Error(err) // Fatal is not legal off the benchmark goroutine
						return
					}
					i += 7919 // stride to spread goroutines over the key space
				}
			})
		})
	}
}

// BenchmarkTreeIterateCached is the cached counterpart of
// BenchmarkTreeIterate (full scan).
func BenchmarkTreeIterateCached(b *testing.B) {
	tree := benchTreeCached(b, 100000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		it, err := tree.Iter()
		if err != nil {
			b.Fatal(err)
		}
		count := 0
		for it.Next() {
			count++
		}
		if err := it.Err(); err != nil || count != 100000 {
			b.Fatalf("count=%d err=%v", count, err)
		}
	}
}

// BenchmarkTreeDiffCached diffs two cached trees differing in D keys.
func BenchmarkTreeDiffCached(b *testing.B) {
	for _, d := range []int{1, 10, 100} {
		b.Run(fmt.Sprintf("D=%d", d), func(b *testing.B) {
			tree := benchTreeCached(b, 100000)
			ops := make([]Op, d)
			for i := range ops {
				ops[i] = Put([]byte(fmt.Sprintf("key-%010d", i*997)), []byte("changed"))
			}
			other, err := tree.Edit(ops)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				deltas, _, err := tree.Diff(other)
				if err != nil || len(deltas) != d {
					b.Fatalf("deltas=%d err=%v", len(deltas), err)
				}
			}
		})
	}
}

func BenchmarkTreeIterate(b *testing.B) {
	tree, _ := benchTree(b, 100000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		it, err := tree.Iter()
		if err != nil {
			b.Fatal(err)
		}
		count := 0
		for it.Next() {
			count++
		}
		if err := it.Err(); err != nil || count != 100000 {
			b.Fatalf("count=%d err=%v", count, err)
		}
	}
}

func BenchmarkTreeDiff(b *testing.B) {
	for _, d := range []int{1, 10, 100} {
		b.Run(fmt.Sprintf("D=%d", d), func(b *testing.B) {
			tree, _ := benchTree(b, 100000)
			ops := make([]Op, d)
			for i := range ops {
				ops[i] = Put([]byte(fmt.Sprintf("key-%010d", i*997)), []byte("changed"))
			}
			other, err := tree.Edit(ops)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				deltas, _, err := tree.Diff(other)
				if err != nil || len(deltas) != d {
					b.Fatalf("deltas=%d err=%v", len(deltas), err)
				}
			}
		})
	}
}

func BenchmarkMerge3Disjoint(b *testing.B) {
	tree, _ := benchTree(b, 100000)
	a, err := tree.Edit([]Op{Put([]byte("key-0000000001"), []byte("A"))})
	if err != nil {
		b.Fatal(err)
	}
	c, err := tree.Edit([]Op{Put([]byte("key-0000099998"), []byte("B"))})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := Merge3(tree, a, c, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBlobBuild(b *testing.B) {
	data := make([]byte, 1<<20)
	for i := range data {
		data[i] = byte(i * 31)
	}
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ms := store.NewMemStore()
		if _, err := BuildBlob(ms, chunker.DefaultConfig(), data); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSeqSplice(b *testing.B) {
	ms := store.NewMemStore()
	items := make([][]byte, 50000)
	for i := range items {
		items[i] = []byte(fmt.Sprintf("item-%08d", i))
	}
	seq, err := BuildSeq(ms, chunker.DefaultConfig(), items)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := seq.Splice(uint64(i%50000), 1, [][]byte{[]byte("spliced")}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDecodeNode times one cold decode per POS node type — what every
// read that misses the decoded-node cache pays per node — over a 100k-row
// map and a 100k-item list of distinct 96-byte values: the node of median
// size of each type.
func BenchmarkDecodeNode(b *testing.B) {
	ms := store.NewMemStore()
	val := make([]byte, 96)
	entries := make([]Entry, 100000)
	items := make([][]byte, len(entries))
	for i := range entries {
		entries[i] = Entry{Key: []byte(fmt.Sprintf("key-%010d", i)), Val: val}
		items[i] = append([]byte(fmt.Sprintf("item-%010d", i)), val[15:]...)
	}
	tree, err := BuildMap(ms, chunker.DefaultConfig(), entries)
	if err != nil {
		b.Fatal(err)
	}
	seq, err := BuildSeq(ms, chunker.DefaultConfig(), items)
	if err != nil {
		b.Fatal(err)
	}
	mapIDs, err := tree.ChunkIDs()
	if err != nil {
		b.Fatal(err)
	}
	seqIDs, err := seq.ChunkIDs()
	if err != nil {
		b.Fatal(err)
	}
	byType := map[chunk.Type][]*chunk.Chunk{}
	for _, id := range append(mapIDs, seqIDs...) {
		c, err := ms.Get(id)
		if err != nil {
			b.Fatal(err)
		}
		byType[c.Type()] = append(byType[c.Type()], c)
	}
	for _, tc := range []struct {
		name string
		typ  chunk.Type
	}{
		{"map-leaf", chunk.TypeMapLeaf},
		{"map-index", chunk.TypeMapIndex},
		{"seq-leaf", chunk.TypeSeqLeaf},
		{"seq-index", chunk.TypeSeqIndex},
	} {
		b.Run(tc.name, func(b *testing.B) {
			cs := byType[tc.typ]
			slices.SortFunc(cs, func(x, y *chunk.Chunk) int { return x.Size() - y.Size() })
			c := cs[len(cs)/2]
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := decodeNode(c); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
