package store

import (
	"fmt"
	"sync"
	"testing"

	"forkbase/internal/chunk"
	"forkbase/internal/hash"
)

// benchChunks builds n distinct size-byte chunks (pre-hashed, so these
// benchmarks isolate the store layer).
func benchChunks(n, size int) []*chunk.Chunk {
	cs := make([]*chunk.Chunk, n)
	for i := range cs {
		data := make([]byte, size)
		for j := range data {
			data[j] = byte(i*131 + j*7)
		}
		copy(data, fmt.Sprintf("chunk-%d", i))
		cs[i] = chunk.New(chunk.TypeBlobLeaf, data)
	}
	return cs
}

// BenchmarkFileStoreIngest compares per-chunk Puts against group-committed
// batches for a serial writer.
func BenchmarkFileStoreIngest(b *testing.B) {
	cs := benchChunks(2000, 4096)
	for _, mode := range []string{"perchunk", "batched"} {
		b.Run(mode, func(b *testing.B) {
			b.SetBytes(int64(len(cs) * 4096))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				fs, err := OpenFileStore(b.TempDir())
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				if mode == "batched" {
					for off := 0; off < len(cs); off += DefaultSinkBatch {
						end := off + DefaultSinkBatch
						if end > len(cs) {
							end = len(cs)
						}
						if _, err := fs.PutBatch(cs[off:end]); err != nil {
							b.Fatal(err)
						}
					}
				} else {
					for _, c := range cs {
						if _, err := fs.Put(c); err != nil {
							b.Fatal(err)
						}
					}
				}
				b.StopTimer()
				fs.Close()
				b.StartTimer()
			}
		})
	}
}

// BenchmarkFileStorePutParallel measures concurrent raw-chunk ingest into
// one shared FileStore: 8 writers land disjoint pre-hashed chunk sets.  With
// per-chunk Puts every chunk is a mutex acquisition; with batches the lock
// is taken once per batch.  (Chunks are pre-hashed, so this isolates the
// store layer; the end-to-end comparison is pos.BenchmarkIngestParallel.)
func BenchmarkFileStorePutParallel(b *testing.B) {
	const writers = 8
	const perWriter = 1000
	cs := benchChunks(writers*perWriter, 1024)
	for _, mode := range []string{"perchunk", "batched"} {
		b.Run(mode, func(b *testing.B) {
			b.SetBytes(int64(len(cs) * 1024))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				fs, err := OpenFileStore(b.TempDir())
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				var wg sync.WaitGroup
				for g := 0; g < writers; g++ {
					wg.Add(1)
					go func(part []*chunk.Chunk) {
						defer wg.Done()
						if mode == "batched" {
							for off := 0; off < len(part); off += DefaultSinkBatch {
								end := off + DefaultSinkBatch
								if end > len(part) {
									end = len(part)
								}
								if _, err := fs.PutBatch(part[off:end]); err != nil {
									b.Error(err)
									return
								}
							}
						} else {
							for _, c := range part {
								if _, err := fs.Put(c); err != nil {
									b.Error(err)
									return
								}
							}
						}
					}(cs[g*perWriter : (g+1)*perWriter])
				}
				wg.Wait()
				b.StopTimer()
				fs.Close()
				b.StartTimer()
			}
		})
	}
}

// BenchmarkChunkSink measures the full sink pipeline (hash + batch + store)
// over a MemStore.
func BenchmarkChunkSink(b *testing.B) {
	payloads := make([][]byte, 2000)
	for i := range payloads {
		p := make([]byte, 0, 4097)
		p = append(p, byte(chunk.TypeBlobLeaf))
		body := make([]byte, 4096)
		for j := range body {
			body[j] = byte(i*37 + j)
		}
		copy(body, fmt.Sprintf("p-%d", i))
		payloads[i] = append(p, body...)
	}
	b.SetBytes(int64(len(payloads) * 4096))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ms := NewMemStore()
		sink := NewChunkSink(ms)
		for _, p := range payloads {
			if _, err := sink.Emit(chunk.TypeBlobLeaf, p); err != nil {
				b.Fatal(err)
			}
		}
		if err := sink.Close(); err != nil {
			b.Fatal(err)
		}
	}
}

// coldStore builds a store of 8 MiB in segSize segments on the given read
// path, returning the store and its chunks.
func coldStore(b *testing.B, segSize int64, noMmap bool) (*FileStore, []*chunk.Chunk) {
	b.Helper()
	cs := benchChunks(2000, 4096)
	fs := openFileStoreMode(b, b.TempDir(), FileStoreOptions{SegmentSize: segSize}, noMmap)
	b.Cleanup(func() { fs.Close() })
	if _, err := fs.PutBatch(cs); err != nil {
		b.Fatal(err)
	}
	return fs, cs
}

// BenchmarkFileStoreGetCold measures uncached point gets: the mmap path
// (zero-copy, claimed ids) on sealed segments and on the one active segment
// of a store below SegmentSize, against the positioned-read baseline
// (syscall + copy + hash per get).
func BenchmarkFileStoreGetCold(b *testing.B) {
	for _, mode := range []struct {
		name    string
		segSize int64
		noMmap  bool
	}{{"mmap", 256 << 10, false}, {"active", DefaultSegmentSize, false}, {"pread", 256 << 10, true}} {
		b.Run(mode.name, func(b *testing.B) {
			fs, cs := coldStore(b, mode.segSize, mode.noMmap)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := fs.Get(cs[i*7919%len(cs)].ID()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFileStoreGetColdParallel drives concurrent uncached gets through
// the sharded index and per-segment mappings; per-op latency should stay
// flat as workers increase (no lock convoy).
func BenchmarkFileStoreGetColdParallel(b *testing.B) {
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("goroutines-%d", workers), func(b *testing.B) {
			fs, cs := coldStore(b, 256<<10, false)
			b.SetParallelism(workers)
			b.ReportAllocs()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				i := 0
				for pb.Next() {
					i++
					if _, err := fs.Get(cs[i*7919%len(cs)].ID()); err != nil {
						b.Fatal(err)
					}
				}
			})
		})
	}
}

// BenchmarkFileStoreSweep measures a full sweep-and-compact pass over a
// store whose chunks are half garbage.
func BenchmarkFileStoreSweep(b *testing.B) {
	cs := benchChunks(2000, 4096)
	keep := make(map[hash.Hash]bool, len(cs))
	for i, c := range cs {
		if i%2 == 0 {
			keep[c.ID()] = true
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		fs, err := OpenFileStoreWith(b.TempDir(), FileStoreOptions{SegmentSize: 256 << 10})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := fs.PutBatch(cs); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if _, err := fs.Sweep(func(id hash.Hash) bool { return keep[id] }); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		fs.Close()
	}
}
