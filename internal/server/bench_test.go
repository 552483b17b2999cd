package server

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"forkbase/internal/chunk"
	"forkbase/internal/core"
	"forkbase/internal/hash"
	"forkbase/internal/index"
	"forkbase/internal/store"
	"forkbase/internal/value"
)

// BenchmarkRoundTrip measures whole request-response exchanges on loopback
// against a memory store, one closed-loop client: what a remote engine pays
// per store or branch-table call before any engine work.
func BenchmarkRoundTrip(b *testing.B) {
	st := store.NewMemStore()
	srv := New(st, core.NewMemBranchTable(), nil)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	cl, err := Dial(addr)
	if err != nil {
		b.Fatal(err)
	}
	defer cl.Close()
	rs, bt := NewRemoteStore(cl), NewRemoteBranchTable(cl)

	sized := func(n, size int) ([]*chunk.Chunk, []hash.Hash) {
		cs, ids := sizedChunks(n, size)
		if _, err := st.PutBatch(cs); err != nil {
			b.Fatal(err)
		}
		return cs, ids
	}
	_, small := sized(1, 150)
	_, node := sized(1, 4<<10)
	batch, _ := sized(8, 4<<10)
	_, frontier := sized(64, 512)
	_, level := sized(1024, 4<<10)
	if ok, err := bt.CompareAndSet("k", "master", hash.Hash{}, small[0]); err != nil || !ok {
		b.Fatalf("seeding the head: %v %v", ok, err)
	}

	for _, bc := range []struct {
		name string
		do   func() error
	}{
		{"Head", func() error { _, _, err := bt.Head("k", "master"); return err }},
		{"Get/150B", func() error { _, err := rs.Get(small[0]); return err }},
		{"Get/4KiB", func() error { _, err := rs.Get(node[0]); return err }},
		{"PutBatch/8x4KiB", func() error { _, err := rs.PutBatch(batch); return err }},
		{"GetChunks/64x512B", func() error { _, err := rs.GetBatch(frontier); return err }},
		{"GetChunks/1024x4KiB", func() error { _, err := rs.GetBatch(level); return err }},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := bc.do(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkWriters measures commits per second for one and two writers over
// one client, and for two writers over a client each: every writer makes
// clustered 8-row edits of its own 20k-row map through a remote engine, on
// loopback against a memory store.  It reports num_cpu beside the rate,
// since the server and the writers share the host's cores.
func BenchmarkWriters(b *testing.B) {
	for _, bc := range []struct{ clients, writers int }{{1, 1}, {1, 2}, {2, 2}} {
		b.Run(fmt.Sprintf("clients=%d/writers=%d", bc.clients, bc.writers), func(b *testing.B) {
			srv := New(store.NewMemStore(), core.NewMemBranchTable(), nil)
			addr, err := srv.Listen("127.0.0.1:0")
			if err != nil {
				b.Fatal(err)
			}
			defer srv.Close()
			dbs := make([]*core.DB, bc.clients)
			for i := range dbs {
				cl, err := Dial(addr)
				if err != nil {
					b.Fatal(err)
				}
				defer cl.Close()
				dbs[i] = core.Open(core.Options{Store: NewRemoteStore(cl), Branches: NewRemoteBranchTable(cl), NodeCacheBytes: 32 << 20})
			}
			rng := rand.New(rand.NewSource(1))
			row := func(i int) index.Entry {
				v := make([]byte, 96)
				rng.Read(v)
				return index.Entry{Key: []byte(fmt.Sprintf("k%06d", i)), Val: v}
			}
			const rows = 20000
			edits := make([][][]index.Entry, bc.writers) // each writer's edits, made up front
			for w := range edits {
				db := dbs[w%bc.clients]
				es := make([]index.Entry, rows)
				for i := range es {
					es[i] = row(i)
				}
				if _, err := db.BuildAndPut(fmt.Sprint("t", w), "", nil, func() (value.Value, error) { return db.NewMapValue(es) }); err != nil {
					b.Fatal(err)
				}
				for n := 0; n < b.N/bc.writers+1; n++ {
					off, edit := rng.Intn(rows-8), make([]index.Entry, 8)
					for i := range edit {
						edit[i] = row(off + i)
					}
					edits[w] = append(edits[w], edit)
				}
			}
			b.ResetTimer()
			start := time.Now()
			errs := make(chan error, bc.writers)
			for w := range edits {
				go func(w int) {
					var err error
					for _, edit := range edits[w] {
						if _, err = dbs[w%bc.clients].EditMap(fmt.Sprint("t", w), "", edit, nil, nil); err != nil {
							break
						}
					}
					errs <- err
				}(w)
			}
			for range edits {
				if err := <-errs; err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(bc.writers*(b.N/bc.writers+1))/time.Since(start).Seconds(), "commits/s")
			b.ReportMetric(float64(runtime.NumCPU()), "num_cpu")
		})
	}
}
