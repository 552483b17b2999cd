package server

import (
	"testing"

	"forkbase/internal/chunk"
	"forkbase/internal/core"
	"forkbase/internal/hash"
	"forkbase/internal/store"
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
