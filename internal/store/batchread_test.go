package store

import (
	"testing"

	"forkbase/internal/chunk"
	"forkbase/internal/hash"
	"forkbase/internal/nodecache"
)

func TestBatchReadAcrossImplementations(t *testing.T) {
	mk := func(s Store) (ids []hash.Hash, missing hash.Hash) {
		for _, payload := range []string{"alpha", "beta", "gamma"} {
			c := chunk.New(chunk.TypeBlobLeaf, []byte(payload))
			if _, err := s.Put(c); err != nil {
				t.Fatal(err)
			}
			ids = append(ids, c.ID())
		}
		missing = hash.Of([]byte("not stored"))
		return ids, missing
	}

	cases := []struct {
		name string
		wrap func(*MemStore) Store
	}{
		{"mem", func(m *MemStore) Store { return m }},
		{"verifying", func(m *MemStore) Store { return NewVerifyingStore(m) }},
		{"counting", func(m *MemStore) Store { return NewCountingStore(m) }},
		{"malicious-honest", func(m *MemStore) Store { return NewMaliciousStore(m) }},
		{"nodecached", func(m *MemStore) Store {
			return WithNodeCache(NewVerifyingStore(m), nodecache.New(1<<20))
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := tc.wrap(NewMemStore())
			ids, missing := mk(s)
			query := []hash.Hash{ids[2], missing, ids[0]}

			got, err := s.GetBatch(query)
			if err != nil {
				t.Fatal(err)
			}
			if got[0] == nil || got[0].ID() != ids[2] {
				t.Fatalf("slot 0 = %v, want %s", got[0], ids[2].Short())
			}
			if got[1] != nil {
				t.Fatal("missing id must yield a nil slot, not an error")
			}
			if got[2] == nil || got[2].ID() != ids[0] {
				t.Fatalf("slot 2 = %v, want %s", got[2], ids[0].Short())
			}

			has, err := s.HasBatch(query)
			if err != nil {
				t.Fatal(err)
			}
			if !has[0] || has[1] || !has[2] {
				t.Fatalf("HasBatch = %v, want [true false true]", has)
			}
		})
	}
}

func TestVerifyingGetBatchCatchesForgery(t *testing.T) {
	mal := NewMaliciousStore(NewMemStore())
	v := NewVerifyingStore(mal)
	c := chunk.New(chunk.TypeBlobLeaf, []byte("genuine"))
	if _, err := v.Put(c); err != nil {
		t.Fatal(err)
	}
	mal.Forge(c.ID(), chunk.TypeBlobLeaf, []byte("forged"))
	if _, err := v.GetBatch([]hash.Hash{c.ID()}); err == nil {
		t.Fatal("verifying GetBatch must reject a forged chunk")
	}
	// The raw malicious store serves the forgery without complaint.
	out, err := mal.GetBatch([]hash.Hash{c.ID()})
	if err != nil || out[0] == nil {
		t.Fatalf("malicious store should serve the forgery silently: %v", err)
	}
}

func TestFileStoreBatchRead(t *testing.T) {
	fs, err := OpenFileStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	c1 := chunk.New(chunk.TypeBlobLeaf, []byte("one"))
	c2 := chunk.New(chunk.TypeBlobLeaf, []byte("two"))
	if _, err := fs.PutBatch([]*chunk.Chunk{c1, c2}); err != nil {
		t.Fatal(err)
	}
	got, err := fs.GetBatch([]hash.Hash{c2.ID(), hash.Of([]byte("nope")), c1.ID()})
	if err != nil {
		t.Fatal(err)
	}
	if got[0] == nil || got[1] != nil || got[2] == nil {
		t.Fatalf("GetBatch over FileStore = [%v %v %v]", got[0], got[1], got[2])
	}
	if string(got[0].Data()) != "two" || string(got[2].Data()) != "one" {
		t.Fatal("wrong payloads")
	}
}
