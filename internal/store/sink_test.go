package store

import (
	"errors"
	"fmt"
	"testing"

	"forkbase/internal/chunk"
	"forkbase/internal/hash"
)

// sinkEnc renders the [type][payload] encoding Emit expects.
func sinkEnc(t chunk.Type, payload []byte) []byte {
	enc := make([]byte, 0, 1+len(payload))
	enc = append(enc, byte(t))
	return append(enc, payload...)
}

// batchCounter counts the PutBatch calls that reach the store.
type batchCounter struct {
	Store
	batches int
}

func (b *batchCounter) PutBatch(cs []*chunk.Chunk) ([]bool, error) {
	b.batches++
	return b.Store.PutBatch(cs)
}

func TestChunkSinkRoundTrip(t *testing.T) {
	ms := NewMemStore()
	bc := &batchCounter{Store: ms}
	sink := NewChunkSink(bc)
	sink.size = 7
	defer sink.Close()

	var ids []hash.Hash
	for i := 0; i < 300; i++ {
		payload := []byte(fmt.Sprintf("payload-%d", i))
		id, err := sink.Emit(chunk.TypeBlobLeaf, sinkEnc(chunk.TypeBlobLeaf, payload))
		if err != nil {
			t.Fatal(err)
		}
		if want := chunk.New(chunk.TypeBlobLeaf, payload).ID(); id != want {
			t.Fatalf("chunk %d: sink id %s, want %s", i, id.Short(), want.Short())
		}
		ids = append(ids, id)
	}
	if err := sink.Flush(); err != nil {
		t.Fatal(err)
	}
	for i, id := range ids {
		c, err := ms.Get(id)
		if err != nil {
			t.Fatalf("chunk %d not landed: %v", i, err)
		}
		if err := c.Recheck(); err != nil {
			t.Fatal(err)
		}
	}
	if n := ms.Stats().UniqueChunks; n != 300 || bc.batches != 43 {
		t.Fatalf("%d chunks in %d batches, want 300 in 43 batches of 7", n, bc.batches)
	}
}

// TestChunkSinkEmitReturnsFinalID pins the contract producers build parents
// on: the id Emit returns is hash(type, payload) at once, while the chunk
// itself may still sit in the open batch.
func TestChunkSinkEmitReturnsFinalID(t *testing.T) {
	ms := NewMemStore()
	sink := NewChunkSink(ms)
	defer sink.Close()
	payload := []byte("not flushed yet")
	id, err := sink.Emit(chunk.TypeMapLeaf, sinkEnc(chunk.TypeMapLeaf, payload))
	if err != nil {
		t.Fatal(err)
	}
	if want := hash.SumTagged(byte(chunk.TypeMapLeaf), payload); id != want {
		t.Fatalf("Emit returned %s before Flush, want %s", id.Short(), want.Short())
	}
	if ok, _ := ms.Has(id); ok {
		t.Fatal("a one-chunk batch reached the store before Flush")
	}
	if err := sink.Flush(); err != nil {
		t.Fatal(err)
	}
	if ok, _ := ms.Has(id); !ok {
		t.Fatal("chunk missing after Flush")
	}
}

// TestChunkSinkBorrowsScratch proves Emit copies what it keeps: the producer
// reuses (and clobbers) one buffer for every emission.
func TestChunkSinkBorrowsScratch(t *testing.T) {
	ms := NewMemStore()
	sink := NewChunkSink(ms)
	sink.size = 4
	defer sink.Close()
	scratch := make([]byte, 0, 64)
	var want []hash.Hash
	for i := 0; i < 50; i++ {
		scratch = scratch[:0]
		scratch = append(scratch, byte(chunk.TypeBlobLeaf))
		scratch = append(scratch, []byte(fmt.Sprintf("scratch-%d", i))...)
		want = append(want, hash.Of(scratch))
		if _, err := sink.Emit(chunk.TypeBlobLeaf, scratch); err != nil {
			t.Fatal(err)
		}
	}
	if err := sink.Flush(); err != nil {
		t.Fatal(err)
	}
	for i, id := range want {
		c, err := ms.Get(id)
		if err != nil {
			t.Fatalf("emission %d lost: %v", i, err)
		}
		if got := fmt.Sprintf("scratch-%d", i); string(c.Data()) != got {
			t.Fatalf("emission %d stored %q, want %q: the sink kept the borrowed buffer", i, c.Data(), got)
		}
	}
}

// TestChunkSinkDedup: the store's put is the only dedup.  A re-emitted chunk
// reaches PutBatch like any other and lands once — no second copy, one more
// dedup hit, and its size in the logical (pre-dedup) byte count.
func TestChunkSinkDedup(t *testing.T) {
	for _, tc := range []struct {
		name string
		open func(t *testing.T) Store
	}{
		{"mem", func(*testing.T) Store { return NewMemStore() }},
		{"file", func(t *testing.T) Store {
			fs, err := OpenFileStore(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { fs.Close() })
			return fs
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			st := tc.open(t)
			pre := chunk.New(chunk.TypeBlobLeaf, []byte("already here"))
			if _, err := st.Put(pre); err != nil {
				t.Fatal(err)
			}
			before := st.Stats()

			bc := &batchCounter{Store: st}
			sink := NewChunkSink(bc)
			defer sink.Close()
			id, err := sink.Emit(chunk.TypeBlobLeaf, sinkEnc(chunk.TypeBlobLeaf, []byte("already here")))
			if err != nil {
				t.Fatal(err)
			}
			if err := sink.Flush(); err != nil {
				t.Fatal(err)
			}
			if id != pre.ID() {
				t.Fatalf("re-emitted id %s, want %s", id.Short(), pre.ID().Short())
			}
			if bc.batches != 1 {
				t.Fatalf("%d batches reached the store, want the re-emitted chunk in one", bc.batches)
			}
			after := st.Stats()
			if after.UniqueChunks != before.UniqueChunks || after.PhysicalBytes != before.PhysicalBytes {
				t.Fatalf("re-emitted chunk stored twice: %v -> %v", before, after)
			}
			if after.DedupHits != before.DedupHits+1 {
				t.Fatalf("dedup hits %d -> %d, want +1", before.DedupHits, after.DedupHits)
			}
			if got := after.LogicalBytes - before.LogicalBytes; got != int64(pre.Size()) {
				t.Fatalf("logical bytes +%d, want +%d", got, pre.Size())
			}
		})
	}
}

// failingStore errors on the nth put.
type failingStore struct {
	*MemStore
	failAfter int
	puts      int
}

func (f *failingStore) Put(c *chunk.Chunk) (bool, error) {
	f.puts++
	if f.puts > f.failAfter {
		return false, errors.New("boom")
	}
	return f.MemStore.Put(c)
}

// PutBatch shadows the embedded MemStore batch path so the failure injection
// applies to batched writes too.
func (f *failingStore) PutBatch(cs []*chunk.Chunk) ([]bool, error) {
	fresh := make([]bool, len(cs))
	for i, c := range cs {
		fr, err := f.Put(c)
		if err != nil {
			return fresh, err
		}
		fresh[i] = fr
	}
	return fresh, nil
}

func TestChunkSinkStickyError(t *testing.T) {
	fs := &failingStore{MemStore: NewMemStore(), failAfter: 2}
	sink := NewChunkSink(fs)
	sink.size = 1
	defer sink.Close()
	for i := 0; i < 5; i++ {
		sink.Emit(chunk.TypeBlobLeaf, sinkEnc(chunk.TypeBlobLeaf, []byte(fmt.Sprintf("c%d", i))))
	}
	if err := sink.Flush(); err == nil {
		t.Fatal("flush after store failure returned nil")
	}
	if _, err := sink.Emit(chunk.TypeBlobLeaf, sinkEnc(chunk.TypeBlobLeaf, []byte("later"))); err == nil {
		t.Fatal("emit after failure returned nil")
	}
}

// TestChunkSinkThroughVerifyingLayer: chunks emitted through a sink over the
// verifying wrapper land via the wrapper (the batch path composes with the
// layering), and a forged claimed chunk slipped into a batch is rejected.
func TestChunkSinkThroughVerifyingLayer(t *testing.T) {
	inner := NewMemStore()
	v := NewVerifyingStore(inner)
	sink := NewChunkSink(v)
	defer sink.Close()
	idp, err := sink.Emit(chunk.TypeBlobLeaf, sinkEnc(chunk.TypeBlobLeaf, []byte("honest")))
	if err != nil {
		t.Fatal(err)
	}
	if err := sink.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, err := inner.Get(idp); err != nil {
		t.Fatalf("honest chunk missing below verifier: %v", err)
	}
}
