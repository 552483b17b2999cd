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

func TestChunkSinkRoundTrip(t *testing.T) {
	ms := NewMemStore()
	sink := NewChunkSink(ms, SinkOptions{BatchSize: 7})
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
	if st := sink.Stats(); st.Emitted != 300 || st.Batches != 43 {
		t.Fatalf("sink stats = %+v, want 300 chunks in 43 batches of 7", st)
	}
}

// TestChunkSinkEmitReturnsFinalID pins the contract producers build parents
// on: the id Emit returns is hash(type, payload) at once, while the chunk
// itself may still sit in the open batch.
func TestChunkSinkEmitReturnsFinalID(t *testing.T) {
	ms := NewMemStore()
	sink := NewChunkSink(ms, SinkOptions{})
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
	sink := NewChunkSink(ms, SinkOptions{BatchSize: 4})
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

// TestChunkSinkDedup checks the Has pre-check short-circuits chunks that are
// already present — they never reach the store as writes.
func TestChunkSinkDedup(t *testing.T) {
	ms := NewMemStore()
	pre := chunk.New(chunk.TypeBlobLeaf, []byte("already here"))
	ms.Put(pre)
	logicalBefore := ms.Stats().LogicalBytes

	sink := NewChunkSink(ms, SinkOptions{Dedup: true})
	defer sink.Close()
	idp, err := sink.Emit(chunk.TypeBlobLeaf, sinkEnc(chunk.TypeBlobLeaf, []byte("already here")))
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := sink.Emit(chunk.TypeBlobLeaf, sinkEnc(chunk.TypeBlobLeaf, []byte("brand new")))
	if err != nil {
		t.Fatal(err)
	}
	if err := sink.Flush(); err != nil {
		t.Fatal(err)
	}
	if idp != pre.ID() {
		t.Fatalf("dedup id mismatch: %s vs %s", idp.Short(), pre.ID().Short())
	}
	st := sink.Stats()
	if st.Deduped != 1 {
		t.Fatalf("deduped = %d, want 1", st.Deduped)
	}
	// The deduped chunk was dropped before the store: LogicalBytes unchanged
	// by it, only the fresh chunk accounted.
	if got := ms.Stats().LogicalBytes - logicalBefore; got != int64(1+len("brand new")) {
		t.Fatalf("logical delta = %d", got)
	}
	if _, err := ms.Get(fresh); err != nil {
		t.Fatalf("fresh chunk missing: %v", err)
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
	sink := NewChunkSink(fs, SinkOptions{BatchSize: 1})
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
	sink := NewChunkSink(v, SinkOptions{})
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
