package store

import (
	"errors"
	"fmt"
	"testing"

	"forkbase/internal/chunk"
	"forkbase/internal/hash"
	"forkbase/internal/obs"
)

func TestInstrumentedStoreCounts(t *testing.T) {
	reg := obs.NewRegistry()
	ms := NewMemStore()
	st := Instrument(ms, reg)

	c := chunk.New(chunk.TypeBlobLeaf, []byte("payload"))
	if _, err := st.Put(c); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Get(c.ID()); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Get(hash.Of([]byte("absent"))); err != ErrNotFound {
		t.Fatalf("get absent: %v", err)
	}
	if _, err := st.Has(c.ID()); err != nil {
		t.Fatal(err)
	}
	c2 := chunk.New(chunk.TypeBlobLeaf, []byte("batchling"))
	if _, err := st.PutBatch([]*chunk.Chunk{c2}); err != nil {
		t.Fatal(err)
	}
	if _, err := st.GetBatch([]hash.Hash{c.ID(), c2.ID()}); err != nil {
		t.Fatal(err)
	}
	if _, err := st.HasBatch([]hash.Hash{c.ID()}); err != nil {
		t.Fatal(err)
	}

	wantOps := map[string]float64{
		"get": 2, "put": 1, "has": 1, "put_batch": 1, "get_batch": 1, "has_batch": 1,
	}
	// Latency on the single-chunk paths is sampled (obs.Op times the first
	// op of every 32), so each family here records exactly one observation;
	// batch paths are always timed.
	wantTimed := map[string]float64{
		"get": 1, "put": 1, "has": 1, "put_batch": 1, "get_batch": 1, "has_batch": 1,
	}
	for op, want := range wantOps {
		if got, ok := reg.Value("forkbase_store_ops_total", "mem", op); !ok || got != want {
			t.Errorf("ops_total{mem,%s} = %v (ok=%v), want %v", op, got, ok, want)
		}
		if got, _ := reg.Value("forkbase_store_op_seconds", "mem", op); got != wantTimed[op] {
			t.Errorf("op_seconds{mem,%s} count = %v, want %v", op, got, wantTimed[op])
		}
	}
	// Bytes: writes = len("payload") + len("batchling"); reads = payload
	// once via Get plus both via GetBatch.
	if got, _ := reg.Value("forkbase_store_write_bytes_total", "mem"); got != 16 {
		t.Errorf("write_bytes = %v, want 16", got)
	}
	if got, _ := reg.Value("forkbase_store_read_bytes_total", "mem"); got != 23 {
		t.Errorf("read_bytes = %v, want 23", got)
	}
	// A not-found get is not an error.
	if got, _ := reg.Value("forkbase_store_errors_total", "mem"); got != 0 {
		t.Errorf("errors_total = %v, want 0", got)
	}
}

// TestInstrumentIdentity: a nil or Discard registry leaves the store
// unwrapped.  (Capability transparency of the wrapper itself is pinned by
// TestStackConformance.)
func TestInstrumentIdentity(t *testing.T) {
	ms := NewMemStore()
	if st := Instrument(ms, nil); st != ms {
		t.Error("nil registry should return inner unchanged")
	}
	if st := Instrument(ms, obs.Discard); st != ms {
		t.Error("Discard registry should return inner unchanged")
	}
}

// wrappingStore reports absence the way a layered store may: the sentinel
// wrapped in context, never bare.
type wrappingStore struct{ Store }

func (s wrappingStore) Get(id hash.Hash) (*chunk.Chunk, error) {
	c, err := s.Store.Get(id)
	if err != nil {
		return nil, fmt.Errorf("backend: %w", err)
	}
	return c, nil
}

// TestWrappedNotFoundIsNotAnError: not-found is classified with errors.Is,
// so a wrapped sentinel neither counts as a store error nor turns
// MaliciousStore.CorruptFlip's "unknown id" answer into a hard failure.
func TestWrappedNotFoundIsNotAnError(t *testing.T) {
	reg := obs.NewRegistry()
	inner := wrappingStore{NewMemStore()}
	absent := hash.Of([]byte("absent"))

	st := Instrument(inner, reg)
	if _, err := st.Get(absent); !errors.Is(err, ErrNotFound) || err == ErrNotFound {
		t.Fatalf("want a wrapped ErrNotFound, got %v", err)
	}
	if got, _ := reg.Value("forkbase_store_errors_total", "store"); got != 0 {
		t.Errorf("errors_total = %v after a wrapped not-found, want 0", got)
	}

	if ok, err := NewMaliciousStore(inner).CorruptFlip(absent, 0, 0); ok || err != nil {
		t.Errorf("CorruptFlip(unknown id) = %v, %v; want false, nil", ok, err)
	}
}
