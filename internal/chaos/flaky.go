package chaos

import (
	"fmt"
	"sync"

	"forkbase/internal/chunk"
	"forkbase/internal/hash"
	"forkbase/internal/store"
)

// FlakyStore wraps a store.Store and injects transient failures: every nth
// operation, or every operation during an outage.  Failures surface as
// store.ErrUnavailable — the transient class the retry and serving layers
// are built to absorb — never as silent corruption (that threat model is
// MaliciousStore's job).  It deliberately declares no Unwrap: a fault
// injector ends every store.As walk, so a stack containing it is never
// verify-cache-trusted and whatever it fronts stays hidden from GC, scrub
// and heal discovery.
//
// Concurrency: every knob and both counters (ops, failures) are read and
// written only under one mutex in enter(), so the fault schedule
// and its accounting stay consistent when concurrent requests, replica
// syncs or GC drive the store from many goroutines.
type FlakyStore struct {
	Inner store.Store

	mu        sync.Mutex
	failEvery int  // every nth op fails (0 = off); deterministic
	down      bool // hard outage: every op fails until lifted
	ops       int64
	failures  int64
}

var _ store.Store = (*FlakyStore)(nil)

// NewFlakyStore wraps inner.  With no knobs set it is a transparent
// pass-through.
func NewFlakyStore(inner store.Store) *FlakyStore {
	return &FlakyStore{Inner: inner}
}

// FailEvery makes every nth operation fail (0 disables).  Deterministic: the
// schedule is the op counter.
func (f *FlakyStore) FailEvery(n int) { f.mu.Lock(); f.failEvery = n; f.mu.Unlock() }

// SetDown toggles a hard outage: every operation fails until lifted.
func (f *FlakyStore) SetDown(down bool) { f.mu.Lock(); f.down = down; f.mu.Unlock() }

// Failures reports how many operations were failed by injection.
func (f *FlakyStore) Failures() int64 { f.mu.Lock(); defer f.mu.Unlock(); return f.failures }

// enter applies the per-op fault schedule: count, maybe fail.
func (f *FlakyStore) enter(op string) error {
	f.mu.Lock()
	f.ops++
	fail := f.down || (f.failEvery > 0 && f.ops%int64(f.failEvery) == 0)
	if fail {
		f.failures++
	}
	f.mu.Unlock()
	if fail {
		return fmt.Errorf("chaos: injected %s fault: %w", op, store.ErrUnavailable)
	}
	return nil
}

// Put implements store.Store.
func (f *FlakyStore) Put(c *chunk.Chunk) (bool, error) {
	if err := f.enter("put"); err != nil {
		return false, err
	}
	return f.Inner.Put(c)
}

// Get implements store.Store.
func (f *FlakyStore) Get(id hash.Hash) (*chunk.Chunk, error) {
	if err := f.enter("get"); err != nil {
		return nil, err
	}
	return f.Inner.Get(id)
}

// Has implements store.Store.
func (f *FlakyStore) Has(id hash.Hash) (bool, error) {
	if err := f.enter("has"); err != nil {
		return false, err
	}
	return f.Inner.Has(id)
}

// PutBatch implements store.Store; one injection decision covers the
// whole batch (a backend fails per request, not per record).
func (f *FlakyStore) PutBatch(cs []*chunk.Chunk) ([]bool, error) {
	if err := f.enter("putbatch"); err != nil {
		return make([]bool, len(cs)), err
	}
	return f.Inner.PutBatch(cs)
}

// GetBatch implements store.Store.
func (f *FlakyStore) GetBatch(ids []hash.Hash) ([]*chunk.Chunk, error) {
	if err := f.enter("getbatch"); err != nil {
		return nil, err
	}
	return f.Inner.GetBatch(ids)
}

// HasBatch implements store.Store.
func (f *FlakyStore) HasBatch(ids []hash.Hash) ([]bool, error) {
	if err := f.enter("hasbatch"); err != nil {
		return nil, err
	}
	return f.Inner.HasBatch(ids)
}

// Stats implements store.Store.  Never injected: health probes must see the
// store even mid-outage.
func (f *FlakyStore) Stats() store.Stats { return f.Inner.Stats() }
