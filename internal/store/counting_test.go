package store

import (
	"sync/atomic"

	"forkbase/internal/chunk"
	"forkbase/internal/hash"
)

// CountingStore is the plainest transparent wrapper: it embeds a Store,
// counts the Gets it forwards and unwraps, and forwards no optional
// capability natively — the shape of any third-party metrics shim.  The
// conformance and trust tables run it between a backend and the layers
// above (it lives in a test file, so package store_test sees it too).
type CountingStore struct {
	Store
	Gets atomic.Int64
}

// NewCountingStore wraps inner.
func NewCountingStore(inner Store) *CountingStore { return &CountingStore{Store: inner} }

// Get implements Store.
func (c *CountingStore) Get(id hash.Hash) (*chunk.Chunk, error) {
	c.Gets.Add(1)
	return c.Store.Get(id)
}

// Unwrap exposes the inner store to As.
func (c *CountingStore) Unwrap() Store { return c.Store }
