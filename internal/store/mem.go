package store

import (
	"sync"
	"sync/atomic"

	"forkbase/internal/chunk"
	"forkbase/internal/hash"
)

// MemStore is an in-memory content-addressed chunk store.
// It is safe for concurrent use.
//
// The read path is deliberately cheap: Get takes only a read lock on the
// chunk map and bumps the retrieval counter atomically, so concurrent
// readers never serialize on each other — the property the paper's "reads
// scale with cores" traffic model depends on.
type MemStore struct {
	mu     sync.RWMutex
	chunks map[hash.Hash]*chunk.Chunk
	stats  Stats // Gets excluded; tracked in gets
	gets   atomic.Int64
}

var _ Store = (*MemStore)(nil)

// NewMemStore returns an empty in-memory store.
func NewMemStore() *MemStore {
	return &MemStore{chunks: make(map[hash.Hash]*chunk.Chunk)}
}

// VerifyCacheTrusted implements VerifyCacheTruster: the store is this
// process's own memory, and the bytes behind an id never change once stored
// (Repair re-verifies before replacing), so no placement epoch is needed.
func (s *MemStore) VerifyCacheTrusted() bool { return true }

// Put implements Store.
func (m *MemStore) Put(c *chunk.Chunk) (bool, error) {
	if err := checkSizes(c); err != nil {
		return false, err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.stats.LogicalBytes += int64(c.Size())
	if _, ok := m.chunks[c.ID()]; ok {
		m.stats.DedupHits++
		return false, nil
	}
	m.chunks[c.ID()] = c
	m.stats.UniqueChunks++
	m.stats.PhysicalBytes += int64(c.Size())
	return true, nil
}

// PutBatch implements Store: the whole batch is applied under one
// write-lock acquisition instead of one per chunk, so bulk ingest does not
// convoy concurrent readers on the mutex.
func (m *MemStore) PutBatch(cs []*chunk.Chunk) ([]bool, error) {
	fresh := make([]bool, len(cs))
	if err := checkSizes(cs...); err != nil {
		return fresh, err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	for i, c := range cs {
		m.stats.LogicalBytes += int64(c.Size())
		if _, ok := m.chunks[c.ID()]; ok {
			m.stats.DedupHits++
			continue
		}
		m.chunks[c.ID()] = c
		m.stats.UniqueChunks++
		m.stats.PhysicalBytes += int64(c.Size())
		fresh[i] = true
	}
	return fresh, nil
}

// Get implements Store.  Concurrent Gets proceed in parallel under a shared
// read lock; the stats counter is atomic so no writer lock is needed.
func (m *MemStore) Get(id hash.Hash) (*chunk.Chunk, error) {
	m.mu.RLock()
	c, ok := m.chunks[id]
	m.mu.RUnlock()
	m.gets.Add(1)
	if !ok {
		return nil, ErrNotFound
	}
	return c, nil
}

// GetBatch implements Store: one read-lock round for the whole
// batch; absent ids yield nil slots.
func (m *MemStore) GetBatch(ids []hash.Hash) ([]*chunk.Chunk, error) {
	out := make([]*chunk.Chunk, len(ids))
	m.mu.RLock()
	for i, id := range ids {
		out[i] = m.chunks[id] // nil when absent
	}
	m.mu.RUnlock()
	m.gets.Add(int64(len(ids)))
	return out, nil
}

// Has implements Store.
func (m *MemStore) Has(id hash.Hash) (bool, error) {
	m.mu.RLock()
	_, ok := m.chunks[id]
	m.mu.RUnlock()
	return ok, nil
}

// HasBatch implements Store under one read-lock round.
func (m *MemStore) HasBatch(ids []hash.Hash) ([]bool, error) {
	out := make([]bool, len(ids))
	m.mu.RLock()
	for i, id := range ids {
		_, out[i] = m.chunks[id]
	}
	m.mu.RUnlock()
	return out, nil
}

// Stats implements Store.
func (m *MemStore) Stats() Stats {
	m.mu.RLock()
	s := m.stats
	m.mu.RUnlock()
	s.Gets = m.gets.Load()
	return s
}

// Len returns the number of distinct chunks.
func (m *MemStore) Len() int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return len(m.chunks)
}

// IDs returns the ids of all stored chunks (order unspecified), for tests.
func (m *MemStore) IDs() []hash.Hash {
	m.mu.RLock()
	defer m.mu.RUnlock()
	out := make([]hash.Hash, 0, len(m.chunks))
	for id := range m.chunks {
		out = append(out, id)
	}
	return out
}

// Sweep implements Collector: every chunk keep rejects is removed under a
// single lock round; reclaimed bytes equal swept bytes.  Chunks staged
// outside fenced engine operations are collectable until their head
// publishes them.
func (m *MemStore) Sweep(keep func(hash.Hash) bool) (SweepStats, error) {
	var res SweepStats
	m.mu.Lock()
	defer m.mu.Unlock()
	for id, c := range m.chunks {
		if keep(id) {
			continue
		}
		delete(m.chunks, id)
		res.Swept++
		res.SweptBytes += int64(c.Size())
		res.SweptIDs = append(res.SweptIDs, id)
		m.stats.UniqueChunks--
		m.stats.PhysicalBytes -= int64(c.Size())
	}
	res.ReclaimedBytes = res.SweptBytes
	return res, nil
}

var _ Collector = (*MemStore)(nil)
var _ Repairer = (*MemStore)(nil)

// Repair implements Repairer: overwrite (or insert) the entry for c's id
// with a freshly verified copy.  Put would dedup-hit against a damaged
// resident entry; Repair replaces it.
func (m *MemStore) Repair(c *chunk.Chunk) error {
	if err := c.Recheck(); err != nil {
		return err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if old, ok := m.chunks[c.ID()]; ok {
		m.stats.PhysicalBytes -= int64(old.Size())
	} else {
		m.stats.UniqueChunks++
	}
	m.chunks[c.ID()] = c
	m.stats.PhysicalBytes += int64(c.Size())
	return nil
}

// Delete removes a chunk, for tests that lose one; it is a no-op if absent.
func (m *MemStore) Delete(id hash.Hash) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if c, ok := m.chunks[id]; ok {
		m.stats.UniqueChunks--
		m.stats.PhysicalBytes -= int64(c.Size())
		delete(m.chunks, id)
	}
}
