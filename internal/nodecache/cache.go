// Package nodecache provides a sharded, byte-budgeted LRU cache for decoded
// immutable objects keyed by content hash: POS-Tree and MPT nodes and
// FNodes share one.  Values are untyped, so a reader checks the type of
// each hit.
//
// ForkBase chunks are immutable and content-addressed: the bytes behind a
// hash.Hash can never change, so a cache of *decoded* nodes is trivially
// coherent — there is no invalidation problem, only an eviction problem.
// This is the property (paper §II-C) that makes the read path cacheable at
// the decoded level rather than the byte level: a node is decoded at most
// once per cache residency, and every version or branch sharing that node
// (SIRI structural invariance) shares the cached decode too.
//
// The cache is sharded by the first byte of the key hash to keep lock
// contention negligible under concurrent readers; SHA-256 keys make the
// shard distribution uniform.  Each shard maintains its own LRU list and
// byte budget, so eviction never takes a global lock.
package nodecache

import (
	"fmt"
	"sync"
	"sync/atomic"

	"forkbase/internal/hash"
)

// numShards is the shard count; must be a power of two.
const numShards = 16

// entryOverhead approximates the bookkeeping bytes per cached entry (map
// slot, LRU links, key copy, interface header) that are charged against the
// byte budget in addition to the caller-reported payload size.
const entryOverhead = 120

// DefaultBytes is a reasonable budget when callers enable the cache without
// choosing one (32 MiB).
const DefaultBytes = 32 << 20

// Cache is a sharded LRU over decoded nodes.  The zero value is not usable;
// construct with New.  A nil *Cache is valid everywhere and behaves as a
// cache that never hits, so callers can thread an optional cache without
// nil checks at every site.
type Cache struct {
	shards [numShards]shard

	hits     atomic.Int64
	misses   atomic.Int64
	maxBytes int64
}

// entry is one cached node; entries form a per-shard intrusive LRU list.
type entry struct {
	key        hash.Hash
	val        any
	size       int64
	prev, next *entry
}

// shard is one lock domain: a map plus an intrusive LRU list whose root
// sentinel's next is the most recently used entry.
type shard struct {
	mu        sync.Mutex
	items     map[hash.Hash]*entry
	root      entry // sentinel: root.next = MRU, root.prev = LRU
	bytes     int64
	maxBytes  int64
	evictions int64
}

// New returns a cache with an approximate total byte budget.  Budgets
// smaller than one entry per shard still admit at least one entry per shard
// (an empty cache would be useless).  maxBytes <= 0 selects DefaultBytes.
func New(maxBytes int64) *Cache {
	if maxBytes <= 0 {
		maxBytes = DefaultBytes
	}
	c := &Cache{maxBytes: maxBytes}
	per := maxBytes / numShards
	if per < 1 {
		per = 1
	}
	for i := range c.shards {
		s := &c.shards[i]
		s.items = make(map[hash.Hash]*entry)
		s.maxBytes = per
		s.root.next = &s.root
		s.root.prev = &s.root
	}
	return c
}

func (c *Cache) shardFor(key hash.Hash) *shard {
	return &c.shards[key[0]&(numShards-1)]
}

// Get returns the cached value for key, marking it most recently used.
func (c *Cache) Get(key hash.Hash) (any, bool) {
	if c == nil {
		return nil, false
	}
	s := c.shardFor(key)
	s.mu.Lock()
	e, ok := s.items[key]
	if ok {
		s.moveToFront(e)
	}
	s.mu.Unlock()
	if !ok {
		c.misses.Add(1)
		return nil, false
	}
	c.hits.Add(1)
	return e.val, true
}

// Contains reports whether key is resident, without counting a lookup or
// refreshing its recency.
func (c *Cache) Contains(key hash.Hash) bool {
	if c == nil {
		return false
	}
	s := c.shardFor(key)
	s.mu.Lock()
	_, ok := s.items[key]
	s.mu.Unlock()
	return ok
}

// Put inserts (or refreshes) key with the given decoded value and
// approximate payload size in bytes, evicting least-recently-used entries
// as needed to respect the shard budget.
func (c *Cache) Put(key hash.Hash, val any, size int) {
	if c == nil {
		return
	}
	charged := int64(size) + entryOverhead
	s := c.shardFor(key)
	s.mu.Lock()
	if e, ok := s.items[key]; ok {
		// Same key means same immutable content; refresh recency and
		// keep the existing decode.
		s.moveToFront(e)
		s.mu.Unlock()
		return
	}
	e := &entry{key: key, val: val, size: charged}
	s.items[key] = e
	s.pushFront(e)
	s.bytes += charged
	for s.bytes > s.maxBytes && s.root.prev != e {
		victim := s.root.prev
		s.unlink(victim)
		delete(s.items, victim.key)
		s.bytes -= victim.size
		s.evictions++
	}
	s.mu.Unlock()
}

// Remove drops key if present (used by GC when the underlying chunk is
// deleted, keeping the cache from resurrecting swept data).
func (c *Cache) Remove(key hash.Hash) {
	if c == nil {
		return
	}
	s := c.shardFor(key)
	s.mu.Lock()
	if e, ok := s.items[key]; ok {
		s.unlink(e)
		delete(s.items, key)
		s.bytes -= e.size
	}
	s.mu.Unlock()
}

// Purge empties the cache, keeping hit/miss counters.
func (c *Cache) Purge() {
	if c == nil {
		return
	}
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		s.items = make(map[hash.Hash]*entry)
		s.root.next = &s.root
		s.root.prev = &s.root
		s.bytes = 0
		s.mu.Unlock()
	}
}

// Len returns the number of cached entries.
func (c *Cache) Len() int {
	if c == nil {
		return 0
	}
	n := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		n += len(s.items)
		s.mu.Unlock()
	}
	return n
}

// Stats is a point-in-time snapshot of cache effectiveness.
type Stats struct {
	Hits      int64
	Misses    int64
	Evictions int64
	Entries   int
	Bytes     int64 // charged bytes currently resident (payload + overhead)
	MaxBytes  int64 // configured total budget
}

// HitRate returns Hits/(Hits+Misses), or 0 before any lookup.
func (s Stats) HitRate() float64 {
	t := s.Hits + s.Misses
	if t == 0 {
		return 0
	}
	return float64(s.Hits) / float64(t)
}

func (s Stats) String() string {
	return fmt.Sprintf("entries=%d bytes=%d/%d hits=%d misses=%d evictions=%d rate=%.2f",
		s.Entries, s.Bytes, s.MaxBytes, s.Hits, s.Misses, s.Evictions, s.HitRate())
}

// Stats snapshots the counters.  A nil cache reports zeros.
func (c *Cache) Stats() Stats {
	if c == nil {
		return Stats{}
	}
	st := Stats{
		Hits:     c.hits.Load(),
		Misses:   c.misses.Load(),
		MaxBytes: c.maxBytes,
	}
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		st.Entries += len(s.items)
		st.Bytes += s.bytes
		st.Evictions += s.evictions
		s.mu.Unlock()
	}
	return st
}

// --- intrusive LRU list (shard lock held) ------------------------------------

func (s *shard) pushFront(e *entry) {
	e.prev = &s.root
	e.next = s.root.next
	e.prev.next = e
	e.next.prev = e
}

func (s *shard) unlink(e *entry) {
	e.prev.next = e.next
	e.next.prev = e.prev
	e.prev, e.next = nil, nil
}

func (s *shard) moveToFront(e *entry) {
	if s.root.next == e {
		return
	}
	s.unlink(e)
	s.pushFront(e)
}
