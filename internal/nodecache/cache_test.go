package nodecache

import (
	"fmt"
	"sync"
	"testing"

	"forkbase/internal/hash"
)

// sameShardHash derives hashes that all land in shard 0, so LRU order is
// deterministic within one test.
func sameShardHash(i int) hash.Hash {
	h := hash.Of([]byte(fmt.Sprintf("key-%d", i)))
	h[0] = 0
	return h
}

func TestGetPutBasics(t *testing.T) {
	c := New(1 << 20)
	k := sameShardHash(1)
	if _, ok := c.Get(k); ok {
		t.Fatal("hit on empty cache")
	}
	c.Put(k, "v1", 10)
	v, ok := c.Get(k)
	if !ok || v.(string) != "v1" {
		t.Fatalf("get = %v %v", v, ok)
	}
	// Re-put of the same key keeps the original decode (same content hash
	// implies same content).
	c.Put(k, "v2", 10)
	v, _ = c.Get(k)
	if v.(string) != "v1" {
		t.Fatalf("re-put replaced immutable entry: %v", v)
	}
	if c.Len() != 1 {
		t.Fatalf("len = %d", c.Len())
	}
	st := c.Stats()
	if st.Hits != 2 || st.Misses != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if st.HitRate() < 0.6 || st.HitRate() > 0.7 {
		t.Fatalf("hit rate = %f", st.HitRate())
	}
}

func TestEvictionOrderLRU(t *testing.T) {
	// Budget sized so one shard holds exactly three entries of size 100.
	per := int64(3 * (100 + entryOverhead))
	c := New(per * numShards)
	a, b, d, e := sameShardHash(1), sameShardHash(2), sameShardHash(3), sameShardHash(4)

	c.Put(a, "a", 100)
	c.Put(b, "b", 100)
	c.Put(d, "d", 100)
	// Touch a: the LRU victim is now b.
	if _, ok := c.Get(a); !ok {
		t.Fatal("a missing")
	}
	c.Put(e, "e", 100)

	if _, ok := c.Get(b); ok {
		t.Fatal("b should have been evicted (LRU)")
	}
	for _, k := range []hash.Hash{a, d, e} {
		if _, ok := c.Get(k); !ok {
			t.Fatalf("entry %x unexpectedly evicted", k[:4])
		}
	}
	if ev := c.Stats().Evictions; ev != 1 {
		t.Fatalf("evictions = %d", ev)
	}
}

// TestContainsIsNotALookup: Contains answers residency without counting a
// hit or a miss and without saving its key from eviction.
func TestContainsIsNotALookup(t *testing.T) {
	per := int64(2 * (100 + entryOverhead))
	c := New(per * numShards)
	a, b, d := sameShardHash(1), sameShardHash(2), sameShardHash(3)
	c.Put(a, "a", 100)
	c.Put(b, "b", 100)
	if !c.Contains(a) || !c.Contains(b) || c.Contains(d) {
		t.Fatal("Contains disagrees with what was put")
	}
	c.Put(d, "d", 100) // a stays least recently used despite Contains(a)
	if c.Contains(a) {
		t.Fatal("Contains refreshed a's recency")
	}
	if st := c.Stats(); st.Hits != 0 || st.Misses != 0 {
		t.Fatalf("Contains counted lookups: %+v", st)
	}
}

func TestByteBudgetAccounting(t *testing.T) {
	budget := int64(64 << 10)
	c := New(budget)
	for i := 0; i < 10000; i++ {
		c.Put(hash.Of([]byte(fmt.Sprintf("k%d", i))), i, 512)
	}
	st := c.Stats()
	if st.Bytes > budget {
		t.Fatalf("resident bytes %d exceed budget %d", st.Bytes, budget)
	}
	if st.Entries == 0 || st.Evictions == 0 {
		t.Fatalf("expected residency and evictions, got %+v", st)
	}
	// Accounting must drain to zero when everything is removed.
	for i := 0; i < 10000; i++ {
		c.Remove(hash.Of([]byte(fmt.Sprintf("k%d", i))))
	}
	st = c.Stats()
	if st.Entries != 0 || st.Bytes != 0 {
		t.Fatalf("after removal: %+v", st)
	}
}

func TestOversizedEntryStillAdmitted(t *testing.T) {
	c := New(numShards * 64) // tiny per-shard budget
	k := sameShardHash(1)
	c.Put(k, "big", 1<<20)
	if _, ok := c.Get(k); !ok {
		t.Fatal("an entry larger than the shard budget must still be admitted")
	}
	// The next insert evicts it.
	c.Put(sameShardHash(2), "next", 1)
	if _, ok := c.Get(k); ok {
		t.Fatal("oversized entry should be first out")
	}
}

func TestPurge(t *testing.T) {
	c := New(1 << 20)
	for i := 0; i < 100; i++ {
		c.Put(hash.Of([]byte(fmt.Sprintf("p%d", i))), i, 100)
	}
	c.Purge()
	if c.Len() != 0 || c.Stats().Bytes != 0 {
		t.Fatalf("purge left %d entries, %d bytes", c.Len(), c.Stats().Bytes)
	}
}

func TestNilCacheSafe(t *testing.T) {
	var c *Cache
	if _, ok := c.Get(sameShardHash(1)); ok {
		t.Fatal("nil cache hit")
	}
	c.Put(sameShardHash(1), 1, 1)
	if c.Contains(sameShardHash(1)) {
		t.Fatal("nil cache contains a key")
	}
	c.Remove(sameShardHash(1))
	c.Purge()
	if c.Len() != 0 {
		t.Fatal("nil len")
	}
	if st := c.Stats(); st != (Stats{}) {
		t.Fatalf("nil stats = %+v", st)
	}
}

func TestConcurrentGetPut(t *testing.T) {
	c := New(256 << 10)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				k := hash.Of([]byte(fmt.Sprintf("c%d", (g*31+i)%500)))
				if v, ok := c.Get(k); ok {
					if v.(int) != int(k[1]) {
						t.Errorf("cache returned wrong value")
						return
					}
				} else if !c.Contains(k) {
					c.Put(k, int(k[1]), 256)
				}
				if i%97 == 0 {
					c.Remove(k)
				}
			}
		}(g)
	}
	wg.Wait()
	st := c.Stats()
	if st.Bytes < 0 || st.Bytes > c.maxBytes {
		t.Fatalf("byte accounting drifted: %+v", st)
	}
}
