package store

import (
	"sync"
	"testing"

	"forkbase/internal/hash"
)

// TestFileStoreSyncPolicies pins durability plumbing: concurrent writers
// commit, the store closes, and a reopen must see every chunk — a cleanly
// closed store loses nothing.
func TestFileStoreSyncPolicies(t *testing.T) {
	// The one policy left writes without a per-Put fsync; the case keeps
	// its name from when the store had a policy switch.
	t.Run("none", func(t *testing.T) {
		dir := t.TempDir()
		s, err := OpenFileStoreWith(dir, FileStoreOptions{SegmentSize: 4096})
		if err != nil {
			t.Fatal(err)
		}
		const writers, perWriter = 8, 25
		var wg sync.WaitGroup
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; i < perWriter; i++ {
					if _, err := s.Put(fileChunk(w*1000 + i)); err != nil {
						panic(err)
					}
				}
			}(w)
		}
		wg.Wait()
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		s2, err := OpenFileStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		defer s2.Close()
		if got, want := s2.Len(), writers*perWriter; got != want {
			t.Fatalf("reopen sees %d chunks, want %d", got, want)
		}
		for w := 0; w < writers; w++ {
			for i := 0; i < perWriter; i++ {
				if _, err := s2.Get(fileChunk(w*1000 + i).ID()); err != nil {
					t.Fatalf("chunk (%d,%d) lost: %v", w, i, err)
				}
			}
		}
	})
}

// TestSweepMovedAccounting pins the compaction accounting the parallel
// liveness phase feeds: MovedIDs must name exactly the surviving chunks of
// rewritten segments, MovedBytes their on-disk volume, and every moved
// chunk must remain readable.
func TestSweepMovedAccounting(t *testing.T) {
	s, err := OpenFileStoreWith(t.TempDir(), FileStoreOptions{SegmentSize: 2048})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ids := fillSegments(t, s, 200)
	keep := map[hash.Hash]bool{}
	for i, id := range ids {
		if i%2 == 0 {
			keep[id] = true
		}
	}
	res, err := s.Sweep(sweepKeep(keep))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.MovedIDs) == 0 || res.MovedBytes <= 0 {
		t.Fatalf("compaction moved nothing: %+v", res)
	}
	seen := map[hash.Hash]bool{}
	for _, id := range res.MovedIDs {
		if !keep[id] {
			t.Fatalf("swept chunk %s reported as moved", id.Short())
		}
		if seen[id] {
			t.Fatalf("chunk %s reported moved twice", id.Short())
		}
		seen[id] = true
		if _, err := s.Get(id); err != nil {
			t.Fatalf("moved chunk %s unreadable: %v", id.Short(), err)
		}
	}
	var liveBytes int64
	for _, id := range res.MovedIDs {
		c, err := s.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		// Each record is header + payload; MovedBytes counts on-disk spans,
		// so it must be at least the summed payload size.
		liveBytes += int64(len(c.Data()))
	}
	if res.MovedBytes < liveBytes {
		t.Fatalf("MovedBytes %d < summed payloads %d", res.MovedBytes, liveBytes)
	}
}
