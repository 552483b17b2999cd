package store

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"forkbase/internal/hash"
)

// TestFileStoreSyncPolicies pins durability plumbing for every policy:
// concurrent writers commit batches, the store closes, and a reopen must
// see every chunk.  (Crash-window semantics differ per policy; what must
// never differ is that an fsynced, cleanly closed store loses nothing.)
func TestFileStoreSyncPolicies(t *testing.T) {
	policies := map[string]FileStoreOptions{
		"none":   {SyncPolicy: SyncNone},
		"always": {SyncPolicy: SyncAlways},
	}
	for name, opts := range policies {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			opts.SegmentSize = 4096
			s, err := OpenFileStoreWith(dir, opts)
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
}

// TestGroupSyncerCoalesces pins the leader-cohort shape deterministically:
// the first caller leads and fsyncs; waiters arriving while that round runs
// are all covered by exactly one follow-up round.
func TestGroupSyncerCoalesces(t *testing.T) {
	var g groupSyncer
	var calls atomic.Int32
	firstRunning := make(chan struct{})
	release := make(chan struct{})
	do := func() error {
		if calls.Add(1) == 1 {
			close(firstRunning)
			<-release
		}
		return nil
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { defer wg.Done(); g.sync(do) }() // leader
	<-firstRunning
	const cohort = 10
	for i := 0; i < cohort; i++ {
		wg.Add(1)
		go func() { defer wg.Done(); g.sync(do) }()
	}
	// Wait until the whole cohort is enqueued behind the in-flight round.
	for {
		g.mu.Lock()
		n := len(g.waiters)
		g.mu.Unlock()
		if n == cohort {
			break
		}
		time.Sleep(100 * time.Microsecond)
	}
	close(release)
	wg.Wait()
	if got := calls.Load(); got != 2 {
		t.Fatalf("do() ran %d times; want 2 (leader round + one coalesced cohort round)", got)
	}
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
