package core

import (
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"

	"forkbase/internal/hash"
	"forkbase/internal/value"
)

func h(b byte) hash.Hash {
	var out hash.Hash
	out[0] = b
	return out
}

func TestFeedAppendSince(t *testing.T) {
	f := NewFeed(8)
	if got := f.Seq(); got != 0 {
		t.Fatalf("empty feed seq = %d, want 0", got)
	}
	for i := 1; i <= 5; i++ {
		seq := f.Append(FeedEntry{Key: "k", Branch: "master", Old: h(byte(i - 1)), New: h(byte(i))})
		if seq != uint64(i) {
			t.Fatalf("append %d assigned seq %d", i, seq)
		}
	}
	entries, next, truncated := f.Since(2, 0)
	if truncated {
		t.Fatal("unexpected truncation")
	}
	if len(entries) != 3 || entries[0].Seq != 3 || next != 5 {
		t.Fatalf("Since(2) = %d entries first=%v next=%d", len(entries), entries[0].Seq, next)
	}
	// Limited read advances the cursor only as far as it returned.
	entries, next, _ = f.Since(0, 2)
	if len(entries) != 2 || next != 2 {
		t.Fatalf("Since(0,2) = %d entries next=%d", len(entries), next)
	}
	// Cursor at the tip: nothing, no truncation.
	entries, next, truncated = f.Since(5, 0)
	if len(entries) != 0 || next != 5 || truncated {
		t.Fatalf("Since(tip) = %d entries next=%d truncated=%v", len(entries), next, truncated)
	}
}

func TestFeedTruncation(t *testing.T) {
	f := NewFeed(4)
	for i := 1; i <= 10; i++ {
		f.Append(FeedEntry{Key: "k", Branch: "master", New: h(byte(i))})
	}
	// Entries 1..6 have been evicted; a cursor inside the hole truncates.
	if _, _, truncated := f.Since(2, 0); !truncated {
		t.Fatal("cursor in evicted range should report truncation")
	}
	entries, next, truncated := f.Since(6, 0)
	if truncated || len(entries) != 4 || next != 10 {
		t.Fatalf("Since(6) = %d entries next=%d truncated=%v", len(entries), next, truncated)
	}
	// A cursor beyond the tip (feed restarted, replica remembers more) also
	// truncates rather than silently waiting forever.
	fresh := NewFeed(4)
	if _, _, truncated := fresh.Since(3, 0); !truncated {
		t.Fatal("cursor beyond a fresh feed's tip should report truncation")
	}
}

func TestFeedWait(t *testing.T) {
	f := NewFeed(8)
	if f.Wait(0, 10*time.Millisecond, nil) {
		t.Fatal("Wait on empty feed should time out")
	}
	done := make(chan bool, 1)
	go func() { done <- f.Wait(0, 2*time.Second, nil) }()
	time.Sleep(5 * time.Millisecond)
	f.Append(FeedEntry{Key: "k", Branch: "master", New: h(1)})
	select {
	case ok := <-done:
		if !ok {
			t.Fatal("Wait should observe the append")
		}
	case <-time.After(time.Second):
		t.Fatal("Wait did not wake on append")
	}
	// Already-satisfied cursor returns immediately.
	if !f.Wait(0, 0, nil) {
		t.Fatal("Wait with satisfied cursor should return true")
	}
}

// TestFeedLeases: the heads a lease holds are the Old of every retained
// entry after its cursor.  A read sets the cursor, a probe only creates or
// renews the lease, the oldest live lease decides, and a lapsed lease (or
// none) holds nothing.
func TestFeedLeases(t *testing.T) {
	f := NewFeed(8)
	for i := 1; i <= 5; i++ { // entry i moves the branch from h(i-1) to h(i); h(0) is zero
		f.Append(FeedEntry{Key: "k", Branch: "master", Old: h(byte(i - 1)), New: h(byte(i))})
	}
	held := func() []hash.Hash { return f.leasedRoots() }
	want := func(what string, roots ...hash.Hash) {
		t.Helper()
		if got := held(); fmt.Sprint(got) != fmt.Sprint(roots) {
			t.Fatalf("%s: held %v, want %v", what, got, roots)
		}
	}
	want("no lease")
	f.Read(0, FeedCursor{}, -1, 0, nil)
	f.Read(0, FeedCursor{Seq: 3}, 0, 0, nil)
	want("lease 0 is no lease")

	tip := FeedCursor{Epoch: f.epoch, Seq: 5}
	f.Read(1, FeedCursor{}, -1, 0, nil)
	want("a new lease holds every retained Old", h(1), h(2), h(3), h(4))
	f.Read(1, FeedCursor{Epoch: f.epoch, Seq: 3}, 0, 0, nil)
	want("a read sets the cursor", h(3), h(4))
	f.Read(1, FeedCursor{}, -1, 0, nil)
	want("a probe leaves it", h(3), h(4))
	f.Read(2, tip, 0, 0, nil)
	want("the oldest lease decides", h(3), h(4))
	f.Read(1, tip, 0, 0, nil)
	want("both at the tip")
	f.Read(2, FeedCursor{Epoch: f.epoch + 1, Seq: 5}, 0, 0, nil)
	want("another incarnation's cursor holds every retained Old", h(1), h(2), h(3), h(4))

	f.ttl = -time.Nanosecond // every renewal from here on has already lapsed
	f.Read(1, FeedCursor{}, -1, 0, nil)
	f.Read(2, FeedCursor{Seq: 4}, 0, 0, nil)
	want("lapsed")
	f.ttl = DefaultLease
	f.Read(1, FeedCursor{}, -1, 0, nil)
	want("a probe after the lapse starts over", h(1), h(2), h(3), h(4))
}

func TestFeedTableJournalsEngineWrites(t *testing.T) {
	db := Open(Options{})
	feed := db.Feed()
	if feed == nil {
		t.Fatal("engine must always carry a feed")
	}
	v1, err := db.Put("k", "", value.String("a"), nil)
	if err != nil {
		t.Fatal(err)
	}
	v2, err := db.Put("k", "", value.String("b"), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Branch("k", "dev", ""); err != nil {
		t.Fatal(err)
	}
	if err := db.RenameBranch("k", "dev", "dev2"); err != nil {
		t.Fatal(err)
	}
	if err := db.DeleteBranch("k", "dev2"); err != nil {
		t.Fatal(err)
	}
	entries, next, truncated := feed.Since(0, 0)
	if truncated {
		t.Fatal("unexpected truncation")
	}
	// put, put, branch, rename (delete+create), delete = 6 entries.
	if len(entries) != 6 || next != 6 {
		t.Fatalf("journal has %d entries (next=%d), want 6", len(entries), next)
	}
	if entries[0].New != v1.UID || !entries[0].Old.IsZero() {
		t.Fatalf("entry 0 = %+v, want creation of %s", entries[0], v1.UID.Short())
	}
	if entries[1].Old != v1.UID || entries[1].New != v2.UID {
		t.Fatalf("entry 1 = %+v, want %s -> %s", entries[1], v1.UID.Short(), v2.UID.Short())
	}
	if entries[2].Branch != "dev" || entries[2].New != v2.UID {
		t.Fatalf("entry 2 = %+v, want dev created at %s", entries[2], v2.UID.Short())
	}
	if !entries[3].New.IsZero() || entries[3].Branch != "dev" {
		t.Fatalf("entry 3 = %+v, want delete of dev", entries[3])
	}
	if entries[4].Branch != "dev2" || entries[4].New != v2.UID {
		t.Fatalf("entry 4 = %+v, want dev2 created at %s", entries[4], v2.UID.Short())
	}
	if !entries[5].New.IsZero() || entries[5].Branch != "dev2" {
		t.Fatalf("entry 5 = %+v, want delete of dev2", entries[5])
	}
}

func TestFeedTableRewrapKeepsSequence(t *testing.T) {
	bt := NewMemBranchTable()
	feed := NewFeed(16)
	wrapped := WithFeed(bt, feed)
	if again := WithFeed(wrapped, NewFeed(16)); again != wrapped {
		t.Fatal("re-wrapping a FeedTable must return it unchanged")
	}
	db := Open(Options{Branches: wrapped})
	if db.Feed() != feed {
		t.Fatal("engine must adopt the caller's feed")
	}
	if _, err := db.Put("k", "", value.String("x"), nil); err != nil {
		t.Fatal(err)
	}
	if feed.Seq() != 1 {
		t.Fatalf("shared feed seq = %d, want 1", feed.Seq())
	}
}

// TestGCKeepsLeasedHeads: a head a follower may still be pulling — current
// at its lease's cursor — survives GC after its branch is deleted, until the
// follower reads on past the deletion.
func TestGCKeepsLeasedHeads(t *testing.T) {
	db := Open(Options{})
	v, err := db.Put("k", "doomed", value.String("payload"), nil)
	if err != nil {
		t.Fatal(err)
	}
	// A follower read the feed up to the put and is pulling its head.
	const lease = 7
	_, cursor, _ := db.Feed().Read(lease, FeedCursor{}, 0, 0, nil)
	if err := db.DeleteBranch("k", "doomed"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.GC(); err != nil {
		t.Fatal(err)
	}
	if _, err := db.GetVersion("k", v.UID); err != nil {
		t.Fatalf("leased head was collected: %v", err)
	}
	// The follower reads on: the deletion is behind its cursor, and the next
	// pass collects the head.
	db.Feed().Read(lease, cursor, 0, 0, nil)
	db.Feed().Read(lease, FeedCursor{Epoch: cursor.Epoch, Seq: db.Feed().Seq()}, 0, 0, nil)
	if _, err := db.GC(); err != nil {
		t.Fatal(err)
	}
	if _, err := db.GetVersion("k", v.UID); err == nil {
		t.Fatal("garbage head survived GC after the lease moved past it")
	}
}

// TestFeedReplayMatchesTable is the convergence invariant replication rests
// on: after arbitrary concurrent head movements, applying the *last* feed
// entry per branch must reproduce the table's final heads exactly.  This is
// what FeedTable's mutation+journal critical section buys — without it, two
// CAS wins could journal in the opposite order and park replicas on the
// older head forever.
func TestFeedReplayMatchesTable(t *testing.T) {
	feed := NewFeed(100000)
	table := WithFeed(NewMemBranchTable(), feed)
	var wg sync.WaitGroup
	// CAS writers hammering one branch per goroutine plus a shared branch.
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			own := fmt.Sprintf("own-%d", w)
			var ownHead, sharedHead hash.Hash
			for i := 0; i < 100; i++ {
				next := h(byte(w*101 + i + 1))
				if ok, _ := table.CompareAndSet("k", own, ownHead, next); ok {
					ownHead = next
				}
				// Shared branch: read-modify-write with retries.
				cur, _, _ := table.Head("k", "shared")
				if ok, _ := table.CompareAndSet("k", "shared", cur, next); ok {
					sharedHead = next
				}
				_ = sharedHead
			}
		}(w)
	}
	// Rename churn against the writers.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			tmp := fmt.Sprintf("own-0-moved-%d", i)
			uid, ok, _ := table.Head("k", "own-0")
			if !ok {
				continue
			}
			if ok, _ := table.Apply(renameOps("k", "own-0", tmp, uid)); ok {
				table.Apply(renameOps("k", tmp, "own-0", uid))
			}
		}
	}()
	wg.Wait()

	// Replay: last entry per branch wins (what a replica's tail applies).
	entries, _, truncated := feed.Since(0, 0)
	if truncated {
		t.Fatal("feed window too small for the test")
	}
	replayed := make(map[string]hash.Hash)
	for _, e := range entries {
		if e.Key != "k" {
			t.Fatalf("unexpected key %q", e.Key)
		}
		if e.New.IsZero() {
			delete(replayed, e.Branch)
		} else {
			replayed[e.Branch] = e.New
		}
	}
	final, err := table.Branches("k")
	if err != nil {
		t.Fatal(err)
	}
	if len(replayed) != len(final) {
		t.Fatalf("replay has %d branches, table has %d", len(replayed), len(final))
	}
	for br, uid := range final {
		if replayed[br] != uid {
			t.Fatalf("branch %s: table %s, replay %s", br, uid.Short(), replayed[br].Short())
		}
	}
}

// renameOps moves key@from, at head uid, to key@to.
func renameOps(key, from, to string, uid hash.Hash) []HeadOp {
	return []HeadOp{{Key: key, Branch: from, Expect: uid}, {Key: key, Branch: to, Set: uid}}
}

// TestFeedNeverSplitsAnApply: an Apply is one group of feed entries, and a
// page ends at a group's end — short of the limit rather than inside a
// group, past it only for a first group longer than the limit.
func TestFeedNeverSplitsAnApply(t *testing.T) {
	feed := NewFeed(64)
	table := WithFeed(NewMemBranchTable(), feed)
	apply := func(ops ...HeadOp) {
		t.Helper()
		if ok, err := table.Apply(ops); !ok || err != nil {
			t.Fatalf("Apply: ok=%v err=%v", ok, err)
		}
	}
	set := func(branch string, b byte) HeadOp { return HeadOp{Key: "k", Branch: branch, Set: h(b)} }
	apply(set("a", 1), set("b", 1), set("c", 1))                  // seq 1–3
	apply(set("d", 1))                                            // seq 4
	apply(renameOps("k", "a", "e", h(1))...)                      // seq 5–6
	apply(HeadOp{Key: "k", Branch: "b", Expect: h(1), Set: h(1)}) // moves nothing: no entry
	if got := feed.Seq(); got != 6 {
		t.Fatalf("feed at %d, want 6", got)
	}
	for _, tc := range []struct {
		cursor     uint64
		limit      int
		want, next uint64
	}{
		{0, 2, 3, 3}, // the first group is longer than the limit: whole
		{0, 4, 4, 4}, // two groups fit exactly
		{0, 5, 4, 4}, // the third group would be split: stop short
		{3, 2, 1, 4}, // one group fits, the next would be split
		{4, 1, 2, 6}, // a rename travels whole
		{0, 0, 6, 6}, // no limit
	} {
		entries, next, truncated := feed.Since(tc.cursor, tc.limit)
		if truncated || uint64(len(entries)) != tc.want || next != tc.next {
			t.Errorf("Since(%d, %d) = %d entries, next %d, truncated %v; want %d, next %d",
				tc.cursor, tc.limit, len(entries), next, truncated, tc.want, tc.next)
		}
	}
	entries, _, _ := feed.Since(4, 0)
	if !entries[0].New.IsZero() || entries[0].Branch != "a" || entries[1].Branch != "e" || entries[1].New != h(1) {
		t.Fatalf("rename journaled as %+v", entries)
	}
}

func TestFeedConcurrentAppendSince(t *testing.T) {
	f := NewFeed(128)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				f.Append(FeedEntry{Key: fmt.Sprintf("k%d", w), Branch: "master", New: h(byte(i))})
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		cursor := uint64(0)
		for {
			entries, _, truncated := f.Since(cursor, 16)
			if truncated {
				// Real consumers re-snapshot and resume from the tip.
				cursor = f.Seq()
			}
			for _, e := range entries {
				if e.Seq <= cursor {
					t.Errorf("non-monotonic entry %d after cursor %d", e.Seq, cursor)
					return
				}
				cursor = e.Seq
			}
			select {
			case <-stop:
				return
			default:
			}
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 100; i++ {
			f.leasedRoots()
			f.Read(uint64(i%3+1), FeedCursor{Seq: uint64(i)}, 1, 0, nil)
			f.Read(uint64(i%3+1), FeedCursor{}, -1, 0, nil)
		}
	}()
	// Let the writers finish, then release the reader.
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	time.Sleep(50 * time.Millisecond)
	close(stop)
	<-done

	if got := f.Seq(); got != 800 {
		t.Fatalf("total appended = %d, want 800", got)
	}
}

// TestFeedWraparound appends groups of one to four entries to a feed of
// capacity 8 until it has dropped hundreds of times, and checks every read
// after every append against the retained window of a plain list: Since at
// every cursor around the window, paged and not, its truncation, and the
// roots a lease at that cursor holds.
func TestFeedWraparound(t *testing.T) {
	const capacity = 8
	f := NewFeed(capacity)
	var all []FeedEntry
	var ends []bool
	for g := 0; g < 300; g++ {
		var group []FeedEntry
		for i := 0; i <= g%4; i++ {
			seq := uint64(len(all) + 1)
			old := hash.Of([]byte(fmt.Sprint(seq)))
			if seq%5 == 0 {
				old = hash.Hash{} // a create: no Old to hold
			}
			e := FeedEntry{Seq: seq, Key: "k", Branch: fmt.Sprint(i), Old: old, New: h(byte(seq))}
			all, ends, group = append(all, e), append(ends, i == g%4), append(group, e)
		}
		f.Append(group...)
		first := max(0, len(all)-capacity) // index in all of the oldest retained entry
		tip := uint64(len(all))
		for c := uint64(max(0, first-2)); c <= tip+1; c++ { // from a truncated cursor to one past the tip
			got, next, truncated := f.Since(c, 0)
			var want []FeedEntry
			if int(c) >= first {
				want = all[min(int(c), len(all)):]
			}
			wantTrunc := int(c) < first || c > tip
			if fmt.Sprint(got) != fmt.Sprint(want) || truncated != wantTrunc || (len(want) > 0 && next != tip) {
				t.Fatalf("append %d, Since(%d): %d entries next %d truncated %v; want %d entries truncated %v",
					g, c, len(got), next, truncated, len(want), wantTrunc)
			}
			page, _, _ := f.Since(c, 3)
			if fmt.Sprint(page) != fmt.Sprint(want[:len(page)]) {
				t.Fatalf("append %d, Since(%d, 3) is not a prefix of Since(%d)", g, c, c)
			}
			if len(page) > 0 {
				at := int(c) // index in all of the page's first entry
				firstEnd := at
				for !ends[firstEnd] {
					firstEnd++
				}
				switch {
				case !ends[at+len(page)-1]:
					t.Fatalf("append %d, Since(%d, 3) splits a group", g, c)
				case len(page) > 3 && at+len(page)-1 != firstEnd:
					t.Fatalf("append %d, Since(%d, 3) runs past its limit beyond its first group", g, c)
				case len(page) < len(want) && len(page) <= 3 && slices.Contains(ends[at+len(page):at+min(3, len(want))], true):
					t.Fatalf("append %d, Since(%d, 3) stops short of a group that fits", g, c)
				}
			}
			f.Read(1, FeedCursor{Epoch: f.epoch, Seq: c}, 0, 0, nil)
			var roots []hash.Hash
			for _, e := range all[first:] {
				if e.Seq > c && !e.Old.IsZero() {
					roots = append(roots, e.Old)
				}
			}
			if got := f.leasedRoots(); fmt.Sprint(got) != fmt.Sprint(roots) {
				t.Fatalf("append %d, lease at %d: held %v, want %v", g, c, got, roots)
			}
		}
	}
}

// BenchmarkFeedAppend appends one entry to a full feed, so every append
// drops the oldest entry.
func BenchmarkFeedAppend(b *testing.B) {
	for _, capacity := range []int{DefaultFeedCapacity, 65536} {
		b.Run(fmt.Sprint(capacity), func(b *testing.B) {
			f := NewFeed(capacity)
			e := FeedEntry{Key: "k", Branch: "master", Old: h(1), New: h(2)}
			for i := 0; i < capacity; i++ {
				f.Append(e)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				f.Append(e)
			}
		})
	}
}
