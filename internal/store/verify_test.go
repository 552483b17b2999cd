package store

import (
	"fmt"
	"strings"
	"testing"

	"forkbase/internal/chunk"
	"forkbase/internal/hash"
)

// ---------------------------------------------------------------------------
// VerifiedSet unit tests
// ---------------------------------------------------------------------------

func vsID(i int) hash.Hash {
	return hash.Of([]byte(fmt.Sprintf("verified-set-%d", i)))
}

func TestVerifiedSetHitAddInvalidate(t *testing.T) {
	s := NewVerifiedSet(1 << 20)
	id := vsID(1)
	if s.Hit(id, 0) {
		t.Fatal("empty set reported a hit")
	}
	s.Add(id, 0)
	if !s.Hit(id, 0) {
		t.Fatal("added id not hit")
	}
	s.Invalidate(id)
	if s.Hit(id, 0) {
		t.Fatal("invalidated id still hit")
	}
	s.Add(id, 0)
	s.InvalidateAll()
	if s.Hit(id, 0) || s.Len() != 0 {
		t.Fatalf("InvalidateAll left entries: len=%d", s.Len())
	}
}

// TestVerifiedSetEpochStaleness pins the relocation contract: an entry
// stamped with an older placement epoch is a miss (and is evicted), because
// the id may have been re-homed by compaction or quarantine since it was
// verified.
func TestVerifiedSetEpochStaleness(t *testing.T) {
	s := NewVerifiedSet(1 << 20)
	id := vsID(2)
	s.Add(id, 1)
	if !s.Hit(id, 1) {
		t.Fatal("same-epoch hit failed")
	}
	if s.Hit(id, 2) {
		t.Fatal("stale-epoch entry reported a hit")
	}
	// The stale entry must have been dropped, not left to match epoch 1 again.
	if s.Hit(id, 1) {
		t.Fatal("stale entry survived the epoch-bumped probe")
	}
	s.Add(id, 2)
	if !s.Hit(id, 2) {
		t.Fatal("re-added id at new epoch not hit")
	}
}

// TestVerifiedSetBudgetBounded pins that the two-generation rotation keeps
// the entry count bounded by the byte budget no matter how many ids flow
// through, and that recently added ids survive rotation.
func TestVerifiedSetBudgetBounded(t *testing.T) {
	const budget = 64 * 2 * 16 * 64 // capPerGen = 64 per shard
	s := NewVerifiedSet(budget)
	const n = 100_000
	for i := 0; i < n; i++ {
		s.Add(vsID(i), 0)
	}
	// Hard bound: hot+cold per shard, 16 shards.
	if max := 64 * 2 * 16; s.Len() > max {
		t.Fatalf("set holds %d entries, budget allows at most %d", s.Len(), max)
	}
	if !s.Hit(vsID(n-1), 0) {
		t.Fatal("most recently added id already evicted")
	}
}

// ---------------------------------------------------------------------------
// Trust gating
// ---------------------------------------------------------------------------

// TestVerifyCacheTrustGating pins which stacks may carry a verified-id set:
// stores that own their bytes (mem, file) and pass-through wrappers over
// them are eligible; anything that cannot vouch for stable storage — the
// malicious store stands in for every wire/untrusted boundary — disables the
// cache automatically, with no configuration.
func TestVerifyCacheTrustGating(t *testing.T) {
	mem := NewMemStore()
	cases := []struct {
		name    string
		inner   Store
		enabled bool
	}{
		{"mem", mem, true},
		{"counting-over-mem", NewCountingStore(mem), true},
		{"malicious-over-mem", NewMaliciousStore(mem), false},
		{"counting-over-malicious", NewCountingStore(NewMaliciousStore(mem)), false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			v := NewVerifyingStoreCache(tc.inner, 1<<20)
			if got := v.VerifyStats().Enabled; got != tc.enabled {
				t.Fatalf("cache enabled = %v, want %v", got, tc.enabled)
			}
		})
	}
	t.Run("negative-budget-disables", func(t *testing.T) {
		v := NewVerifyingStoreCache(mem, -1)
		if v.VerifyStats().Enabled {
			t.Fatal("negative budget did not disable the cache")
		}
	})
}

// TestVerifyCacheOffStillDetectsTamper pins that over an untrusted stack the
// verifying store behaves exactly as before this optimization existed: every
// read pays the full recheck and every substitution is caught, on the first
// read and on every repeat read.
func TestVerifyCacheOffStillDetectsTamper(t *testing.T) {
	mal := NewMaliciousStore(NewMemStore())
	v := NewVerifyingStoreCache(mal, 1<<20)
	c := mkChunk(7)
	if _, err := v.Put(c); err != nil {
		t.Fatal(err)
	}
	if _, err := v.Get(c.ID()); err != nil {
		t.Fatalf("honest read failed: %v", err)
	}
	if ok, err := mal.CorruptFlip(c.ID(), 3, 1); err != nil || !ok {
		t.Fatalf("CorruptFlip: ok=%v err=%v", ok, err)
	}
	for i := 0; i < 3; i++ {
		if _, err := v.Get(c.ID()); err == nil {
			t.Fatalf("read %d of tampered chunk succeeded", i)
		}
	}
	if v.VerifyStats().Hits != 0 {
		t.Fatalf("disabled cache recorded hits: %+v", v.VerifyStats())
	}
}

// ---------------------------------------------------------------------------
// Amortization over a trusted file store
// ---------------------------------------------------------------------------

// warmFileStack builds a small multi-segment file store (sealed segments are
// served as claimed mmap chunks — the path that pays a recheck) behind a
// verifying store with the cache on.
func warmFileStack(t *testing.T, cacheBytes int64) (*FileStore, *VerifyingStore, []hash.Hash) {
	t.Helper()
	if !mmapSupported {
		t.Skip("no mmap on this platform; sealed reads are unclaimed")
	}
	fs, err := OpenFileStoreSegmented(t.TempDir(), 2048)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fs.Close() })
	ids := fillSegments(t, fs, 60)
	if fs.actSeg.Load() < 2 {
		t.Fatal("expected several sealed segments")
	}
	return fs, NewVerifyingStoreCache(fs, cacheBytes), ids
}

// TestVerifyCacheSkipsRepeatRehash is the tentpole pin: the first verified
// read of a sealed chunk pays exactly one digest, the second pays zero.
func TestVerifyCacheSkipsRepeatRehash(t *testing.T) {
	_, v, ids := warmFileStack(t, 1<<20)
	id := ids[0]

	before := hash.Digests()
	if _, err := v.Get(id); err != nil {
		t.Fatal(err)
	}
	if got := hash.Digests() - before; got != 1 {
		t.Fatalf("cold verified read paid %d digests, want exactly 1", got)
	}

	before = hash.Digests()
	for i := 0; i < 5; i++ {
		if _, err := v.Get(id); err != nil {
			t.Fatal(err)
		}
	}
	if got := hash.Digests() - before; got != 0 {
		t.Fatalf("warm verified reads paid %d digests, want 0", got)
	}
	st := v.VerifyStats()
	if !st.Enabled || st.Hits < 5 || st.SkippedHashes < 5 {
		t.Fatalf("verify stats after warm reads: %+v", st)
	}
}

// TestVerifyCacheGetBatchAmortizes pins the batch path: a warm GetBatch over
// already-verified ids pays zero digests.
func TestVerifyCacheGetBatchAmortizes(t *testing.T) {
	_, v, ids := warmFileStack(t, 1<<20)
	batch := ids[:20]

	before := hash.Digests()
	cs, err := v.GetBatch(batch)
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range cs {
		if c == nil {
			t.Fatalf("missing chunk %d", i)
		}
	}
	cold := hash.Digests() - before
	if cold != int64(len(batch)) {
		t.Fatalf("cold GetBatch paid %d digests, want %d", cold, len(batch))
	}

	before = hash.Digests()
	if _, err := v.GetBatch(batch); err != nil {
		t.Fatal(err)
	}
	if got := hash.Digests() - before; got != 0 {
		t.Fatalf("warm GetBatch paid %d digests, want 0", got)
	}
}

// TestVerifyCacheParallelBatchRecheck pins that the parallel recheck pool
// returns the same answers as the serial path, including catching a
// mid-batch forgery, across pool widths — and that the store's own batch
// write rejects the same batch at whatever width GOMAXPROCS gives it.
func TestVerifyCacheParallelBatchRecheck(t *testing.T) {
	// claimedBatch has one tampered element; 64 chunks keep four workers busy.
	claimedBatch := func() ([]*chunk.Chunk, []int) {
		cs := make([]*chunk.Chunk, 64)
		idx := make([]int, len(cs))
		for i := range cs {
			genuine := mkChunk(1000 + i)
			data := append([]byte(nil), genuine.Data()...)
			if i == 43 {
				data[0] ^= 0x01 // payload no longer matches id
			}
			cs[i] = chunk.NewClaimed(genuine.Type(), data, genuine.ID())
			idx[i] = i
		}
		return cs, idx
	}
	for _, workers := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("workers-%d", workers), func(t *testing.T) {
			cs, idx := claimedBatch()
			// A clean prefix passes and promotes every chunk it covers.
			if err := recheckIndexes(cs, idx[:40], workers); err != nil {
				t.Fatal(err)
			}
			for _, c := range cs[:40] {
				if c.Claimed() {
					t.Fatal("a rechecked chunk is still only claimed")
				}
			}
			// The tampered element fails whichever worker meets it.
			if err := recheckIndexes(cs, idx, workers); err == nil {
				t.Fatal("recheck accepted a tampered claimed chunk")
			} else if !strings.Contains(err.Error(), "batch chunk 43") {
				t.Fatalf("error does not name the tampered element: %v", err)
			}
		})
	}
	_, v, ids := warmFileStack(t, 1<<20)
	if _, err := v.GetBatch(ids); err != nil {
		t.Fatal(err)
	}
	cs, _ := claimedBatch()
	if _, err := v.PutBatch(cs); err == nil {
		t.Fatal("PutBatch accepted a tampered claimed chunk")
	} else if !strings.Contains(err.Error(), "batch chunk 43") {
		t.Fatalf("error does not name the tampered element: %v", err)
	}
}

// ---------------------------------------------------------------------------
// Invalidation: relocation and scrub
// ---------------------------------------------------------------------------

// TestCompactionInvalidatesVerifyCache pins the placement-epoch contract: a
// sweep that compacts segments re-homes records, so every warm entry goes
// stale and the next read repays its recheck.
func TestCompactionInvalidatesVerifyCache(t *testing.T) {
	fs, v, ids := warmFileStack(t, 1<<20)
	keep := ids[0]
	if _, err := v.Get(keep); err != nil {
		t.Fatal(err)
	}
	before := hash.Digests()
	if _, err := v.Get(keep); err != nil {
		t.Fatal(err)
	}
	if got := hash.Digests() - before; got != 0 {
		t.Fatalf("warm read before sweep paid %d digests", got)
	}

	res, err := fs.Sweep(func(id hash.Hash) bool { return id == keep }, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.CompactedSegments == 0 {
		t.Fatal("sweep compacted nothing; test needs a relocation")
	}

	invBefore := v.VerifyStats().Invalidations
	before = hash.Digests()
	if _, err := v.Get(keep); err != nil {
		t.Fatalf("surviving chunk unreadable after compaction: %v", err)
	}
	if got := hash.Digests() - before; got != 1 {
		t.Fatalf("post-compaction read paid %d digests, want 1 (stale entry must not be served)", got)
	}
	if v.VerifyStats().Invalidations <= invBefore {
		t.Fatal("stale epoch probe did not count an invalidation")
	}
	// And the re-verified entry is warm again at the new epoch.
	before = hash.Digests()
	if _, err := v.Get(keep); err != nil {
		t.Fatal(err)
	}
	if got := hash.Digests() - before; got != 0 {
		t.Fatalf("re-warmed read paid %d digests, want 0", got)
	}
}

// TestScrubBypassesVerifyCache pins the non-negotiable scrub property: scrub
// reads segment bytes directly and never consults the verified-id set, so
// rot that creeps in *after* a verified read is still classified.  This is
// what closes the cache's accepted staleness window.
func TestScrubBypassesVerifyCache(t *testing.T) {
	fs, v, ids := warmFileStack(t, 1<<20)
	// Verify and cache every id in segment 0 (and the rest) first.
	if _, err := v.GetBatch(ids); err != nil {
		t.Fatal(err)
	}
	if v.VerifyStats().Entries == 0 {
		t.Fatal("warm pass cached nothing")
	}
	flipPayloadByte(t, fs.segmentPath(0))

	st, err := fs.Scrub()
	if err != nil {
		t.Fatal(err)
	}
	if st.Corrupt != 1 || len(st.Lost) != 1 {
		t.Fatalf("scrub over a warm cache missed the rot: %+v", st)
	}
	if fs.Health() == nil {
		t.Fatal("store healthy after scrub found corruption")
	}
	// Quarantine re-homed the victim segment's survivors: the placement
	// epoch moved, so no pre-scrub entry can satisfy a read anymore.
	lost := st.Lost[0]
	if _, err := v.Get(lost); err == nil {
		t.Fatal("lost chunk still readable through the verifying store")
	}
}

// ---------------------------------------------------------------------------
// Provenance: one hash per chunk, end to end
// ---------------------------------------------------------------------------

// TestSinkIngestOneHashPerChunk is the counting-hasher acceptance pin: bulk
// ingest through the sink and the verifying store pays exactly one digest
// per emitted chunk — the sink's own id hash — because the provenance token
// lets the verifying write path skip its recheck.
func TestSinkIngestOneHashPerChunk(t *testing.T) {
	v := NewVerifyingStoreCache(NewMemStore(), 1<<20)
	sink := NewChunkSink(v, SinkOptions{BatchSize: 8})
	defer sink.Close()

	const n = 200
	skippedBefore := v.VerifyStats().SkippedHashes
	before := hash.Digests()
	for i := 0; i < n; i++ {
		payload := []byte(fmt.Sprintf("ingest-%d", i))
		if _, err := sink.Emit(chunk.TypeBlobLeaf, sinkEnc(chunk.TypeBlobLeaf, payload)); err != nil {
			t.Fatal(err)
		}
	}
	if err := sink.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := hash.Digests() - before; got != n {
		t.Fatalf("ingest of %d chunks paid %d digests, want exactly %d", n, got, n)
	}
	if got := v.VerifyStats().SkippedHashes - skippedBefore; got != n {
		t.Fatalf("provenance skipped %d rechecks, want %d", got, n)
	}
}

// TestPutSeedsVerifyCache pins that a verified write warms the set: bytes
// the writer just hashed (or recheck just confirmed) need no rehash on the
// first read back — as long as the read returns a claimed chunk.
func TestPutSeedsVerifyCache(t *testing.T) {
	fs, v, _ := warmFileStack(t, 1<<20)
	c := mkChunk(4242)
	if _, err := v.Put(c); err != nil {
		t.Fatal(err)
	}
	// Force the tail (holding c) to seal so the read back is a claimed mmap
	// chunk; a pread from the active tail is verified by construction and
	// never consults the cache.
	sealedBefore := fs.actSeg.Load()
	for i := 0; i < 30; i++ {
		if _, err := fs.Put(fileChunk(10_000 + i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := fs.Flush(); err != nil {
		t.Fatal(err)
	}
	if fs.actSeg.Load() == sealedBefore {
		t.Fatal("tail never rotated; chunk under test still unsealed")
	}
	before := hash.Digests()
	if _, err := v.Get(c.ID()); err != nil {
		t.Fatal(err)
	}
	if got := hash.Digests() - before; got != 0 {
		t.Fatalf("first read of a just-written chunk paid %d digests, want 0", got)
	}
}
