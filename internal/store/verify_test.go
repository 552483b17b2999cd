package store

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"forkbase/internal/chunk"
	"forkbase/internal/hash"
	"forkbase/internal/obs"
)

// ---------------------------------------------------------------------------
// Trust gating
// ---------------------------------------------------------------------------

// TestVerifyCacheTrustGating pins which stacks may amortize verification:
// only those whose immediate inner store keeps the witness (VerifiedIndexer)
// and that As reports trusted.  A store without a witness (mem), a wrapper
// between the verifier and the witness (counting), an untrusted boundary
// (the malicious store stands in for every wire) and a witness declaring
// itself untrusted all leave every claimed read rehashing.
func TestVerifyCacheTrustGating(t *testing.T) {
	mem := NewMemStore()
	fs, err := OpenFileStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	cases := []struct {
		name    string
		inner   Store
		enabled bool
	}{
		{"mem", mem, false},
		{"counting-over-mem", NewCountingStore(mem), false},
		{"malicious-over-mem", NewMaliciousStore(mem), false},
		{"counting-over-malicious", NewCountingStore(NewMaliciousStore(mem)), false},
		{"file", fs, true},
		{"counting-over-file", NewCountingStore(fs), false},
		{"malicious-over-file", NewMaliciousStore(fs), false},
		{"untrusted-witness", untrustedWitness{fs}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := NewVerifyingStore(tc.inner).VerifyStats().Enabled; got != tc.enabled {
				t.Fatalf("witness enabled = %v, want %v", got, tc.enabled)
			}
		})
	}
}

// untrustedWitness offers FileStore's witness but declares its bytes
// untrusted, as any layer that cannot vouch for them must.
type untrustedWitness struct{ *FileStore }

func (untrustedWitness) VerifyCacheTrusted() bool { return false }

// TestVerifyCacheOffStillDetectsTamper pins that over an untrusted stack the
// verifying store behaves exactly as before this optimization existed: every
// read pays the full recheck and every substitution is caught, on the first
// read and on every repeat read.
func TestVerifyCacheOffStillDetectsTamper(t *testing.T) {
	mal := NewMaliciousStore(NewMemStore())
	v := NewVerifyingStore(mal)
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
// verifying store that reads it directly.
func warmFileStack(t *testing.T) (*FileStore, *VerifyingStore, []hash.Hash) {
	t.Helper()
	if !mmapSupported {
		t.Skip("no mmap on this platform; sealed reads are unclaimed")
	}
	fs, err := OpenFileStoreWith(t.TempDir(), FileStoreOptions{SegmentSize: 2048})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fs.Close() })
	ids := fillSegments(t, fs, 60)
	if fs.actSeg.Load() < 2 {
		t.Fatal("expected several sealed segments")
	}
	return fs, NewVerifyingStore(fs), ids
}

// witnessRows are the two ways a verifier meets a FileStore's witness:
// directly, and through the metrics layer, in the order core.Open builds.
var witnessRows = []struct {
	name string
	wrap func(*FileStore) Store
}{
	{"bare", func(fs *FileStore) Store { return fs }},
	{"instrumented", func(fs *FileStore) Store { return Instrument(fs, obs.NewRegistry()) }},
}

// TestVerifyCacheSkipsRepeatRehash is the tentpole pin: the first verified
// read of a sealed chunk pays exactly one digest, the second pays zero.
func TestVerifyCacheSkipsRepeatRehash(t *testing.T) {
	for _, row := range witnessRows {
		t.Run(row.name, func(t *testing.T) {
			fs, _, ids := warmFileStack(t)
			v := NewVerifyingStore(row.wrap(fs))
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
			if !st.Enabled || st.Hits != 5 || st.Misses != 1 || st.SkippedHashes < 5 {
				t.Fatalf("verify stats after warm reads: %+v", st)
			}
		})
	}
}

// TestVerifyCacheGetBatchAmortizes pins the batch path: a cold GetBatch pays
// one digest per chunk and stamps it, so a warm GetBatch — or a point Get —
// over the same ids pays zero.
func TestVerifyCacheGetBatchAmortizes(t *testing.T) {
	for _, row := range witnessRows {
		t.Run(row.name, func(t *testing.T) {
			fs, _, ids := warmFileStack(t)
			v := NewVerifyingStore(row.wrap(fs))
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
			if cold := hash.Digests() - before; cold != int64(len(batch)) {
				t.Fatalf("cold GetBatch paid %d digests, want %d", cold, len(batch))
			}

			before = hash.Digests()
			if _, err := v.GetBatch(batch); err != nil {
				t.Fatal(err)
			}
			if _, err := v.Get(batch[0]); err != nil {
				t.Fatal(err)
			}
			if got := hash.Digests() - before; got != 0 {
				t.Fatalf("warm GetBatch and Get paid %d digests, want 0", got)
			}
		})
	}
}

// TestVerifyCacheParallelBatchRecheck pins that a batch recheck promotes
// every chunk it passes and catches a mid-batch forgery, naming it — and
// that the store's own batch write rejects the same batch.
func TestVerifyCacheParallelBatchRecheck(t *testing.T) {
	// claimedBatch has one tampered element.
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
	// The recheck runs on the caller's goroutine: one worker.
	t.Run("workers-1", func(t *testing.T) {
		cs, idx := claimedBatch()
		// A clean prefix passes and promotes every chunk it covers.
		if err := recheckIndexes(cs, idx[:40]); err != nil {
			t.Fatal(err)
		}
		for _, c := range cs[:40] {
			if c.Claimed() {
				t.Fatal("a rechecked chunk is still only claimed")
			}
		}
		// The tampered element fails the batch.
		if err := recheckIndexes(cs, idx); err == nil {
			t.Fatal("recheck accepted a tampered claimed chunk")
		} else if !strings.Contains(err.Error(), "batch chunk 43") {
			t.Fatalf("error does not name the tampered element: %v", err)
		}
	})
	_, v, ids := warmFileStack(t)
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
// sweep that compacts segments re-homes records, so every warm stamp goes
// stale and the next read repays its recheck.
func TestCompactionInvalidatesVerifyCache(t *testing.T) {
	fs, v, ids := warmFileStack(t)
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

	res, err := fs.Sweep(func(id hash.Hash) bool { return id == keep })
	if err != nil {
		t.Fatal(err)
	}
	if res.CompactedSegments == 0 {
		t.Fatal("sweep compacted nothing; test needs a relocation")
	}

	before = hash.Digests()
	if _, err := v.Get(keep); err != nil {
		t.Fatalf("surviving chunk unreadable after compaction: %v", err)
	}
	if got := hash.Digests() - before; got != 1 {
		t.Fatalf("post-compaction read paid %d digests, want 1 (stale stamp must not be served)", got)
	}
	// And the re-verified id is warm again at the new epoch.
	before = hash.Digests()
	if _, err := v.Get(keep); err != nil {
		t.Fatal(err)
	}
	if got := hash.Digests() - before; got != 0 {
		t.Fatalf("re-warmed read paid %d digests, want 0", got)
	}
}

// TestScrubBypassesVerifyCache pins the non-negotiable scrub property: scrub
// reads segment bytes directly and never consults a verified stamp, so rot
// that creeps in *after* a verified read is still classified.  This is what
// closes the witness's accepted staleness window.
func TestScrubBypassesVerifyCache(t *testing.T) {
	fs, v, ids := warmFileStack(t)
	// Verify and stamp every id in segment 0 (and the rest) first.
	if _, err := v.GetBatch(ids); err != nil {
		t.Fatal(err)
	}
	var seg0 []hash.Hash
	for _, id := range ids {
		if loc, _ := fs.lookup(id); loc.segment == 0 {
			seg0 = append(seg0, id)
		}
	}
	before := hash.Digests()
	if _, err := v.GetBatch(seg0); err != nil {
		t.Fatal(err)
	}
	if got := hash.Digests() - before; len(seg0) == 0 || got != 0 {
		t.Fatalf("warm re-read of segment 0's %d ids paid %d digests, want 0", len(seg0), got)
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
	// epoch moved, so no pre-scrub stamp can satisfy a read anymore.
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
	v := NewVerifyingStore(NewMemStore())
	sink := NewChunkSink(v)
	sink.size = 8
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

// TestPutSeedsVerifyCache pins that a verified write stamps the id: bytes
// the writer just hashed (or recheck just confirmed) need no rehash on the
// first read back, from the active segment they were written to and from
// the same segment once it has sealed.
func TestPutSeedsVerifyCache(t *testing.T) {
	for _, seal := range []bool{false, true} {
		t.Run(map[bool]string{false: "active", true: "sealed"}[seal], func(t *testing.T) {
			fs, v, _ := warmFileStack(t)
			c := mkChunk(4242)
			if _, err := v.Put(c); err != nil {
				t.Fatal(err)
			}
			seg := fs.actSeg.Load()
			if loc, _ := fs.lookup(c.ID()); int64(loc.segment) != seg {
				t.Fatalf("chunk under test landed in seg %d, not the active seg %d", loc.segment, seg)
			}
			for i := 0; seal && fs.actSeg.Load() == seg; i++ {
				if _, err := fs.Put(fileChunk(10_000 + i)); err != nil {
					t.Fatal(err)
				}
			}
			before := hash.Digests()
			if _, err := v.Get(c.ID()); err != nil {
				t.Fatal(err)
			}
			if got := hash.Digests() - before; got != 0 {
				t.Fatalf("first read of a just-written chunk paid %d digests, want 0", got)
			}
		})
	}
}

// TestDedupPutLeavesStoredBytesUnstamped pins that a write stamps only bytes
// it stored: a Put or PutBatch that dedups against rotted bytes checked the
// caller's copy, not the stored one, so the next point or batch read must
// still rehash the stored copy and refuse it.
func TestDedupPutLeavesStoredBytesUnstamped(t *testing.T) {
	fs, v, ids := warmFileStack(t)
	flipPayloadByte(t, fs.segmentPath(0)) // the first record: ids[0]
	if fresh, err := v.Put(fileChunk(0)); err != nil || fresh {
		t.Fatalf("Put of a stored id: fresh=%v err=%v", fresh, err)
	}
	if fresh, err := v.PutBatch([]*chunk.Chunk{fileChunk(0)}); err != nil || fresh[0] {
		t.Fatalf("PutBatch of a stored id: fresh=%v err=%v", fresh, err)
	}
	if _, err := v.Get(ids[0]); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Get of rotted bytes after a dedup write = %v, want ErrCorrupt", err)
	}
	if _, err := v.GetBatch(ids[:1]); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("GetBatch of rotted bytes after a dedup write = %v, want ErrCorrupt", err)
	}
}

// movingWitness is a trusted witness whose placement moves right after every
// read it answers and every write it takes, as a compaction landing between
// the bytes and the stamp would.  A stamp minted at the new epoch vouches
// for a copy nobody hashed.
type movingWitness struct {
	*MemStore
	epoch       uint64
	marks, late int
}

func (w *movingWitness) VerifyCacheTrusted() bool { return true }
func (w *movingWitness) PlacementEpoch() uint64   { return w.epoch }
func (w *movingWitness) UnmarkVerified(hash.Hash) {}
func (w *movingWitness) UnmarkAllVerified()       { w.epoch++ }
func (w *movingWitness) VerifiedServes() int64    { return 0 }

func (w *movingWitness) GetVerified(id hash.Hash) (*chunk.Chunk, bool, error) {
	defer func() { w.epoch++ }()
	c, err := w.MemStore.Get(id)
	if err != nil {
		return nil, false, err
	}
	return chunk.NewClaimed(c.Type(), c.Data(), id), false, nil
}

func (w *movingWitness) Put(c *chunk.Chunk) (bool, error) {
	defer func() { w.epoch++ }()
	return w.MemStore.Put(c)
}

func (w *movingWitness) PutBatch(cs []*chunk.Chunk) ([]bool, error) {
	defer func() { w.epoch++ }()
	return w.MemStore.PutBatch(cs)
}

func (w *movingWitness) MarkVerified(id hash.Hash, epoch uint64) {
	w.marks++
	if epoch == w.epoch {
		w.late++
	}
}

// TestStampEpochReadBeforeTheBytes pins that a stamp carries the placement
// epoch read before the bytes it vouches for — before the read on Get, before
// the write on Put and PutBatch — so a placement event in between refuses
// it.
func TestStampEpochReadBeforeTheBytes(t *testing.T) {
	w := &movingWitness{MemStore: NewMemStore()}
	v := NewVerifyingStore(w)
	if !v.VerifyStats().Enabled {
		t.Fatal("witness not engaged over a trusted VerifiedIndexer")
	}
	cs := []*chunk.Chunk{mkChunk(1), mkChunk(2), mkChunk(3)}
	if _, err := v.PutBatch(cs[:2]); err != nil {
		t.Fatal(err)
	}
	if _, err := v.Put(cs[2]); err != nil {
		t.Fatal(err)
	}
	for _, c := range cs {
		if _, err := v.Get(c.ID()); err != nil {
			t.Fatal(err)
		}
	}
	if w.marks != 6 || w.late != 0 {
		t.Fatalf("%d of %d stamps minted at the epoch after their bytes", w.late, w.marks)
	}
}
