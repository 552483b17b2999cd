package store

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"forkbase/internal/chunk"
	"forkbase/internal/hash"
)

// fileChunk builds a deterministic ~200-byte test chunk.
func fileChunk(i int) *chunk.Chunk {
	return chunk.New(chunk.TypeBlobLeaf, bytes.Repeat([]byte{byte(i), byte(i >> 8)}, 100))
}

// fillSegments writes n chunks through tiny segments and returns their ids.
func fillSegments(t *testing.T, s *FileStore, n int) []hash.Hash {
	t.Helper()
	ids := make([]hash.Hash, n)
	for i := 0; i < n; i++ {
		c := fileChunk(i)
		if _, err := s.Put(c); err != nil {
			t.Fatal(err)
		}
		ids[i] = c.ID()
	}
	return ids
}

// TestFileStoreMmapSealedReads pins the mmap read path: multi-segment
// stores serve sealed reads as claimed zero-copy chunks that the verifying
// layer accepts, and the active tail still serves verified copies.
func TestFileStoreMmapSealedReads(t *testing.T) {
	if !mmapSupported {
		t.Skip("no mmap on this platform")
	}
	s, err := OpenFileStoreWith(t.TempDir(), FileStoreOptions{SegmentSize: 2048})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ids := fillSegments(t, s, 100)
	if s.actSeg.Load() == 0 {
		t.Fatal("expected rotation")
	}
	vs := NewVerifyingStore(s)
	for i, id := range ids {
		c, err := vs.Get(id)
		if err != nil {
			t.Fatalf("verified get %d: %v", i, err)
		}
		if !bytes.Equal(c.Data(), fileChunk(i).Data()) {
			t.Fatalf("payload mismatch at %d", i)
		}
	}
}

func sweepKeep(keep map[hash.Hash]bool) func(hash.Hash) bool {
	return func(id hash.Hash) bool { return keep[id] }
}

func TestFileStoreSweepCompacts(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenFileStoreWith(dir, FileStoreOptions{SegmentSize: 2048})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ids := fillSegments(t, s, 200)
	diskBefore := s.DiskBytes()

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
	if res.Swept != 100 {
		t.Fatalf("swept %d, want 100", res.Swept)
	}
	if res.CompactedSegments == 0 || res.ReclaimedBytes <= 0 {
		t.Fatalf("no compaction happened: %+v", res)
	}
	if got := s.DiskBytes(); got >= diskBefore {
		t.Fatalf("disk did not shrink: %d -> %d", diskBefore, got)
	}
	st := s.Stats()
	if st.UniqueChunks != 100 {
		t.Fatalf("stats.UniqueChunks = %d after sweep", st.UniqueChunks)
	}
	for i, id := range ids {
		c, err := s.Get(id)
		if i%2 == 0 {
			if err != nil {
				t.Fatalf("live chunk %d lost: %v", i, err)
			}
			if !bytes.Equal(c.Data(), fileChunk(i).Data()) {
				t.Fatalf("live chunk %d corrupted by compaction", i)
			}
		} else if err != ErrNotFound {
			t.Fatalf("swept chunk %d still readable (err=%v)", i, err)
		}
	}
	// The directory really lost the victim files, and a reopen sees the
	// compacted layout: live chunks present, swept ones gone for good.
	s.Close()
	s2, err := OpenFileStoreWith(dir, FileStoreOptions{SegmentSize: 2048})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if n := s2.Len(); n != 100 {
		t.Fatalf("reopen sees %d chunks, want 100 (garbage resurrected?)", n)
	}
	for i, id := range ids {
		if i%2 != 0 {
			continue
		}
		if _, err := s2.Get(id); err != nil {
			t.Fatalf("live chunk %d lost across reopen: %v", i, err)
		}
	}
}

// TestFileStoreSweepCompactsLightGarbage: a sealed segment holding only a
// little garbage is rewritten by the sweep all the same — there is no
// dead-byte threshold — and every live chunk survives the move.
func TestFileStoreSweepCompactsLightGarbage(t *testing.T) {
	s, err := OpenFileStoreWith(t.TempDir(), FileStoreOptions{SegmentSize: 2048})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ids := fillSegments(t, s, 100)
	keep := map[hash.Hash]bool{}
	for _, id := range ids[5:] { // ~5% garbage, concentrated in segment 0
		keep[id] = true
	}
	res, err := s.Sweep(sweepKeep(keep))
	if err != nil {
		t.Fatal(err)
	}
	if res.Swept != 5 || res.CompactedSegments == 0 {
		t.Fatalf("sweep of 5%% garbage: %+v, want 5 swept and a segment compacted", res)
	}
	for _, id := range ids[5:] {
		if _, err := s.Get(id); err != nil {
			t.Fatalf("live chunk lost: %v", err)
		}
	}
}

// TestFileStoreZeroCopySurvivesCompaction pins the parked-mapping contract:
// a zero-copy payload handed out before its segment is compacted away stays
// readable until Close.
func TestFileStoreZeroCopySurvivesCompaction(t *testing.T) {
	if !mmapSupported {
		t.Skip("no mmap on this platform")
	}
	s, err := OpenFileStoreWith(t.TempDir(), FileStoreOptions{SegmentSize: 2048})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ids := fillSegments(t, s, 100)
	held, err := s.Get(ids[0]) // sealed → aliases the segment mapping
	if err != nil {
		t.Fatal(err)
	}
	keep := map[hash.Hash]bool{ids[0]: true} // everything else dies
	res, err := s.Sweep(sweepKeep(keep))
	if err != nil {
		t.Fatal(err)
	}
	if res.CompactedSegments == 0 {
		t.Fatal("expected compaction")
	}
	if !bytes.Equal(held.Data(), fileChunk(0).Data()) {
		t.Fatal("zero-copy slice invalidated by compaction")
	}
	// The survivor moved; it must still read correctly from its new home.
	c, err := s.Get(ids[0])
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(c.Data(), fileChunk(0).Data()) {
		t.Fatal("moved chunk corrupted")
	}
}

// copyDir snapshots a store directory (the "crashed" disk image).
func copyDir(t *testing.T, src, dst string) {
	t.Helper()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		b, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestFileStoreCrashMidCompaction simulates a kill after compaction's
// durability barrier (live records rewritten + fsynced) but before the
// victim segments are unlinked, then reopens the snapshot: nothing may be
// lost and the index may not hold duplicates.
func TestFileStoreCrashMidCompaction(t *testing.T) {
	dir := t.TempDir()
	crashed := t.TempDir()
	s, err := OpenFileStoreWith(dir, FileStoreOptions{SegmentSize: 2048})
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
	snapped := false
	s.SetCrashHook(func(point string, seg int) {
		if point == CrashCompactBeforeUnlink && !snapped {
			// snapshot once, with every victim still on disk
			copyDir(t, dir, crashed)
			snapped = true
		}
	})
	if _, err := s.Sweep(sweepKeep(keep)); err != nil {
		t.Fatal(err)
	}
	if !snapped {
		t.Fatal("compaction never reached the crash point")
	}

	re, err := OpenFileStoreWith(crashed, FileStoreOptions{SegmentSize: 2048})
	if err != nil {
		t.Fatalf("reopen after crash: %v", err)
	}
	defer re.Close()
	// Every chunk that existed pre-crash is readable: live ones possibly
	// duplicated on disk (old copy + rewritten copy), swept ones not yet
	// unlinked.  The index collapses duplicates, so Len is exact.
	if n := re.Len(); n != 200 {
		t.Fatalf("post-crash index has %d entries, want 200", n)
	}
	for i, id := range ids {
		c, err := re.Get(id)
		if err != nil {
			t.Fatalf("chunk %d lost in crash: %v", i, err)
		}
		if !bytes.Equal(c.Data(), fileChunk(i).Data()) {
			t.Fatalf("chunk %d corrupted in crash", i)
		}
	}
	// A re-run of the sweep finishes the job on the recovered store.
	if _, err := re.Sweep(sweepKeep(keep)); err != nil {
		t.Fatal(err)
	}
	if n := re.Len(); n != 100 {
		t.Fatalf("re-swept index has %d entries, want 100", n)
	}
	for i, id := range ids {
		if i%2 != 0 {
			continue
		}
		if _, err := re.Get(id); err != nil {
			t.Fatalf("live chunk %d lost after recovery sweep: %v", i, err)
		}
	}
}

// TestFileStoreRecoverSegmentGaps covers the numbering gaps compaction
// leaves behind: recovery must glob, not probe sequentially.
func TestFileStoreRecoverSegmentGaps(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenFileStoreWith(dir, FileStoreOptions{SegmentSize: 2048})
	if err != nil {
		t.Fatal(err)
	}
	ids := fillSegments(t, s, 100)
	// Compact away the earliest segments so seg-000000 no longer exists.
	keep := map[hash.Hash]bool{}
	for _, id := range ids[50:] {
		keep[id] = true
	}
	if _, err := s.Sweep(sweepKeep(keep)); err != nil {
		t.Fatal(err)
	}
	s.Close()
	if _, err := os.Stat(s.segmentPath(0)); !os.IsNotExist(err) {
		t.Skip("segment 0 survived; gap scenario not reached")
	}
	re, err := OpenFileStoreWith(dir, FileStoreOptions{SegmentSize: 2048})
	if err != nil {
		t.Fatalf("reopen with segment gaps: %v", err)
	}
	defer re.Close()
	for _, id := range ids[50:] {
		if _, err := re.Get(id); err != nil {
			t.Fatalf("chunk lost across gappy reopen: %v", err)
		}
	}
	// Appends keep working (the active segment resumed at the right number).
	if _, err := re.Put(fileChunk(1000)); err != nil {
		t.Fatal(err)
	}
}

// openFileStoreMode opens a store over an empty dir on the chosen read path.
// Outside tests the pread path serves segments only where mmap is
// unsupported; dropping the empty active segment's mapping and flipping the
// field right after open runs it on every platform.
func openFileStoreMode(tb testing.TB, dir string, opts FileStoreOptions, noMmap bool) *FileStore {
	tb.Helper()
	s, err := OpenFileStoreWith(dir, opts)
	if err != nil {
		tb.Fatal(err)
	}
	if s.Len() != 0 || s.actSeg.Load() != 0 {
		tb.Fatal("openFileStoreMode needs an empty directory: recovery already mapped segments")
	}
	if noMmap {
		for seg, m := range s.maps {
			m.release()
			delete(s.maps, seg)
		}
		s.noMmap = true
	}
	return s
}

// readModes are the two read paths, by name.
var readModes = []struct {
	name   string
	noMmap bool
}{{"mmap", false}, {"pread", true}}

// TestActiveSegmentReadsLikeSealed pins the one read path: a chunk written
// this session and read back through the verifying store from the active
// segment costs no digest in mmap mode — it is a claimed chunk of the
// segment's mapping, and the write stamped it — while pread mode still
// verifies every read with a hash of its own.
func TestActiveSegmentReadsLikeSealed(t *testing.T) {
	for _, mode := range readModes {
		t.Run(mode.name, func(t *testing.T) {
			if !mode.noMmap && !mmapSupported {
				t.Skip("no mmap on this platform")
			}
			fs := openFileStoreMode(t, t.TempDir(), FileStoreOptions{}, mode.noMmap)
			defer fs.Close()
			v := NewVerifyingStore(fs)
			c := mkChunk(5)
			if _, err := v.Put(c); err != nil {
				t.Fatal(err)
			}
			if fs.actSeg.Load() != 0 {
				t.Fatal("the store rotated; the chunk under test is not in the active segment")
			}
			want := int64(0)
			if mode.noMmap {
				want = 1
			}
			for i := 0; i < 3; i++ {
				before := hash.Digests()
				got, err := v.Get(c.ID())
				if err != nil {
					t.Fatal(err)
				}
				if n := hash.Digests() - before; n != want {
					t.Fatalf("read %d from the active segment paid %d digests, want %d", i, n, want)
				}
				if !bytes.Equal(got.Data(), c.Data()) || got.Claimed() == mode.noMmap {
					t.Fatalf("read %d: claimed=%v, payload equal=%v", i, got.Claimed(), bytes.Equal(got.Data(), c.Data()))
				}
			}
		})
	}
}

// TestFileStoreRotatesBeforeCrossing pins how an index entry stays inside
// its segment's mapping: a record that would carry a non-empty active
// segment past SegmentSize starts the next segment first, and a record
// larger than a whole segment gets an empty one to itself (mapped at its
// size).  Both, and a PutBatch spanning rotations, read back before and
// after reopen, on both read paths.
func TestFileStoreRotatesBeforeCrossing(t *testing.T) {
	const segSize = 4096
	for _, mode := range readModes {
		t.Run(mode.name, func(t *testing.T) {
			dir := t.TempDir()
			s := openFileStoreMode(t, dir, FileStoreOptions{SegmentSize: segSize}, mode.noMmap)
			defer s.Close()
			small := fileChunk(1)
			big := chunk.New(chunk.TypeBlobLeaf, bytes.Repeat([]byte("big!"), segSize))
			batch := make([]*chunk.Chunk, 40) // ~9.5 KiB of records
			for i := range batch {
				batch[i] = fileChunk(100 + i)
			}
			all := append([]*chunk.Chunk{small, big}, batch...)
			if _, err := s.Put(small); err != nil {
				t.Fatal(err)
			}
			if _, err := s.Put(big); err != nil {
				t.Fatal(err)
			}
			if _, err := s.PutBatch(batch); err != nil {
				t.Fatal(err)
			}
			for c, want := range map[*chunk.Chunk]recordLoc{small: {segment: 0}, big: {segment: 1}, batch[0]: {segment: 2}} {
				if loc, _ := s.lookup(c.ID()); loc.segment != want.segment || loc.offset != 0 {
					t.Fatalf("record at seg %d offset %d, want seg %d offset 0", loc.segment, loc.offset, want.segment)
				}
			}
			for seg, u := range s.segUse {
				if seg != 1 && u.total > segSize || u.total == 0 {
					t.Fatalf("seg %d holds %d bytes; SegmentSize is %d", seg, u.total, segSize)
				}
			}
			if s.actSeg.Load() < 4 {
				t.Fatalf("the batch ended in seg %d; it should span rotations", s.actSeg.Load())
			}
			readAll := func(st Store) {
				t.Helper()
				v := NewVerifyingStore(st)
				for i, c := range all {
					got, err := v.Get(c.ID())
					if err != nil {
						t.Fatalf("chunk %d: %v", i, err)
					}
					if !bytes.Equal(got.Data(), c.Data()) {
						t.Fatalf("chunk %d: payload differs", i)
					}
				}
			}
			readAll(s)
			s.Close()
			re, err := OpenFileStoreWith(dir, FileStoreOptions{SegmentSize: segSize})
			if err != nil {
				t.Fatal(err)
			}
			defer re.Close()
			readAll(re)
		})
	}
}

// TestFileStoreFailedAppendStopsAppends pins the failed-append rule: an
// append whose write fails, and whose cut back to the last good size fails
// too, leaves the log refusing every later append, while what was written
// before stays readable, also after a reopen.
func TestFileStoreFailedAppendStopsAppends(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	good := mkChunk(1)
	if _, err := s.Put(good); err != nil {
		t.Fatal(err)
	}
	// A read-only handle fails both the write and the truncate.
	ro, err := os.Open(s.segmentPath(0))
	if err != nil {
		t.Fatal(err)
	}
	defer s.active.Close()
	s.active = ro
	if _, err := s.Put(mkChunk(2)); err == nil {
		t.Fatal("an append over a failing write succeeded")
	}
	if _, err := s.Put(mkChunk(3)); err == nil || !strings.Contains(err.Error(), "unusable") {
		t.Fatalf("append after a failed cut = %v, want the log refusing appends", err)
	}
	if _, err := s.Get(mkChunk(2).ID()); err != ErrNotFound {
		t.Fatalf("Get of the failed append = %v, want ErrNotFound", err)
	}
	if _, err := s.Get(good.ID()); err != nil {
		t.Fatal(err)
	}
	re, err := OpenFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if _, err := re.Get(good.ID()); err != nil || re.Len() != 1 {
		t.Fatalf("reopen: %v, %d chunks", err, re.Len())
	}
}

// TestFileStoreNoMmapParity runs the full lifecycle on the positioned-read
// fallback: identical behavior, no mapped memory.
func TestFileStoreNoMmapParity(t *testing.T) {
	s := openFileStoreMode(t, t.TempDir(), FileStoreOptions{SegmentSize: 2048}, true)
	defer s.Close()
	ids := fillSegments(t, s, 100)
	for i, id := range ids {
		c, err := s.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(c.Data(), fileChunk(i).Data()) {
			t.Fatalf("payload mismatch at %d", i)
		}
	}
	keep := map[hash.Hash]bool{}
	for _, id := range ids[:50] {
		keep[id] = true
	}
	res, err := s.Sweep(sweepKeep(keep))
	if err != nil {
		t.Fatal(err)
	}
	if res.Swept != 50 || res.CompactedSegments == 0 {
		t.Fatalf("no-mmap sweep: %+v", res)
	}
	for _, id := range ids[:50] {
		if _, err := s.Get(id); err != nil {
			t.Fatalf("live chunk lost on no-mmap path: %v", err)
		}
	}
}

// TestFileStoreConcurrentSweep races readers and writers against repeated
// sweeps on both read paths; under -race this validates the locking, and
// the end state must be exact: survivors readable, garbage gone.  The
// pread variant exercises the relocated-mid-pread retry.
func TestFileStoreConcurrentSweep(t *testing.T) {
	t.Run("mmap", func(t *testing.T) { testConcurrentSweep(t, false) })
	t.Run("pread", func(t *testing.T) { testConcurrentSweep(t, true) })
}

func testConcurrentSweep(t *testing.T, noMmap bool) {
	s := openFileStoreMode(t, t.TempDir(), FileStoreOptions{SegmentSize: 4096}, noMmap)
	defer s.Close()
	ids := fillSegments(t, s, 300)
	keep := map[hash.Hash]bool{}
	for i, id := range ids {
		if i < 100 {
			keep[id] = true
		}
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				// Survivors must never error; garbage may come and go.
				if _, err := s.Get(ids[(g*31+i)%100]); err != nil {
					panic(fmt.Sprintf("live chunk unreadable during sweep: %v", err))
				}
				s.Get(ids[100+(g*17+i)%200])
			}
		}(g)
	}
	wg.Add(1)
	go func() { // concurrent writer of fresh chunks
		defer wg.Done()
		for i := 0; i < 200; i++ {
			if _, err := s.Put(fileChunk(10000 + i)); err != nil {
				panic(err)
			}
		}
	}()
	original := map[hash.Hash]bool{}
	for _, id := range ids {
		original[id] = true
	}
	for pass := 0; pass < 3; pass++ {
		// Survivors and anything the concurrent writer added stay; the
		// garbage half of the original set goes.
		if _, err := s.Sweep(func(id hash.Hash) bool {
			return keep[id] || !original[id]
		}); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	for _, id := range ids[:100] {
		if _, err := s.Get(id); err != nil {
			t.Fatalf("survivor lost: %v", err)
		}
	}
}
