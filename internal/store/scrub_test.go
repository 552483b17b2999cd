package store

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"forkbase/internal/chunk"
	"forkbase/internal/hash"
)

// flipPayloadByte XORs one byte of the first record's payload in a segment
// file: the record still parses, but its content no longer matches its id.
func flipPayloadByte(t *testing.T, path string) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	b := []byte{0}
	off := int64(recordHeader + 5)
	if _, err := f.ReadAt(b, off); err != nil {
		t.Fatal(err)
	}
	b[0] ^= 0x40
	if _, err := f.WriteAt(b, off); err != nil {
		t.Fatal(err)
	}
}

func quarantineFiles(t *testing.T, dir string) []string {
	t.Helper()
	names, err := filepath.Glob(filepath.Join(dir, "seg-*.quarantine"))
	if err != nil {
		t.Fatal(err)
	}
	return names
}

// TestScrubCleanStore pins the no-fault path: a scrub over an intact
// multi-segment store touches nothing and reports healthy.
func TestScrubCleanStore(t *testing.T) {
	s, err := OpenFileStoreWith(t.TempDir(), FileStoreOptions{SegmentSize: 2048})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ids := fillSegments(t, s, 60)
	st, err := s.Scrub()
	if err != nil {
		t.Fatal(err)
	}
	if st.Corrupt != 0 || st.Torn != 0 || st.Unreadable != 0 || len(st.Lost) != 0 || st.QuarantinedSegments != 0 {
		t.Fatalf("clean store scrub reported faults: %+v", st)
	}
	if st.Ok != len(ids) {
		t.Fatalf("ok=%d want %d", st.Ok, len(ids))
	}
	if st.Segments == 0 || st.ScannedBytes == 0 {
		t.Fatalf("scrub scanned nothing: %+v", st)
	}
	if err := s.Health(); err != nil {
		t.Fatalf("healthy store reports %v", err)
	}
	if _, _, ok := s.LastScrub(); !ok {
		t.Fatal("LastScrub not recorded")
	}
}

// TestScrubQuarantinesAndRescues is the tentpole store-layer test: flip a
// byte in a sealed segment of a *running* store, scrub, and require (a) the
// damage detected, (b) the segment renamed aside — never unlinked, (c) every
// intact record of the segment rescued and still readable, (d) exactly the
// damaged chunk reported lost, and (e) the health state flipping back to nil
// once the chunk is repaired.
func TestScrubQuarantinesAndRescues(t *testing.T) {
	for _, noMmap := range []bool{false, true} {
		name := "mmap"
		if noMmap {
			name = "nommap"
		}
		t.Run(name, func(t *testing.T) {
			if !noMmap && !mmapSupported {
				t.Skip("no mmap on this platform")
			}
			dir := t.TempDir()
			s := openFileStoreMode(t, dir, FileStoreOptions{SegmentSize: 2048}, noMmap)
			defer s.Close()
			ids := fillSegments(t, s, 60)
			if s.actSeg.Load() < 2 {
				t.Fatal("expected several sealed segments")
			}
			victimSeg := 1
			flipPayloadByte(t, s.segmentPath(victimSeg))

			st, err := s.Scrub()
			if err != nil {
				t.Fatal(err)
			}
			if st.Corrupt != 1 {
				t.Fatalf("corrupt=%d want 1 (%+v)", st.Corrupt, st)
			}
			if st.QuarantinedSegments != 1 {
				t.Fatalf("quarantined=%d want 1", st.QuarantinedSegments)
			}
			if len(st.Lost) != 1 {
				t.Fatalf("lost=%v want exactly one id", st.Lost)
			}
			if st.Rescued == 0 {
				t.Fatal("expected intact records rescued out of the victim")
			}
			if got := quarantineFiles(t, dir); len(got) != 1 {
				t.Fatalf("quarantine files = %v, want one", got)
			}
			if _, err := os.Stat(s.segmentPath(victimSeg)); !os.IsNotExist(err) {
				t.Fatalf("victim segment still live: %v", err)
			}
			if err := s.Health(); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("health = %v, want ErrCorrupt", err)
			}

			// Every chunk except the lost one must still read back intact
			// through the verifying layer.
			lost := st.Lost[0]
			var lostIdx = -1
			vs := NewVerifyingStore(s)
			for i, id := range ids {
				if id == lost {
					lostIdx = i
					if _, err := s.Get(id); !errors.Is(err, ErrNotFound) {
						t.Fatalf("lost chunk get = %v, want ErrNotFound", err)
					}
					continue
				}
				c, err := vs.Get(id)
				if err != nil {
					t.Fatalf("get %d after scrub: %v", i, err)
				}
				if !bytes.Equal(c.Data(), fileChunk(i).Data()) {
					t.Fatalf("payload mismatch at %d", i)
				}
			}
			if lostIdx < 0 {
				t.Fatal("lost id is not one of the written chunks")
			}

			// Repair the lost chunk (what core.DB.Heal does after refetching
			// it from a replica); health must recover.
			if err := s.Repair(fileChunk(lostIdx)); err != nil {
				t.Fatal(err)
			}
			if err := s.Health(); err != nil {
				t.Fatalf("health after repair = %v, want nil", err)
			}
			if c, err := vs.Get(lost); err != nil || !bytes.Equal(c.Data(), fileChunk(lostIdx).Data()) {
				t.Fatalf("repaired chunk unreadable: %v", err)
			}
		})
	}
}

// TestScrubTornSegment: chop a sealed segment mid-record.  The sequential
// scan stops at the tear, but the index-driven rescue still recovers every
// record physically before it; records beyond the tear are lost.  Runs in
// no-mmap mode: a mapping established before the truncation pads the lost
// tail with zeros (classified corrupt, same quarantine path), while the
// file-read path sees the short read and classifies torn.
func TestScrubTornSegment(t *testing.T) {
	dir := t.TempDir()
	s := openFileStoreMode(t, dir, FileStoreOptions{SegmentSize: 2048}, true)
	defer s.Close()
	ids := fillSegments(t, s, 60)
	victim := s.segmentPath(1)
	fi, err := os.Stat(victim)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(victim, fi.Size()-10); err != nil {
		t.Fatal(err)
	}
	st, err := s.Scrub()
	if err != nil {
		t.Fatal(err)
	}
	if st.Torn != 1 || st.QuarantinedSegments != 1 {
		t.Fatalf("torn=%d quarantined=%d, want 1/1", st.Torn, st.QuarantinedSegments)
	}
	if len(st.Lost) != 1 {
		t.Fatalf("lost=%d want 1 (only the chopped record)", len(st.Lost))
	}
	survivors := 0
	for _, id := range ids {
		if id == st.Lost[0] {
			continue
		}
		if _, err := s.Get(id); err != nil {
			t.Fatalf("survivor unreadable after torn-segment scrub: %v", err)
		}
		survivors++
	}
	if survivors != len(ids)-1 {
		t.Fatalf("survivors=%d want %d", survivors, len(ids)-1)
	}
}

// TestRecoverySeedsHealth: corruption present at open time is classified by
// recovery itself — the store comes up unhealthy without waiting for a
// scrub, and the damaged record is simply not indexed.
func TestRecoverySeedsHealth(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenFileStoreWith(dir, FileStoreOptions{SegmentSize: 2048})
	if err != nil {
		t.Fatal(err)
	}
	ids := fillSegments(t, s, 60)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	flipPayloadByte(t, filepath.Join(dir, "seg-000001.log"))

	s2, err := OpenFileStoreWith(dir, FileStoreOptions{SegmentSize: 2048})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	st, at, ok := s2.LastScrub()
	if !ok || at.IsZero() {
		t.Fatal("recovery did not record a classification pass")
	}
	if st.Corrupt != 1 || len(st.Lost) != 1 {
		t.Fatalf("recovery classification corrupt=%d lost=%d, want 1/1", st.Corrupt, len(st.Lost))
	}
	if err := s2.Health(); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("health after rotted reopen = %v, want ErrCorrupt", err)
	}
	if _, err := s2.Get(st.Lost[0]); !errors.Is(err, ErrNotFound) {
		t.Fatalf("rotted record served: %v", err)
	}
	alive := 0
	for _, id := range ids {
		if id == st.Lost[0] {
			continue
		}
		if _, err := s2.Get(id); err != nil {
			t.Fatalf("intact record unreadable after reopen: %v", err)
		}
		alive++
	}
	if alive != len(ids)-1 {
		t.Fatalf("alive=%d want %d", alive, len(ids)-1)
	}
}

// TestRecoveryKeepsDamagedSealedSegment: a rotted length field mid-way
// through a sealed segment loses recovery only that record, and never cuts
// the file.  The records before and after the damage are served, health
// reports the damage, compaction leaves the segment alone, and a scrub
// rescues every other record and sets the untouched bytes aside as
// seg-N.quarantine.
func TestRecoveryKeepsDamagedSealedSegment(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenFileStoreWith(dir, FileStoreOptions{SegmentSize: 2048})
	if err != nil {
		t.Fatal(err)
	}
	fillSegments(t, s, 60)
	entries := s.gather(1) // seg 1's records, in offset order
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if len(entries) < 3 {
		t.Fatalf("seg 1 holds %d records, want a middle one", len(entries))
	}
	k := len(entries) / 2
	path := s.segmentPath(1)
	damaged, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 4; i++ {
		damaged[entries[k].loc.offset+hash.Size+i] ^= 0xFF
	}
	if err := os.WriteFile(path, damaged, 0o644); err != nil {
		t.Fatal(err)
	}

	s2, err := OpenFileStoreWith(dir, FileStoreOptions{SegmentSize: 2048})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, damaged) {
		t.Fatalf("recovery changed the sealed segment: %d bytes (err %v), had %d", len(got), err, len(damaged))
	}
	if st, _, _ := s2.LastScrub(); st.Torn != 1 {
		t.Fatalf("recovery torn=%d, want 1", st.Torn)
	}
	if err := s2.Health(); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("health = %v, want ErrCorrupt", err)
	}
	for i, e := range entries {
		if _, err := s2.Get(e.id); (i != k) != (err == nil) {
			t.Fatalf("record %d of %d (damage at %d): get err %v", i, len(entries), k, err)
		}
	}
	if _, err := s2.Sweep(func(hash.Hash) bool { return true }); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("compaction took the damaged segment: %v", err)
	}

	st, err := s2.Scrub()
	if err != nil {
		t.Fatal(err)
	}
	if st.QuarantinedSegments != 1 || st.Rescued != len(entries)-1 || len(st.Lost) != 0 {
		t.Fatalf("scrub quarantined=%d rescued=%d lost=%d, want 1/%d/0", st.QuarantinedSegments, st.Rescued, len(st.Lost), len(entries)-1)
	}
	if got, err := os.ReadFile(s2.quarantinePath(1)); err != nil || !bytes.Equal(got, damaged) {
		t.Fatalf("quarantine does not hold the original bytes (err %v)", err)
	}
	if err := s2.Health(); err != nil {
		t.Fatalf("health after quarantine = %v, want nil", err)
	}
	for i, e := range entries {
		if _, err := s2.Get(e.id); i != k && err != nil {
			t.Fatalf("rescued record %d unreadable: %v", i, err)
		}
	}
}

// TestRecoveryKeepsRottedSealedSegment: a sealed segment whose record fails
// its hash at open is evidence, like one that will not parse.  Health
// reports it, a sweep that keeps everything leaves the file where it is
// (the rotted record made it look like garbage to compact), and the next
// scrub finds the rot and sets the bytes aside as seg-N.quarantine.
func TestRecoveryKeepsRottedSealedSegment(t *testing.T) {
	dir := t.TempDir()
	opts := FileStoreOptions{SegmentSize: 4096}
	s, err := OpenFileStoreWith(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	fillSegments(t, s, 60)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	path := s.segmentPath(1)
	flipPayloadByte(t, path)
	rotted, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	s2, err := OpenFileStoreWith(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if err := s2.Health(); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("health = %v, want ErrCorrupt", err)
	}
	if _, err := s2.Sweep(func(hash.Hash) bool { return true }); err != nil {
		t.Fatal(err)
	}
	if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, rotted) {
		t.Fatalf("the sweep did not leave the rotted segment as it was (err %v)", err)
	}
	st, err := s2.Scrub()
	if err != nil {
		t.Fatal(err)
	}
	if st.Corrupt != 1 || st.QuarantinedSegments != 1 {
		t.Fatalf("scrub corrupt=%d quarantined=%d, want 1/1", st.Corrupt, st.QuarantinedSegments)
	}
	if got, err := os.ReadFile(s2.quarantinePath(1)); err != nil || !bytes.Equal(got, rotted) {
		t.Fatalf("quarantine does not hold the rotted bytes (err %v)", err)
	}
}

// TestRepairInsertsAbsent: Repair of a chunk the store never held is a plain
// verified insert.
func TestRepairInsertsAbsent(t *testing.T) {
	s, err := OpenFileStoreWith(t.TempDir(), FileStoreOptions{SegmentSize: 2048})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	c := fileChunk(7)
	if err := s.Repair(c); err != nil {
		t.Fatal(err)
	}
	got, err := s.Get(c.ID())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Data(), c.Data()) {
		t.Fatal("payload mismatch after repair-insert")
	}
}

// TestMemStoreRepair: the map-backed store replaces a damaged resident entry
// where Put would dedup-hit and keep the bad copy.
func TestMemStoreRepair(t *testing.T) {
	m := NewMemStore()
	good := chunk.New(chunk.TypeBlobLeaf, []byte("payload"))
	forged := chunk.NewClaimed(chunk.TypeBlobLeaf, []byte("rotted!"), good.ID())
	m.mu.Lock()
	m.chunks[good.ID()] = forged
	m.stats.UniqueChunks++
	m.mu.Unlock()
	if err := m.Repair(good); err != nil {
		t.Fatal(err)
	}
	got, err := m.Get(good.ID())
	if err != nil {
		t.Fatal(err)
	}
	if err := got.Recheck(); err != nil {
		t.Fatalf("repair left a corrupt chunk resident: %v", err)
	}
}
