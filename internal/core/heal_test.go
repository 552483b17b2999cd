package core

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime/debug"
	"strings"
	"testing"

	"forkbase/internal/chunk"
	"forkbase/internal/chunker"
	"forkbase/internal/hash"
	"forkbase/internal/pos"
	"forkbase/internal/store"
	"forkbase/internal/value"
)

// testChunkSource adapts any local store into a repair source — the same
// shape repl.LocalSource has, declared here because core cannot import repl.
type testChunkSource struct{ st store.Store }

func (s testChunkSource) GetChunks(ids []hash.Hash) ([]*chunk.Chunk, error) {
	return s.st.GetBatch(ids)
}

func newFileDB(t *testing.T, dir string) (*DB, *store.FileStore) {
	t.Helper()
	fs, err := store.OpenFileStoreWith(dir, store.FileStoreOptions{SegmentSize: 4096})
	if err != nil {
		t.Fatal(err)
	}
	return Open(Options{Store: fs, Branches: NewMemBranchTable(), Chunking: chunker.SmallConfig()}), fs
}

// mirrorStore deep-copies every chunk of fs into a fresh MemStore — a
// caught-up replica.  Payloads are copied out of the mmap (zero-copy chunks
// alias the segment mapping, and this test is about to rot that mapping).
func mirrorStore(t *testing.T, fs *store.FileStore) *store.MemStore {
	t.Helper()
	vs := store.NewVerifyingStore(fs)
	replica := store.NewMemStore()
	for _, id := range fs.IDs() {
		c, err := vs.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		cp := chunk.New(c.Type(), append([]byte(nil), c.Data()...))
		if _, err := replica.Put(cp); err != nil {
			t.Fatal(err)
		}
	}
	return replica
}

// rotSegment flips a payload byte of the first record in the given segment
// file (same shape as the store-level scrub tests).
func rotSegment(t *testing.T, dir string, seg int) {
	t.Helper()
	path := filepath.Join(dir, fmt.Sprintf("seg-%06d.log", seg))
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	b := []byte{0}
	off := int64(hash.Size + 4 + 1 + 5) // recordHeader + 5: inside payload 0
	if _, err := f.ReadAt(b, off); err != nil {
		t.Fatal(err)
	}
	b[0] ^= 0x10
	if _, err := f.WriteAt(b, off); err != nil {
		t.Fatal(err)
	}
}

func seedHealDB(t *testing.T, db *DB, fs *store.FileStore) {
	t.Helper()
	if _, err := db.Put("a", "", bigMap(t, db, 400, "v1"), nil); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Put("a", "", bigMap(t, db, 400, "v2"), nil); err != nil {
		t.Fatal(err)
	}
	if err := db.Branch("a", "dev", ""); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Put("b", "", bigMap(t, db, 200, "b1"), nil); err != nil {
		t.Fatal(err)
	}
	if fs.DiskBytes() < 3*4096 {
		t.Fatal("seed too small to span several segments")
	}
}

// allHeads snapshots every branch head: key → branch → uid.
func allHeads(t *testing.T, db *DB) map[string]map[string]hash.Hash {
	t.Helper()
	keys, err := db.heads.Keys()
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]map[string]hash.Hash{}
	for _, key := range keys {
		if out[key], err = db.heads.Branches(key); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

func verifyAllBranches(t *testing.T, db *DB) {
	t.Helper()
	for key, branches := range allHeads(t, db) {
		for branch, head := range branches {
			if _, err := db.VerifyVersion(key, head, true); err != nil {
				t.Fatalf("deep verify %s@%s after heal: %v", key, branch, err)
			}
		}
	}
}

func globSegments(t *testing.T, dir, pattern string) []string {
	t.Helper()
	names, err := filepath.Glob(filepath.Join(dir, pattern))
	if err != nil {
		t.Fatal(err)
	}
	return names
}

// TestHealRepairsCorruptInPlace: rot a sealed segment and heal *without*
// scrubbing first — the verifying read path classifies the rotted chunk as
// corrupt mid-walk, and Repair replaces it in place.
func TestHealRepairsCorruptInPlace(t *testing.T) {
	dir := t.TempDir()
	db, fs := newFileDB(t, dir)
	defer fs.Close()
	seedHealDB(t, db, fs)
	replica := mirrorStore(t, fs)
	headBefore, err := db.Head("a", "master")
	if err != nil {
		t.Fatal(err)
	}

	rotSegment(t, dir, 1)

	hs, err := db.Heal(testChunkSource{replica})
	if err != nil {
		t.Fatal(err)
	}
	if hs.Corrupt == 0 {
		t.Fatalf("heal saw no corruption: %+v", hs)
	}
	if hs.Repaired != hs.Corrupt+hs.Missing || len(hs.Failed) != 0 {
		t.Fatalf("heal did not repair everything: %+v", hs)
	}
	if hs.Branches == 0 || hs.Checked == 0 || hs.BytesFetched == 0 {
		t.Fatalf("implausible heal stats: %+v", hs)
	}

	headAfter, err := db.Head("a", "master")
	if err != nil {
		t.Fatal(err)
	}
	if headAfter != headBefore {
		t.Fatal("heal moved a branch head")
	}
	verifyAllBranches(t, db)
}

// TestHealAfterScrubQuarantine is the full detect → quarantine → repair
// loop at the engine level: scrub quarantines every rotted sealed segment
// (renaming, never unlinking: the chunks are now *missing*), heal refills the
// holes from the replica, no branch head moves, and the store's health state
// recovers.
func TestHealAfterScrubQuarantine(t *testing.T) {
	for _, rot := range [][]int{{1}, {0, 1, 3}} {
		t.Run(fmt.Sprintf("segments-%v", rot), func(t *testing.T) {
			dir := t.TempDir()
			db, fs := newFileDB(t, dir)
			defer fs.Close()
			seedHealDB(t, db, fs)
			replica := mirrorStore(t, fs)
			headsBefore := allHeads(t, db)
			segsBefore := globSegments(t, dir, "seg-*.log")

			for _, seg := range rot {
				rotSegment(t, dir, seg)
			}
			st, err := fs.Scrub()
			if err != nil {
				t.Fatal(err)
			}
			if st.Corrupt < len(rot) || st.QuarantinedSegments != len(rot) || len(st.Lost) < len(rot) {
				t.Fatalf("scrub missed rot in segments %v: %+v", rot, st)
			}
			if q := globSegments(t, dir, "seg-*.quarantine"); len(q) != len(rot) {
				t.Fatalf("quarantine files %v, want one per rotted segment %v", q, rot)
			}
			for _, seg := range segsBefore {
				_, errLog := os.Stat(seg)
				_, errQ := os.Stat(strings.TrimSuffix(seg, ".log") + ".quarantine")
				if errLog != nil && errQ != nil {
					t.Fatalf("scrub unlinked %s", seg)
				}
			}
			if err := fs.Health(); !errors.Is(err, store.ErrCorrupt) {
				t.Fatalf("health = %v, want ErrCorrupt", err)
			}

			hs, err := db.Heal(testChunkSource{replica})
			if err != nil {
				t.Fatal(err)
			}
			if hs.Missing == 0 || hs.Repaired != hs.Corrupt+hs.Missing {
				t.Fatalf("heal did not refill the quarantine holes: %+v", hs)
			}
			if err := fs.Health(); err != nil {
				t.Fatalf("health after heal = %v, want nil", err)
			}
			if got := allHeads(t, db); !reflect.DeepEqual(got, headsBefore) {
				t.Fatalf("heal moved a branch head: %v, want %v", got, headsBefore)
			}
			verifyAllBranches(t, db)
		})
	}
}

// TestHealReportsUnrepairable: a source that lacks the damaged chunks cannot
// heal them; Heal must say so loudly (typed error, ids listed) instead of
// reporting success.
func TestHealReportsUnrepairable(t *testing.T) {
	dir := t.TempDir()
	db, fs := newFileDB(t, dir)
	defer fs.Close()
	seedHealDB(t, db, fs)

	rotSegment(t, dir, 1)
	if _, err := fs.Scrub(); err != nil {
		t.Fatal(err)
	}
	hs, err := db.Heal(testChunkSource{store.NewMemStore()})
	if !errors.Is(err, chunk.ErrCorrupt) {
		t.Fatalf("heal with empty source = %v, want ErrCorrupt", err)
	}
	if len(hs.Failed) == 0 || hs.Repaired != 0 {
		t.Fatalf("expected only failures: %+v", hs)
	}
}

// TestHealNoDamageIsNoop: healing a healthy store fetches nothing.
func TestHealNoDamageIsNoop(t *testing.T) {
	dir := t.TempDir()
	db, fs := newFileDB(t, dir)
	defer fs.Close()
	seedHealDB(t, db, fs)
	hs, err := db.Heal(testChunkSource{store.NewMemStore()})
	if err != nil {
		t.Fatal(err)
	}
	if hs.Repaired != 0 || hs.Missing != 0 || hs.Corrupt != 0 || hs.BytesFetched != 0 {
		t.Fatalf("no-op heal touched data: %+v", hs)
	}
	if hs.Checked == 0 {
		t.Fatal("no-op heal checked nothing")
	}
}

// TestScrubQuarantinePurgesNodeCache: a quarantine parks the segment's
// mapping, and a later sweep releases it once enough mappings are parked.
// Decoded POS nodes alias chunk bytes, so a cached decode of a record the
// quarantine rescued (or lost) must not outlive the scrub: after a heal and
// a run of GCs, every committed key still reads back its value.  A fault on
// a released mapping fails the test instead of the binary.
func TestScrubQuarantinePurgesNodeCache(t *testing.T) {
	dir := t.TempDir()
	fs, err := store.OpenFileStoreWith(dir, store.FileStoreOptions{SegmentSize: 8 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	db := Open(Options{Store: fs, Branches: NewMemBranchTable(), Chunking: chunker.SmallConfig(), NodeCacheBytes: 16 << 20})
	const rows = 3000
	readAll := func() (err error) {
		defer debug.SetPanicOnFault(debug.SetPanicOnFault(true))
		defer func() {
			if r := recover(); r != nil {
				err = fmt.Errorf("fault reading the map: %v", r)
			}
		}()
		uid, err := db.Head("m", "")
		if err != nil {
			return err
		}
		v, err := db.GetVersion("m", uid)
		if err != nil {
			return err
		}
		tree, err := pos.LoadTree(db.Store(), db.Chunking(), v.Value.Root())
		if err != nil {
			return err
		}
		for i := 0; i < rows; i++ {
			got, err := tree.Get([]byte(fmt.Sprintf("k-%05d", i)))
			if err != nil {
				return fmt.Errorf("k-%05d: %w", i, err)
			}
			if want := fmt.Sprintf("v1-%d", i); string(got) != want {
				return fmt.Errorf("k-%05d = %q, want %q", i, got, want)
			}
		}
		return nil
	}
	if _, err := db.Put("m", "", bigMap(t, db, rows, "v1"), nil); err != nil {
		t.Fatal(err)
	}
	if err := readAll(); err != nil {
		t.Fatal(err)
	}
	replica := mirrorStore(t, fs)

	rotSegment(t, dir, 1)
	ss, err := db.Scrub()
	if err != nil {
		t.Fatal(err)
	}
	if ss.QuarantinedSegments != 1 || len(ss.Lost) == 0 {
		t.Fatalf("scrub did not quarantine the rotted segment: %+v", ss)
	}
	if _, err := db.Heal(testChunkSource{replica}); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Put("filler", "", value.String("f"), nil); err != nil {
		t.Fatal(err)
	}
	// Each pass compacts a segment and parks its mapping; past the parking
	// bound the sweeps release the quarantined segment's mapping too.
	for i := 0; i < 14; i++ {
		if _, err := db.Put("tmp", "", bigMap(t, db, 200, fmt.Sprintf("t%d", i)), nil); err != nil {
			t.Fatal(err)
		}
		if err := db.DeleteBranch("tmp", DefaultBranch); err != nil {
			t.Fatal(err)
		}
		if _, err := db.GC(); err != nil {
			t.Fatal(err)
		}
	}
	if err := readAll(); err != nil {
		t.Fatal(err)
	}
}
