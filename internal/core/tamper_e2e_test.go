package core

import (
	"errors"
	"testing"

	"forkbase/internal/chunk"
	"forkbase/internal/chunker"
	"forkbase/internal/hash"
	"forkbase/internal/store"
)

// TestTamperAfterVerifyScrubHealRecovers is the end-to-end pin for the
// verified stamp's one accepted staleness window: bytes that rot on disk
// *after* a fully verified read.  Every reachable sealed chunk is stamped
// when the rot lands; the sequence scrub → health → heal must still
// classify the damage, repair it from a replica, and leave no stamp
// vouching for stale bytes.  Run under -race in CI's verify shard.
func TestTamperAfterVerifyScrubHealRecovers(t *testing.T) {
	dir := t.TempDir()
	db, fs := newFileDB(t, dir)
	defer fs.Close()
	seedHealDB(t, db, fs)
	replica := mirrorStore(t, fs)

	// Phase 1 — verified read: deep-verify every branch, which rehashes every
	// reachable chunk through the verifying store and stamps what it read, so
	// a plain read of any of them is then served on the stamp.
	verifyAllBranches(t, db)
	vst := db.VerifyStats()
	if !vst.Enabled {
		t.Fatal("verified stamp off over a plain file store")
	}
	if vst.Misses == 0 {
		t.Fatalf("deep verify paid no rehash: %+v", vst)
	}
	ids := fs.IDs()
	for _, id := range ids {
		if _, err := db.Store().Get(id); err != nil {
			t.Fatal(err)
		}
	}
	if got := db.VerifyStats().Hits - vst.Hits; got != int64(len(ids)) {
		t.Fatalf("%d of %d reads after deep verify were served on a stamp", got, len(ids))
	}

	// Phase 2 — tamper after the verified read.
	rotSegment(t, dir, 1)

	// Phase 3 — scrub classifies despite the warm cache (scrub reads the
	// segment bytes directly; a verified stamp is never an oracle for it).
	ss, err := db.Scrub()
	if err != nil {
		t.Fatal(err)
	}
	if ss.Corrupt == 0 || len(ss.Lost) == 0 {
		t.Fatalf("scrub over a warm verify cache missed the rot: %+v", ss)
	}
	if err := fs.Health(); !errors.Is(err, store.ErrCorrupt) {
		t.Fatalf("health = %v, want ErrCorrupt", err)
	}
	// Every stamp died with the quarantine: a stamped survivor's next read
	// pays exactly one digest.
	lost := make(map[hash.Hash]bool)
	for _, id := range ss.Lost {
		lost[id] = true
	}
	for _, id := range ids {
		if lost[id] {
			continue
		}
		before := db.VerifyStats()
		if _, err := db.Store().Get(id); err != nil {
			t.Fatal(err)
		}
		if after := db.VerifyStats(); after.Misses-before.Misses != 1 || after.Hits != before.Hits {
			t.Fatalf("survivor %s read after the quarantine: %+v, before %+v", id.Short(), after, before)
		}
		break
	}
	// The lost chunk must not be served from any cache layer.
	if _, err := db.Store().Get(ss.Lost[0]); err == nil {
		t.Fatal("lost chunk still readable after quarantine")
	}

	// Phase 4 — heal refills the holes from the replica and re-verifies
	// what is actually on disk (heal never trusts a stamp either).
	hs, err := db.Heal(testChunkSource{replica})
	if err != nil {
		t.Fatal(err)
	}
	if hs.Repaired == 0 || hs.Repaired != hs.Corrupt+hs.Missing || len(hs.Failed) != 0 {
		t.Fatalf("heal did not repair the rot: %+v", hs)
	}
	if err := fs.Health(); err != nil {
		t.Fatalf("health after heal = %v, want nil", err)
	}

	// Phase 5 — the store deep-verifies clean again, end to end.
	verifyAllBranches(t, db)
}

// TestVerifyRehashesStampedChunks: a chunk the engine just wrote carries the
// store's verified stamp, and the active segment is read through its mapping,
// so a plain read of it pays no hash.  Validation must not lean on that
// stamp: bytes changed on disk after the write are reported, shallow and
// deep, and a read after that pays the rehash too.
func TestVerifyRehashesStampedChunks(t *testing.T) {
	dir := t.TempDir()
	fs, err := store.OpenFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	db := Open(Options{Store: fs, Branches: NewMemBranchTable(), Chunking: chunker.SmallConfig()})
	v, err := db.Put("k", "", bigMap(t, db, 400, "v1"), nil)
	if err != nil {
		t.Fatal(err)
	}
	ids := fs.IDs()
	hits := db.VerifyStats().Hits
	for _, id := range ids {
		if _, err := db.Store().Get(id); err != nil {
			t.Fatal(err)
		}
	}
	if got := db.VerifyStats().Hits - hits; got != int64(len(ids)) {
		t.Fatalf("%d of %d reads of fresh writes were served on their stamp", got, len(ids))
	}

	rotSegment(t, dir, 0) // the active segment: the first chunk the Put wrote
	var rotted hash.Hash
	for _, deep := range []bool{false, true} {
		rep, err := db.VerifyVersion("k", v.UID, deep)
		if !errors.Is(err, ErrTampered) || len(rep.Failures) != 1 || rep.Failures[0].ChunkID == v.UID {
			t.Fatalf("deep=%v: verify of bytes changed behind a stamp: err=%v report=%+v", deep, err, rep)
		}
		rotted = rep.Failures[0].ChunkID
	}
	if _, err := db.Store().Get(rotted); !errors.Is(err, chunk.ErrCorrupt) {
		t.Fatalf("read after a failed validation = %v, want ErrCorrupt", err)
	}
}
