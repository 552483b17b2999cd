package core

import (
	"errors"
	"testing"

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

	// Phase 1 — verified read: deep-verify every branch, which walks every
	// reachable chunk through the verifying store; what it reads is stamped.
	verifyAllBranches(t, db)
	vst := db.VerifyStats()
	if !vst.Enabled {
		t.Fatal("verified stamp off over a plain file store")
	}
	if vst.Hits == 0 {
		t.Fatalf("deep verify was served by no stamp: %+v", vst)
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
	if got := db.VerifyStats().Invalidations; got == 0 {
		t.Fatal("scrub findings invalidated no verified stamp")
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
