package core

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"forkbase/internal/chunker"
	"forkbase/internal/index"
	"forkbase/internal/pos"
	"forkbase/internal/store"
	"forkbase/internal/value"
)

// End-to-end coverage for MPT-rooted objects through every engine
// subsystem that walks value graphs: the write paths, diff, merge,
// garbage collection and tamper verification — all dispatching on the
// index kind, never through pos-specific calls.

func mptDB() *DB {
	return Open(Options{Chunking: chunker.SmallConfig(), Index: index.KindMPT})
}

func mptEntries(n, gen int) []index.Entry {
	out := make([]index.Entry, n)
	for i := range out {
		out[i] = index.Entry{
			Key: []byte(fmt.Sprintf("row-%06d", i)),
			Val: []byte(fmt.Sprintf("val-%d-%d", i, gen)),
		}
	}
	return out
}

func TestMPTEngineRoundTrip(t *testing.T) {
	db := mptDB()
	v, err := db.NewMapValue(mptEntries(2000, 0))
	if err != nil {
		t.Fatal(err)
	}
	ver, err := db.Put("table", "", v, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ver.Value.IndexKind() != index.KindMPT {
		t.Fatalf("version records index %s, want mpt", ver.Value.IndexKind())
	}
	// The FNode round-trips the kind.
	got, err := db.Get("table", "")
	if err != nil {
		t.Fatal(err)
	}
	if got.Value.IndexKind() != index.KindMPT {
		t.Fatalf("loaded version records index %s, want mpt", got.Value.IndexKind())
	}
	ix, err := db.IndexOf(got)
	if err != nil {
		t.Fatal(err)
	}
	if ix.Kind() != index.KindMPT || ix.Len() != 2000 {
		t.Fatalf("IndexOf: kind=%s len=%d", ix.Kind(), ix.Len())
	}
	val, err := ix.Get([]byte("row-001234"))
	if err != nil || !bytes.Equal(val, []byte("val-1234-0")) {
		t.Fatalf("Get = %q, %v", val, err)
	}

	// Incremental edit keeps the structure and diffs structurally.
	v2, err := db.EditMap("table", "", []index.Entry{{Key: []byte("row-001234"), Val: []byte("EDITED")}}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if v2.Value.IndexKind() != index.KindMPT {
		t.Fatalf("edited version records index %s", v2.Value.IndexKind())
	}
	deltas, stats, err := db.Diff("table", ver.UID, v2.UID)
	if err != nil {
		t.Fatal(err)
	}
	if len(deltas) != 1 || deltas[0].Kind() != index.Modified {
		t.Fatalf("deltas = %+v", deltas)
	}
	if stats.PrunedRefs == 0 {
		t.Fatalf("MPT diff pruned nothing: %+v", stats)
	}
}

func TestMPTEngineMerge(t *testing.T) {
	db := mptDB()
	v, err := db.NewMapValue(mptEntries(500, 0))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.Put("obj", "", v, nil); err != nil {
		t.Fatal(err)
	}
	if err := db.Branch("obj", "feature", ""); err != nil {
		t.Fatal(err)
	}
	if _, err := db.EditMap("obj", "", []index.Entry{{Key: []byte("row-000001"), Val: []byte("master-side")}}, nil, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := db.EditMap("obj", "feature", []index.Entry{{Key: []byte("row-000400"), Val: []byte("feature-side")}}, [][]byte{[]byte("row-000002")}, nil); err != nil {
		t.Fatal(err)
	}
	res, err := db.Merge("obj", DefaultBranch, "feature", nil, nil)
	if err != nil {
		t.Fatalf("clean merge failed: %v", err)
	}
	if res.FastForward {
		t.Fatal("expected a real merge")
	}
	if res.Version.Value.IndexKind() != index.KindMPT {
		t.Fatalf("merge version records index %s", res.Version.Value.IndexKind())
	}
	ix, err := db.IndexOf(res.Version)
	if err != nil {
		t.Fatal(err)
	}
	for key, want := range map[string]string{"row-000001": "master-side", "row-000400": "feature-side"} {
		got, err := ix.Get([]byte(key))
		if err != nil || string(got) != want {
			t.Fatalf("merged %s = %q, %v", key, got, err)
		}
	}
	if _, err := ix.Get([]byte("row-000002")); !errors.Is(err, index.ErrKeyNotFound) {
		t.Fatalf("deleted key survived merge: %v", err)
	}

	// Conflicting edits surface index.ErrConflict.
	if err := db.Branch("obj", "clash", ""); err != nil {
		t.Fatal(err)
	}
	if _, err := db.EditMap("obj", "", []index.Entry{{Key: []byte("row-000100"), Val: []byte("ours")}}, nil, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := db.EditMap("obj", "clash", []index.Entry{{Key: []byte("row-000100"), Val: []byte("theirs")}}, nil, nil); err != nil {
		t.Fatal(err)
	}
	_, err = db.Merge("obj", DefaultBranch, "clash", nil, nil)
	var ce *index.ErrConflict
	if !errors.As(err, &ce) || len(ce.Conflicts) != 1 {
		t.Fatalf("want one conflict, got %v", err)
	}
	res, err = db.Merge("obj", DefaultBranch, "clash", index.ResolveTheirs, nil)
	if err != nil {
		t.Fatal(err)
	}
	ix, err = db.IndexOf(res.Version)
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := ix.Get([]byte("row-000100")); string(got) != "theirs" {
		t.Fatalf("resolved value = %q", got)
	}
}

// TestMPTGarbageCollection: MPT chunks are marked through fnode.Refs's MPT
// arm — live data survives a full GC, deleted branches are swept.
func TestMPTGarbageCollection(t *testing.T) {
	db := mptDB()
	v, err := db.NewMapValue(mptEntries(1000, 0))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.Put("obj", "", v, nil); err != nil {
		t.Fatal(err)
	}
	// A doomed branch with distinct content.
	if err := db.Branch("obj", "doomed", ""); err != nil {
		t.Fatal(err)
	}
	doomedEntries := make([]index.Entry, 200)
	for i := range doomedEntries {
		doomedEntries[i] = index.Entry{Key: []byte(fmt.Sprintf("doomed-%06d", i)), Val: []byte("garbage")}
	}
	if _, err := db.EditMap("obj", "doomed", doomedEntries, nil, nil); err != nil {
		t.Fatal(err)
	}
	before := db.Stats().UniqueChunks
	if err := db.DeleteBranch("obj", "doomed"); err != nil {
		t.Fatal(err)
	}
	stats, err := db.GC()
	if err != nil {
		t.Fatalf("GC: %v", err)
	}
	if stats.Swept == 0 {
		t.Fatal("GC swept nothing despite a deleted MPT branch")
	}
	if db.Stats().UniqueChunks >= before {
		t.Fatal("store did not shrink")
	}
	// Live data fully readable afterwards.
	got, err := db.Get("obj", "")
	if err != nil {
		t.Fatal(err)
	}
	ix, err := db.IndexOf(got)
	if err != nil {
		t.Fatal(err)
	}
	it, err := ix.Iterate()
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for it.Next() {
		n++
	}
	if err := it.Err(); err != nil {
		t.Fatalf("post-GC scan: %v", err)
	}
	if n != 1000 {
		t.Fatalf("post-GC scan found %d entries, want 1000", n)
	}
	// Verification over the swept store stays green.
	if _, err := db.VerifyVersion("obj", got.UID, true); err != nil {
		t.Fatalf("post-GC verify: %v", err)
	}
}

// TestMPTVerifyDetectsTampering: flipping a bit in an MPT node chunk is
// caught by VerifyVersion walking through fnode.Refs's MPT arm.
func TestMPTVerifyDetectsTampering(t *testing.T) {
	mal := store.NewMaliciousStore(store.NewMemStore())
	db := Open(Options{Store: mal, Chunking: chunker.SmallConfig(), Index: index.KindMPT})
	v, err := db.NewMapValue(mptEntries(800, 0))
	if err != nil {
		t.Fatal(err)
	}
	ver, err := db.Put("obj", "", v, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.VerifyVersion("obj", ver.UID, false); err != nil {
		t.Fatalf("clean verify: %v", err)
	}
	ids, err := ver.Value.ChunkIDs(db.RawStore(), db.Chunking())
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt an interior node (the first id is the root).
	if _, err := mal.CorruptFlip(ids[len(ids)/2], 3, 1); err != nil {
		t.Fatal(err)
	}
	rep, err := db.VerifyVersion("obj", ver.UID, false)
	if !errors.Is(err, ErrTampered) {
		t.Fatalf("tampering not detected: %v", err)
	}
	if rep.OK || len(rep.Failures) == 0 {
		t.Fatalf("report = %+v", rep)
	}
}

// TestMixedStructuresInOneDB: a single store holds POS- and MPT-rooted
// objects side by side; each version records its structure, diffs fall back
// generically across them, and GC keeps both alive.
func TestMixedStructuresInOneDB(t *testing.T) {
	db := Open(Options{Chunking: chunker.SmallConfig()}) // POS default
	posVal, err := db.NewMapValue(mptEntries(300, 0))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.Put("posObj", "", posVal, nil); err != nil {
		t.Fatal(err)
	}
	mptVal, err := value.NewMapWith(db.Store(), db.Chunking(), index.KindMPT, mptEntries(300, 0))
	if err != nil {
		t.Fatal(err)
	}
	mptVer, err := db.Put("mptObj", "", mptVal, nil)
	if err != nil {
		t.Fatal(err)
	}
	if mptVer.Value.IndexKind() != index.KindMPT {
		t.Fatalf("recorded kind = %s, want mpt (the kind the value was built with)", mptVer.Value.IndexKind())
	}
	posVer, err := db.Get("posObj", "")
	if err != nil {
		t.Fatal(err)
	}
	if posVer.Value.IndexKind() != index.KindPOS {
		t.Fatalf("pos object records %s", posVer.Value.IndexKind())
	}
	// Cross-structure diff via the generic fallback: identical contents.
	deltas, _, err := db.diffValues(posVer.Value, mptVer.Value)
	if err != nil {
		t.Fatal(err)
	}
	if len(deltas) != 0 {
		t.Fatalf("cross-structure diff of identical contents: %d deltas", len(deltas))
	}
	if _, err := db.GC(); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"posObj", "mptObj"} {
		got, err := db.Get(key, "")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := db.VerifyVersion(key, got.UID, true); err != nil {
			t.Fatalf("post-GC verify of %s: %v", key, err)
		}
	}
	// pos.Tree loading an MPT root fails with a clear error rather than
	// misreading it.
	if _, err := pos.LoadTree(db.Store(), db.Chunking(), mptVer.Value.Root()); err == nil {
		t.Fatal("pos.LoadTree accepted an MPT root")
	}
}

// TestEmptyHeadKeepsStructure is the regression for a review-confirmed
// bug: a branch whose head emptied (zero root — no root chunk) must
// keep its recorded structure through diffs and merges even when the
// engine reopens with a different default index kind.  Before the fix,
// mergeValues hinted empty values with the *engine* default, so merging
// onto an empty-headed MPT branch from a POS-default engine silently
// flipped the branch to POS.
func TestEmptyHeadKeepsStructure(t *testing.T) {
	st := store.NewMemStore()
	bt := NewMemBranchTable()
	mdb := Open(Options{Store: st, Branches: bt, Chunking: chunker.SmallConfig(), Index: index.KindMPT})
	v, err := mdb.NewMapValue(mptEntries(50, 0))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mdb.Put("obj", "", v, nil); err != nil {
		t.Fatal(err)
	}
	if err := mdb.Branch("obj", "fork", ""); err != nil {
		t.Fatal(err)
	}
	// Empty master's head: delete every key.
	dels := make([][]byte, 50)
	for i := range dels {
		dels[i] = []byte(fmt.Sprintf("row-%06d", i))
	}
	empty, err := mdb.EditMap("obj", "", nil, dels, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !empty.Value.Root().IsZero() || empty.Value.IndexKind() != index.KindMPT {
		t.Fatalf("emptied head: root=%s index=%s", empty.Value.Root().Short(), empty.Value.IndexKind())
	}
	// Diverge the fork with a key master's deletes do not touch, so the
	// merge is a clean three-way merge.
	if _, err := mdb.EditMap("obj", "fork", []index.Entry{{Key: []byte("fresh-key"), Val: []byte("forked")}}, nil, nil); err != nil {
		t.Fatal(err)
	}

	// "Reopen" over the same substrate with the POS default.
	pdb := Open(Options{Store: st, Branches: bt, Chunking: chunker.SmallConfig()})
	res, err := pdb.Merge("obj", "", "fork", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Version.Value.IndexKind() != index.KindMPT {
		t.Fatalf("merge onto empty MPT head flipped the branch to %s", res.Version.Value.IndexKind())
	}
	ix, err := pdb.IndexOf(res.Version)
	if err != nil {
		t.Fatal(err)
	}
	if ix.Kind() != index.KindMPT {
		t.Fatalf("merged index is %s", ix.Kind())
	}
	// An incremental edit on the (still empty-rooted at base) branch from
	// the POS-default engine likewise stays MPT.
	v2, err := pdb.EditMap("obj", "", []index.Entry{{Key: []byte("x"), Val: []byte("y")}}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if v2.Value.IndexKind() != index.KindMPT {
		t.Fatalf("edit on MPT branch recorded %s", v2.Value.IndexKind())
	}
}
