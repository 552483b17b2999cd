package core

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"forkbase/internal/chunker"
	"forkbase/internal/hash"
	"forkbase/internal/index"
	"forkbase/internal/obs"
	"forkbase/internal/pos"
	"forkbase/internal/store"
	"forkbase/internal/value"
)

func newTestDB() *DB {
	return Open(Options{Chunking: chunker.SmallConfig()})
}

// TestOpenRejectsInvalidChunking: a chunking config Validate refuses (a Q
// past the scanner's tables, an empty size range) panics at Open with
// Validate's error instead of failing inside the first build; a partial
// config that defaults into a valid one opens.
func TestOpenRejectsInvalidChunking(t *testing.T) {
	for _, cfg := range []chunker.Config{
		{Q: 40, Window: 48, MinSize: 1, MaxSize: 2},
		{Q: 12, Window: 48, MinSize: 64, MaxSize: 64},
	} {
		want := cfg.Validate()
		func() {
			defer func() {
				if err, _ := recover().(error); err == nil || err.Error() != want.Error() {
					t.Errorf("Open(%+v) panicked with %v, want %v", cfg, err, want)
				}
			}()
			Open(Options{Chunking: cfg})
		}()
	}
	Open(Options{Chunking: chunker.Config{Q: 12}})
}

func TestPutGetString(t *testing.T) {
	db := newTestDB()
	v1, err := db.Put("greeting", "", value.String("hello"), map[string]string{"author": "alice"})
	if err != nil {
		t.Fatal(err)
	}
	if v1.Seq != 1 || len(v1.Bases) != 0 {
		t.Fatalf("first version = %+v", v1)
	}
	got, err := db.Get("greeting", "master")
	if err != nil {
		t.Fatal(err)
	}
	s, err := got.Value.AsString()
	if err != nil || s != "hello" {
		t.Fatalf("get = %q %v", s, err)
	}
	if got.Meta["author"] != "alice" {
		t.Fatalf("meta = %v", got.Meta)
	}

	v2, err := db.Put("greeting", "", value.String("hi"), nil)
	if err != nil {
		t.Fatal(err)
	}
	if v2.Seq != 2 || len(v2.Bases) != 1 || v2.Bases[0] != v1.UID {
		t.Fatalf("second version = %+v", v2)
	}
}

func TestGetMissing(t *testing.T) {
	db := newTestDB()
	if _, err := db.Get("absent", ""); !errors.Is(err, ErrBranchNotFound) {
		t.Fatalf("err = %v", err)
	}
	if _, err := db.Head("absent", "master"); !errors.Is(err, ErrBranchNotFound) {
		t.Fatalf("head err = %v", err)
	}
}

func TestGetVersionWrongKey(t *testing.T) {
	db := newTestDB()
	v, err := db.Put("a", "", value.Int(1), nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.GetVersion("b", v.UID); err == nil {
		t.Fatal("cross-key version fetch succeeded")
	}
}

func TestHistoryAndVersionedGet(t *testing.T) {
	db := newTestDB()
	var uids []hash.Hash
	for i := 0; i < 5; i++ {
		v, err := db.Put("counter", "", value.Int(int64(i)), nil)
		if err != nil {
			t.Fatal(err)
		}
		uids = append(uids, v.UID)
	}
	hist, err := db.History("counter", "master", 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(hist) != 5 {
		t.Fatalf("history %d", len(hist))
	}
	// Historical versions remain retrievable — immutability.
	old, err := db.GetVersion("counter", uids[1])
	if err != nil {
		t.Fatal(err)
	}
	i, _ := old.Value.AsInt()
	if i != 1 {
		t.Fatalf("historical value = %d", i)
	}
}

func TestBranchAndIsolation(t *testing.T) {
	db := newTestDB()
	if _, err := db.Put("doc", "", value.String("v1"), nil); err != nil {
		t.Fatal(err)
	}
	if err := db.Branch("doc", "dev", ""); err != nil {
		t.Fatal(err)
	}
	// Branching is O(1) sharing: heads equal.
	m, _ := db.Head("doc", "master")
	d, _ := db.Head("doc", "dev")
	if m != d {
		t.Fatal("fresh branch head differs from origin")
	}
	// Writes to dev do not affect master.
	if _, err := db.Put("doc", "dev", value.String("v2-dev"), nil); err != nil {
		t.Fatal(err)
	}
	mv, _ := db.Get("doc", "master")
	s, _ := mv.Value.AsString()
	if s != "v1" {
		t.Fatalf("master polluted: %q", s)
	}
	dv, _ := db.Get("doc", "dev")
	s, _ = dv.Value.AsString()
	if s != "v2-dev" {
		t.Fatalf("dev = %q", s)
	}

	branches, err := db.ListBranches("doc")
	if err != nil {
		t.Fatal(err)
	}
	if len(branches) != 2 || branches[0] != "dev" || branches[1] != "master" {
		t.Fatalf("branches = %v", branches)
	}
	if err := db.Branch("doc", "dev", ""); !errors.Is(err, ErrBranchExists) {
		t.Fatalf("duplicate branch err = %v", err)
	}
	if err := db.Branch("doc", "x", "ghost"); !errors.Is(err, ErrBranchNotFound) {
		t.Fatalf("branch from ghost err = %v", err)
	}
}

func TestBranchFromVersion(t *testing.T) {
	db := newTestDB()
	v1, _ := db.Put("k", "", value.Int(1), nil)
	db.Put("k", "", value.Int(2), nil)
	if err := db.BranchFromVersion("k", "old", v1.UID); err != nil {
		t.Fatal(err)
	}
	got, _ := db.Get("k", "old")
	i, _ := got.Value.AsInt()
	if i != 1 {
		t.Fatalf("branch-from-version value = %d", i)
	}
}

func TestRenameAndDeleteBranch(t *testing.T) {
	db := newTestDB()
	db.Put("k", "", value.Int(1), nil)
	db.Branch("k", "tmp", "")
	if err := db.RenameBranch("k", "tmp", "feature"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Get("k", "feature"); err != nil {
		t.Fatalf("renamed branch unreadable: %v", err)
	}
	if _, err := db.Get("k", "tmp"); err == nil {
		t.Fatal("old name still readable")
	}
	if err := db.DeleteBranch("k", "feature"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Get("k", "feature"); err == nil {
		t.Fatal("deleted branch still readable")
	}
}

func TestLatestAcrossBranches(t *testing.T) {
	db := newTestDB()
	db.Put("k", "", value.Int(1), nil)
	db.Branch("k", "dev", "")
	db.Put("k", "dev", value.Int(2), nil)
	db.Put("k", "dev", value.Int(3), nil)
	branch, v, err := db.Latest("k")
	if err != nil {
		t.Fatal(err)
	}
	if branch != "dev" || v.Seq != 3 {
		t.Fatalf("latest = %s seq %d", branch, v.Seq)
	}
}

func TestListKeys(t *testing.T) {
	db := newTestDB()
	db.Put("b", "", value.Int(1), nil)
	db.Put("a", "", value.Int(2), nil)
	keys, err := db.ListKeys()
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) != 2 || keys[0] != "a" || keys[1] != "b" {
		t.Fatalf("keys = %v", keys)
	}
	if !db.Exists("a") || db.Exists("zz") {
		t.Fatal("Exists misreports")
	}
}

func mapVal(t *testing.T, db *DB, kv map[string]string) value.Value {
	t.Helper()
	entries := make([]pos.Entry, 0, len(kv))
	for k, v := range kv {
		entries = append(entries, pos.Entry{Key: []byte(k), Val: []byte(v)})
	}
	v, err := value.NewMap(db.Store(), db.Chunking(), entries)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func TestDiffBranches(t *testing.T) {
	db := newTestDB()
	base := map[string]string{}
	for i := 0; i < 500; i++ {
		base[fmt.Sprintf("row-%04d", i)] = fmt.Sprintf("val-%d", i)
	}
	db.Put("table", "", mapVal(t, db, base), nil)
	db.Branch("table", "vendor", "")

	mod := map[string]string{}
	for k, v := range base {
		mod[k] = v
	}
	mod["row-0100"] = "changed"
	delete(mod, "row-0200")
	mod["row-new"] = "added"
	db.Put("table", "vendor", mapVal(t, db, mod), nil)

	deltas, stats, err := db.DiffBranches("table", "master", "vendor")
	if err != nil {
		t.Fatal(err)
	}
	if len(deltas) != 3 {
		t.Fatalf("deltas = %d: %+v", len(deltas), deltas)
	}
	if stats.TouchedChunks == 0 {
		t.Fatal("no chunks touched?")
	}
	kinds := map[string]index.DeltaKind{}
	for _, d := range deltas {
		kinds[string(d.Key)] = d.Kind()
	}
	if kinds["row-0100"] != index.Modified || kinds["row-0200"] != index.Removed || kinds["row-new"] != index.Added {
		t.Fatalf("kinds = %v", kinds)
	}
}

func TestDiffKindMismatch(t *testing.T) {
	db := newTestDB()
	v1, _ := db.Put("k", "", value.String("s"), nil)
	v2, _ := db.Put("k", "", mapVal(t, db, map[string]string{"a": "b"}), nil)
	if _, _, err := db.Diff("k", v1.UID, v2.UID); err == nil {
		t.Fatal("cross-kind diff succeeded")
	}
	v3, _ := db.Put("k2", "", value.String("x"), nil)
	v4, _ := db.Put("k2", "", value.String("y"), nil)
	if _, _, err := db.Diff("k2", v3.UID, v4.UID); err == nil {
		t.Fatal("string diff succeeded")
	}
}

func TestMergeCleanAndConflict(t *testing.T) {
	db := newTestDB()
	base := map[string]string{}
	for i := 0; i < 300; i++ {
		base[fmt.Sprintf("row-%04d", i)] = "base"
	}
	db.Put("data", "", mapVal(t, db, base), nil)
	db.Branch("data", "alice", "")
	db.Branch("data", "bob", "")

	am := map[string]string{}
	for k, v := range base {
		am[k] = v
	}
	am["row-0001"] = "alice-edit"
	db.Put("data", "alice", mapVal(t, db, am), nil)

	bm := map[string]string{}
	for k, v := range base {
		bm[k] = v
	}
	bm["row-0200"] = "bob-edit"
	db.Put("data", "bob", mapVal(t, db, bm), nil)

	// Merge bob into alice: disjoint edits, no conflicts.
	res, err := db.Merge("data", "alice", "bob", nil, map[string]string{"msg": "merge bob"})
	if err != nil {
		t.Fatal(err)
	}
	if res.FastForward {
		t.Fatal("true merge flagged fast-forward")
	}
	if len(res.Version.Bases) != 2 {
		t.Fatalf("merge bases = %d", len(res.Version.Bases))
	}
	merged, _ := db.Get("data", "alice")
	tr, err := merged.Value.MapTree(db.Store(), db.Chunking())
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := tr.Get([]byte("row-0001")); string(v) != "alice-edit" {
		t.Fatalf("alice edit lost: %q", v)
	}
	if v, _ := tr.Get([]byte("row-0200")); string(v) != "bob-edit" {
		t.Fatalf("bob edit lost: %q", v)
	}

	// Now a conflicting change on both branches.
	cm1 := map[string]string{}
	for k, v := range am {
		cm1[k] = v
	}
	cm1["row-0200"] = "alice-overwrites" // conflicts with bob's row-0200 change? bob already merged; make fresh conflict
	db.Put("data", "alice", mapVal(t, db, cm1), nil)
	cm2 := map[string]string{}
	for k, v := range bm {
		cm2[k] = v
	}
	cm2["row-0200"] = "bob-again"
	db.Put("data", "bob", mapVal(t, db, cm2), nil)

	_, err = db.Merge("data", "alice", "bob", nil, nil)
	var ce *index.ErrConflict
	if !errors.As(err, &ce) {
		t.Fatalf("want conflict, got %v", err)
	}
	// With a resolver the merge completes.
	if _, err := db.Merge("data", "alice", "bob", index.ResolveTheirs, nil); err != nil {
		t.Fatalf("resolved merge failed: %v", err)
	}
	got, _ := db.Get("data", "alice")
	tr, _ = got.Value.MapTree(db.Store(), db.Chunking())
	if v, _ := tr.Get([]byte("row-0200")); string(v) != "bob-again" {
		t.Fatalf("resolver outcome = %q", v)
	}
}

func TestMergeFastForward(t *testing.T) {
	db := newTestDB()
	db.Put("k", "", mapVal(t, db, map[string]string{"a": "1"}), nil)
	db.Branch("k", "dev", "")
	db.Put("k", "dev", mapVal(t, db, map[string]string{"a": "1", "b": "2"}), nil)

	res, err := db.Merge("k", "master", "dev", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res.FastForward {
		t.Fatal("expected fast-forward")
	}
	mh, _ := db.Head("k", "master")
	dh, _ := db.Head("k", "dev")
	if mh != dh {
		t.Fatal("fast-forward did not advance master")
	}
	// Merging again is a no-op (already merged).
	res, err = db.Merge("k", "master", "dev", nil, nil)
	if err != nil || !res.FastForward {
		t.Fatalf("idempotent merge: %+v %v", res, err)
	}
	// Reverse direction: src behind dst → no-op.
	db.Put("k", "master", mapVal(t, db, map[string]string{"a": "1", "b": "2", "c": "3"}), nil)
	res, err = db.Merge("k", "master", "dev", nil, nil)
	if err != nil || !res.FastForward {
		t.Fatalf("already-contained merge: %v", err)
	}
}

func TestMergeSetValues(t *testing.T) {
	db := newTestDB()
	mkSet := func(elems ...string) value.Value {
		bs := make([][]byte, len(elems))
		for i, e := range elems {
			bs[i] = []byte(e)
		}
		v, err := value.NewSetWith(db.Store(), db.Chunking(), index.KindPOS, bs)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	db.Put("tags", "", mkSet("x", "y"), nil)
	db.Branch("tags", "dev", "")
	db.Put("tags", "master", mkSet("x", "y", "m"), nil)
	db.Put("tags", "dev", mkSet("x", "y", "d"), nil)
	res, err := db.Merge("tags", "master", "dev", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := res.Version.Value.Index(db.Store(), db.Chunking())
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range []string{"x", "y", "m", "d"} {
		if ok, _ := tr.Has([]byte(e)); !ok {
			t.Fatalf("merged set missing %q", e)
		}
	}
}

func TestMergePrimitiveConflictFails(t *testing.T) {
	db := newTestDB()
	db.Put("s", "", value.String("base"), nil)
	db.Branch("s", "dev", "")
	db.Put("s", "master", value.String("m"), nil)
	db.Put("s", "dev", value.String("d"), nil)
	if _, err := db.Merge("s", "master", "dev", nil, nil); err == nil {
		t.Fatal("diverged string merge succeeded")
	}
}

func TestDedupAcrossVersions(t *testing.T) {
	db := newTestDB()
	base := map[string]string{}
	for i := 0; i < 2000; i++ {
		base[fmt.Sprintf("row-%05d", i)] = fmt.Sprintf("value-%d", i)
	}
	db.Put("big", "", mapVal(t, db, base), nil)
	afterFirst := db.Stats().PhysicalBytes

	// 10 versions with one-row changes each: physical growth must be a
	// small fraction of the first version.
	for v := 0; v < 10; v++ {
		base[fmt.Sprintf("row-%05d", v*137)] = fmt.Sprintf("edit-%d", v)
		db.Put("big", "", mapVal(t, db, base), nil)
	}
	growth := db.Stats().PhysicalBytes - afterFirst
	if growth > afterFirst/2 {
		t.Fatalf("10 single-row versions grew storage by %d (first version %d) — dedup broken",
			growth, afterFirst)
	}
	t.Logf("first version: %d B; 10 more versions: +%d B (%.1f%%)",
		afterFirst, growth, 100*float64(growth)/float64(afterFirst))
}

func TestStaleHeadDetection(t *testing.T) {
	bt := NewMemBranchTable()
	db := Open(Options{Branches: bt, Chunking: chunker.SmallConfig()})
	v, err := db.Put("k", "", value.Int(1), nil)
	if err != nil {
		t.Fatal(err)
	}
	// Simulate a concurrent writer moving the head under us.
	otherDB := Open(Options{Store: db.RawStore(), Branches: bt, Chunking: chunker.SmallConfig()})
	if _, err := otherDB.Put("k", "", value.Int(2), nil); err != nil {
		t.Fatal(err)
	}
	_ = v
	// The next CAS from a stale base must fail at the table level; emulate
	// by direct CAS with the old head.
	ok, err := bt.CompareAndSet("k", "master", v.UID, hash.Of([]byte("x")))
	if err != nil || ok {
		t.Fatalf("stale CAS succeeded: %v %v", ok, err)
	}
}

func TestFileBranchTablePersistence(t *testing.T) {
	dir := t.TempDir()
	fs, err := store.OpenFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	bt, err := OpenFileBranchTable(dir)
	if err != nil {
		t.Fatal(err)
	}
	db := Open(Options{Store: fs, Branches: bt, Chunking: chunker.SmallConfig()})
	want, err := db.Put("persisted", "", value.String("survives"), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Branch("persisted", "extra", ""); err != nil {
		t.Fatal(err)
	}
	if err := db.RenameBranch("persisted", "extra", "renamed"); err != nil {
		t.Fatal(err)
	}
	db.Close()
	if err := bt.Close(); err != nil {
		t.Fatal(err)
	}
	fs.Close()

	// Reopen everything.
	fs2, err := store.OpenFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer fs2.Close()
	bt2, err := OpenFileBranchTable(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer bt2.Close()
	db2 := Open(Options{Store: fs2, Branches: bt2, Chunking: chunker.SmallConfig()})
	defer db2.Close()
	got, err := db2.Get("persisted", "master")
	if err != nil {
		t.Fatal(err)
	}
	if got.UID != want.UID {
		t.Fatalf("reopened head %s != %s", got.UID.Short(), want.UID.Short())
	}
	s, _ := got.Value.AsString()
	if s != "survives" {
		t.Fatalf("value = %q", s)
	}
	branches, _ := db2.ListBranches("persisted")
	if len(branches) != 2 || (branches[0] != "renamed" && branches[1] != "renamed") {
		t.Fatalf("branches after reopen = %v", branches)
	}
}

func TestBranchTableRenameDeleteErrors(t *testing.T) {
	bt := NewMemBranchTable()
	db := Open(Options{Branches: bt})
	if err := db.DeleteBranch("k", "b"); !errors.Is(err, ErrBranchNotFound) {
		t.Fatalf("delete missing: %v", err)
	}
	if err := db.RenameBranch("k", "a", "b"); !errors.Is(err, ErrBranchNotFound) {
		t.Fatalf("rename missing: %v", err)
	}
	bt.CompareAndSet("k", "a", hash.Hash{}, hash.Of([]byte("1")))
	bt.CompareAndSet("k", "b", hash.Hash{}, hash.Of([]byte("2")))
	for _, to := range []string{"b", "a"} {
		if err := db.RenameBranch("k", "a", to); !errors.Is(err, ErrBranchExists) {
			t.Fatalf("rename onto existing %s: %v", to, err)
		}
	}
	if _, err := bt.Branches("ghost"); !errors.Is(err, ErrKeyNotFound) {
		t.Fatalf("branches of missing key: %v", err)
	}
	// A table refuses an Apply whose expectation fails, and changes nothing:
	// not even the ops before the failing one.
	before := allHeadsOf(t, bt)
	ok, err := bt.Apply([]HeadOp{
		{Key: "k", Branch: "a", Expect: hash.Of([]byte("1"))},
		{Key: "k", Branch: "c", Set: hash.Of([]byte("1"))},
		{Key: "k", Branch: "b", Expect: hash.Of([]byte("stale")), Set: hash.Of([]byte("3"))},
	})
	if ok || err != nil || !reflect.DeepEqual(allHeadsOf(t, bt), before) {
		t.Fatalf("Apply with a stale op: ok=%v err=%v, heads %v, want %v", ok, err, allHeadsOf(t, bt), before)
	}
}

// TestTablesRefuseUnjournalableNames: every table refuses the names a heads
// journal record cannot hold, with the file table's error — so an
// in-memory primary cannot publish a head a file-backed follower could not
// journal.
func TestTablesRefuseUnjournalableNames(t *testing.T) {
	long := strings.Repeat("x", maxName+1)
	file, err := OpenFileBranchTable(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer file.Close()
	for _, c := range [][2]string{{"", "master"}, {long, "master"}, {"k", long}} {
		_, want := file.CompareAndSet(c[0], c[1], hash.Hash{}, hash.Of([]byte("v")))
		if want == nil {
			t.Fatalf("file table accepted a %d-byte key and %d-byte branch", len(c[0]), len(c[1]))
		}
		db := Open(Options{})
		if _, err := db.Put(c[0], c[1], value.String("v"), nil); err == nil || err.Error() != want.Error() {
			t.Fatalf("in-memory Put of a %d-byte key and %d-byte branch: %v, want %v", len(c[0]), len(c[1]), err, want)
		}
		if keys, _ := db.ListKeys(); len(keys) != 0 {
			t.Fatalf("refused Put left keys %v", keys)
		}
	}
}

func TestWriteBatchMultiKey(t *testing.T) {
	db := newTestDB()
	ops := []WriteOp{
		{Key: "a", Value: value.String("va")},
		{Key: "b", Branch: "dev", Value: value.String("vb"), Meta: map[string]string{"m": "1"}},
		{Key: "c", Value: value.Int(7)},
	}
	vers, err := db.WriteBatch(ops)
	if err != nil {
		t.Fatal(err)
	}
	if len(vers) != 3 {
		t.Fatalf("versions = %d", len(vers))
	}
	for i, v := range vers {
		if v.Seq != 1 {
			t.Fatalf("op %d seq = %d", i, v.Seq)
		}
	}
	got, err := db.Get("b", "dev")
	if err != nil {
		t.Fatal(err)
	}
	if got.UID != vers[1].UID || got.Meta["m"] != "1" {
		t.Fatalf("b@dev = %+v", got)
	}
	if s, _ := got.Value.AsString(); s != "vb" {
		t.Fatalf("b@dev value = %q", s)
	}
}

func TestWriteBatchChainsSameKey(t *testing.T) {
	db := newTestDB()
	vers, err := db.WriteBatch([]WriteOp{
		{Key: "k", Value: value.String("one")},
		{Key: "k", Value: value.String("two")},
		{Key: "k", Value: value.String("three")},
	})
	if err != nil {
		t.Fatal(err)
	}
	if vers[0].Seq != 1 || vers[1].Seq != 2 || vers[2].Seq != 3 {
		t.Fatalf("seqs = %d %d %d", vers[0].Seq, vers[1].Seq, vers[2].Seq)
	}
	if vers[1].Bases[0] != vers[0].UID || vers[2].Bases[0] != vers[1].UID {
		t.Fatal("batch ops on one key not chained")
	}
	head, err := db.Head("k", "")
	if err != nil {
		t.Fatal(err)
	}
	if head != vers[2].UID {
		t.Fatal("head is not the last batch op")
	}
	hist, err := db.History("k", "", 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(hist) != 3 {
		t.Fatalf("history = %d versions", len(hist))
	}
}

// racingBranchTable moves the victim's head between WriteBatch's read and
// Apply phases.
type racingBranchTable struct {
	BranchTable
	moved bool
}

func (r *racingBranchTable) Apply(ops []HeadOp) (bool, error) {
	for _, op := range ops {
		if !r.moved && op.Key == "victim" {
			r.moved = true
			// Simulate a concurrent writer: advance the head underneath.
			r.BranchTable.CompareAndSet(op.Key, op.Branch, op.Expect, hash.Of([]byte("interloper")))
		}
	}
	return r.BranchTable.Apply(ops)
}

// TestWriteBatchPartialFailure: a batch commits all or nothing.  A raced op
// fails the whole batch with ErrStaleHead, and no op of it commits — not the
// ones before the raced op, not the ones after.
func TestWriteBatchPartialFailure(t *testing.T) {
	inner := NewMemBranchTable()
	db := Open(Options{Branches: &racingBranchTable{BranchTable: inner}, Chunking: chunker.SmallConfig()})
	vers, err := db.WriteBatch([]WriteOp{
		{Key: "before", Value: value.String("fine")},
		{Key: "victim", Value: value.String("lost race")},
		{Key: "after", Value: value.String("fine")},
	})
	if !errors.Is(err, ErrStaleHead) || vers != nil {
		t.Fatalf("vers=%v err=%v, want no versions and ErrStaleHead", vers, err)
	}
	for _, key := range []string{"before", "after"} {
		if _, err := db.Get(key, ""); !errors.Is(err, ErrBranchNotFound) {
			t.Fatalf("%s after a failed batch: %v, want ErrBranchNotFound", key, err)
		}
	}
	if head, _, _ := inner.Head("victim", DefaultBranch); head != hash.Of([]byte("interloper")) {
		t.Fatalf("victim head %s, want the interloper's", head.Short())
	}
}

// TestHistoryDecodesOnce pins the satellite fix: History loads each FNode
// exactly once (walk + materialize share the loads).
func TestHistoryDecodesOnce(t *testing.T) {
	ms := store.NewMemStore()
	db := Open(Options{Store: ms, Chunking: chunker.SmallConfig()})
	const n = 10
	for i := 0; i < n; i++ {
		if _, err := db.Put("k", "", value.String(fmt.Sprintf("v%d", i)), nil); err != nil {
			t.Fatal(err)
		}
	}
	before := ms.Stats().Gets
	hist, err := db.History("k", "", 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(hist) != n {
		t.Fatalf("history = %d", len(hist))
	}
	gets := ms.Stats().Gets - before
	// One store Get per version (head lookup is branch-table only).  The old
	// implementation needed 2n-1.
	if gets > int64(n) {
		t.Fatalf("history cost %d store gets for %d versions, want <= %d", gets, n, n)
	}
	for i, v := range hist {
		want := fmt.Sprintf("v%d", n-1-i)
		if s, _ := v.Value.AsString(); s != want {
			t.Fatalf("hist[%d] = %q, want %q", i, s, want)
		}
	}
}

// TestWarmGetAllocatesNothing: a Get whose FNode is a node-cache hit
// allocates nothing.  The slow-op record's key and branch fields are boxed
// only when the record is written, not on every call.
func TestWarmGetAllocatesNothing(t *testing.T) {
	db := Open(Options{NodeCacheBytes: 1 << 20, Metrics: obs.NewRegistry()})
	if _, err := db.Put("key", "branch", value.String("v"), nil); err != nil {
		t.Fatal(err)
	}
	var err error
	if n := testing.AllocsPerRun(100, func() { _, err = db.Get("key", "branch") }); err != nil || n != 0 {
		t.Fatalf("warm Get: %v allocations a call, err %v; want 0", n, err)
	}
}
