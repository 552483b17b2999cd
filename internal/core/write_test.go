package core

import (
	"context"
	"errors"
	"maps"
	"testing"
	"time"

	"forkbase/internal/chunker"
	"forkbase/internal/hash"
	"forkbase/internal/index"
	"forkbase/internal/store"
	"forkbase/internal/value"
)

// fenceTable is a branch table that, while armed, records for every Apply
// and Keys call whether its caller held the engine's GC fence, and runs
// onApply, when set, before an Apply reaches the table.
type fenceTable struct {
	BranchTable
	db      *DB
	armed   bool
	fenced  []bool
	onApply func()
}

func (f *fenceTable) probe() {
	if !f.armed {
		return
	}
	free := f.db.heads.fence.TryLock()
	if free {
		f.db.heads.fence.Unlock()
	}
	f.fenced = append(f.fenced, !free)
}

func (f *fenceTable) Apply(ops []HeadOp) (bool, error) {
	f.probe()
	if f.onApply != nil {
		f.onApply()
	}
	return f.BranchTable.Apply(ops)
}

func (f *fenceTable) Keys() ([]string, error) {
	f.probe()
	return f.BranchTable.Keys()
}

// heads lists every head of the table beneath the probe.
func (f *fenceTable) heads(t *testing.T) map[string]map[string]hash.Hash {
	t.Helper()
	keys, err := f.BranchTable.Keys()
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string]map[string]hash.Hash, len(keys))
	for _, k := range keys {
		if out[k], err = f.BranchTable.Branches(k); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// fenceFixture opens an engine over a fenceTable holding a map m with a
// branch dev that diverged from master, a list l and a blob b, and a
// read-only engine over the same store and table.
func fenceFixture(t *testing.T) (db, ro *DB, table *fenceTable) {
	t.Helper()
	table = &fenceTable{BranchTable: NewMemBranchTable()}
	opts := Options{Store: store.NewMemStore(), Branches: table, Chunking: chunker.SmallConfig()}
	db = Open(opts)
	table.db = db
	row := func(k, v string) []index.Entry { return []index.Entry{{Key: []byte(k), Val: []byte(v)}} }
	m, err := db.NewMapValue(row("a", "1"))
	if err != nil {
		t.Fatal(err)
	}
	l, err := value.NewList(db.Store(), db.Chunking(), [][]byte{[]byte("x")})
	if err != nil {
		t.Fatal(err)
	}
	b, err := value.NewBlob(db.Store(), db.Chunking(), []byte("blob"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err = db.WriteBatch([]WriteOp{{Key: "m", Value: m}, {Key: "l", Value: l}, {Key: "b", Value: b}}); err == nil {
		err = db.Branch("m", "dev", "")
	}
	if err == nil {
		_, err = db.EditMap("m", "dev", row("b", "2"), nil, nil)
	}
	if err == nil {
		_, err = db.EditMap("m", "", row("c", "3"), nil, nil)
	}
	if err != nil {
		t.Fatal(err)
	}
	opts.ReadOnly = true
	return db, Open(opts), table
}

// TestEveryWriteIsGuardedAndFenced holds every mutating engine method to the
// write frame: on a read-only engine it returns ErrReadOnly and moves no
// head, and on a writable one the heads move (and GC lists them) only while
// the GC fence is held.
func TestEveryWriteIsGuardedAndFenced(t *testing.T) {
	ctx := context.Background()
	str := func() (value.Value, error) { return value.String("v"), nil }
	batch := []WriteOp{{Key: "p", Value: value.String("1")}, {Key: "q", Value: value.String("2")}}
	puts := []index.Entry{{Key: []byte("d"), Val: []byte("4")}}
	for _, row := range []struct {
		name string
		run  func(db *DB) error
	}{
		{"Put", func(db *DB) error { _, err := db.Put("p", "", value.String("v"), nil); return err }},
		{"BuildAndPut", func(db *DB) error { _, err := db.BuildAndPut("p", "", nil, str); return err }},
		{"BuildAndPutCtx", func(db *DB) error { _, err := db.BuildAndPutCtx(ctx, "p", "", nil, str); return err }},
		{"WriteBatch", func(db *DB) error { _, err := db.WriteBatch(batch); return err }},
		{"BuildAndWriteBatchCtx", func(db *DB) error {
			_, err := db.BuildAndWriteBatchCtx(ctx, func() ([]WriteOp, error) { return batch, nil })
			return err
		}},
		{"EditMap", func(db *DB) error { _, err := db.EditMap("m", "", puts, nil, nil); return err }},
		{"AppendList", func(db *DB) error { _, err := db.AppendList("l", "", [][]byte{[]byte("y")}, nil); return err }},
		{"SpliceBlob", func(db *DB) error { _, err := db.SpliceBlob("b", "", 0, 1, []byte("B"), nil); return err }},
		{"Merge", func(db *DB) error { _, err := db.Merge("m", "", "dev", nil, nil); return err }},
		{"MergeCtx", func(db *DB) error { _, err := db.MergeCtx(ctx, "m", "", "dev", nil, nil); return err }},
		{"Branch", func(db *DB) error { return db.Branch("m", "new", "dev") }},
		{"BranchFromVersion", func(db *DB) error {
			uid, err := db.Head("m", "dev")
			if err != nil {
				return err
			}
			return db.BranchFromVersion("m", "new", uid)
		}},
		{"DeleteBranch", func(db *DB) error { return db.DeleteBranch("m", "dev") }},
		{"RenameBranch", func(db *DB) error { return db.RenameBranch("m", "dev", "renamed") }},
		{"GC", func(db *DB) error { _, err := db.GC(); return err }},
	} {
		t.Run(row.name, func(t *testing.T) {
			db, ro, table := fenceFixture(t)
			before := table.heads(t)
			if err := row.run(ro); !errors.Is(err, ErrReadOnly) {
				t.Fatalf("read-only engine: %v, want ErrReadOnly", err)
			}
			if after := table.heads(t); !maps.EqualFunc(before, after, maps.Equal) {
				t.Fatalf("read-only engine moved heads: %v, was %v", after, before)
			}
			table.armed = true
			if err := row.run(db); err != nil {
				t.Fatal(err)
			}
			if len(table.fenced) == 0 {
				t.Fatal("no Apply or Keys call reached the table")
			}
			for i, held := range table.fenced {
				if !held {
					t.Fatalf("call %d of %d reached the table outside the GC fence", i+1, len(table.fenced))
				}
			}
		})
	}
}

// TestBranchFromVersionRacingGC revives a version no head references (a
// deleted branch's head) while a collection starts between the version's
// read and the new branch's publish.  The collection must wait for the
// publish, so the revived head still verifies deep.
func TestBranchFromVersionRacingGC(t *testing.T) {
	table := &fenceTable{BranchTable: NewMemBranchTable()}
	db := Open(Options{Branches: table, Chunking: chunker.SmallConfig()})
	table.db = db
	if _, err := db.Put("k", "", value.String("kept"), nil); err != nil {
		t.Fatal(err)
	}
	if err := db.Branch("k", "gone", ""); err != nil {
		t.Fatal(err)
	}
	orphan, err := db.Put("k", "gone", value.String("orphan"), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.DeleteBranch("k", "gone"); err != nil {
		t.Fatal(err)
	}
	var gcErr error
	gcDone := make(chan struct{})
	table.onApply = func() {
		table.onApply = nil
		go func() {
			defer close(gcDone)
			_, gcErr = db.GC()
		}()
		select {
		case <-gcDone:
		case <-time.After(100 * time.Millisecond):
		}
	}
	if err := db.BranchFromVersion("k", "revived", orphan.UID); err != nil {
		t.Fatal(err)
	}
	<-gcDone
	if gcErr != nil {
		t.Fatal(gcErr)
	}
	if rep, err := db.VerifyVersion("k", orphan.UID, true); err != nil || !rep.OK {
		t.Fatalf("revived head after a racing GC: %+v, %v", rep, err)
	}
}
