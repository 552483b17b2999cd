package forkbase

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"forkbase/internal/core"
	"forkbase/internal/dataset"
	"forkbase/internal/value"
)

// startPrimaryNode runs what `forkbased -listen` runs: an in-memory DB
// serving its TCP service (NewServer).  It returns the DB's engine.
func startPrimaryNode(t *testing.T) (*core.DB, string) {
	t.Helper()
	db := MustOpen()
	srv := db.NewServer(nil)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close(); db.Close() })
	return db.engine, addr
}

func TestOpenReplicaFollowsPrimary(t *testing.T) {
	primaryEng, addr := startPrimaryNode(t)

	entries := make([]Entry, 1000)
	for i := range entries {
		entries[i] = Entry{Key: []byte(fmt.Sprintf("k-%05d", i)), Val: []byte("v")}
	}
	if _, err := primaryEng.BuildAndPut("obj", "master", nil, func() (Value, error) {
		return value.NewMap(primaryEng.Store(), primaryEng.Chunking(), entries)
	}); err != nil {
		t.Fatal(err)
	}
	// A list and a blob, so the replica's AppendList and SpliceBlob below
	// target values they could legally edit.
	if _, err := primaryEng.BuildAndPut("lst", "master", nil, func() (Value, error) {
		return value.NewList(primaryEng.Store(), primaryEng.Chunking(), [][]byte{[]byte("a")})
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := primaryEng.BuildAndPut("blb", "master", nil, func() (Value, error) {
		return value.NewBlob(primaryEng.Store(), primaryEng.Chunking(), []byte("bytes"))
	}); err != nil {
		t.Fatal(err)
	}

	replica, err := OpenReplica(addr, WithNodeCache(1<<20))
	if err != nil {
		t.Fatal(err)
	}
	defer replica.Close()
	if !replica.Following() {
		t.Fatal("replica does not report Following")
	}
	if err := replica.WaitSynced(30 * time.Second); err != nil {
		t.Fatal(err)
	}

	// Reads converge to the primary's head.
	pv, err := primaryEng.Get("obj", "master")
	if err != nil {
		t.Fatal(err)
	}
	rv, err := replica.Get("obj", "master")
	if err != nil {
		t.Fatal(err)
	}
	if rv.UID != pv.UID {
		t.Fatalf("replica head %s != primary head %s", rv.UID.Short(), pv.UID.Short())
	}
	tree, err := replica.MapOf(rv)
	if err != nil {
		t.Fatal(err)
	}
	got, err := tree.Get([]byte("k-00042"))
	if err != nil || string(got) != "v" {
		t.Fatalf("replica map read: %q %v", got, err)
	}

	// Every mutating method is rejected, by the engine's read-only gate, on
	// inputs a primary would accept.
	schema := Schema{Columns: []string{"id", "name"}, KeyColumn: 0}
	writes := map[string]error{
		"Put":               errOf2(replica.Put("obj", "master", NewString("x"), nil)),
		"PutString":         errOf2(replica.PutString("obj", "master", "x", nil)),
		"PutMap":            errOf2(replica.PutMap("obj", "master", entries[:1], nil)),
		"PutBlob":           errOf2(replica.PutBlob("obj", "master", []byte("x"), nil)),
		"PutSet":            errOf2(replica.PutSet("obj", "master", [][]byte{[]byte("x")}, nil)),
		"PutList":           errOf2(replica.PutList("obj", "master", [][]byte{[]byte("x")}, nil)),
		"EditMap":           errOf2(replica.EditMap("obj", "master", entries[:1], nil, nil)),
		"AppendList":        errOf2(replica.AppendList("lst", "master", [][]byte{[]byte("b")}, nil)),
		"SpliceBlob":        errOf2(replica.SpliceBlob("blb", "master", 1, 2, []byte("x"), nil)),
		"Branch":            replica.Branch("obj", "b2", "master"),
		"BranchFromVersion": replica.BranchFromVersion("obj", "b3", pv.UID),
		"DeleteBranch":      replica.DeleteBranch("obj", "master"),
		"RenameBranch":      replica.RenameBranch("obj", "master", "m2"),
		"Merge":             errOf2(replica.Merge("obj", "a", "b", nil, nil)),
		"GC":                errOf2(replica.GC()),
		"WriteBatch":        errOf2(replica.WriteBatch([]WriteOp{{Key: "x", Value: NewString("y")}})),
		"CreateDataset":     errOf2(replica.CreateDataset("ds", "master", schema, []Row{{"1", "ada"}}, nil)),
		"LoadCSVDataset":    errOf2(replica.LoadCSVDataset("csv", "master", "id", strings.NewReader("id,name\n1,ada\n"), nil)),
	}
	for name, err := range writes {
		if !errors.Is(err, ErrReadOnlyReplica) {
			t.Errorf("%s on replica: got %v, want ErrReadOnlyReplica", name, err)
		}
	}

	// The engine-level gate also covers layers that bypass the public API:
	// a dataset handle opened on a replica must refuse to commit.
	if _, err := dataset.Create(primaryEng, "people", "master",
		Schema{Columns: []string{"id", "name"}, KeyColumn: 0},
		[]Row{{"1", "ada"}}, nil); err != nil {
		t.Fatal(err)
	}
	if err := replica.WaitSynced(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	ds, err := replica.OpenDataset("people", "master")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ds.UpdateRows([]Row{{"9", "rogue"}}, nil, nil); !errors.Is(err, ErrReadOnlyReplica) {
		t.Fatalf("dataset write on replica: got %v, want ErrReadOnlyReplica", err)
	}

	// New primary commits flow through; ReplStats show the delta machinery.
	if _, err := primaryEng.Put("fresh", "master", NewString("hello"), nil); err != nil {
		t.Fatal(err)
	}
	if err := replica.WaitSynced(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	fv, err := replica.Get("fresh", "master")
	if err != nil || fv.Value.Display() != "hello" {
		t.Fatalf("fresh read on replica: %v %v", fv, err)
	}
	st := replica.ReplStats()
	if st.ChunksFetched == 0 || st.HeadsApplied < 2 {
		t.Fatalf("repl stats: %+v", st)
	}
}

// errOf2 collapses (T, error) returns for the rejection table.
func errOf2[T any](_ T, err error) error { return err }

func TestReplicaCloseIsIdempotentAndConcurrent(t *testing.T) {
	_, addr := startPrimaryNode(t)
	replica, err := OpenReplica(addr)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := replica.Close(); err != nil {
				t.Errorf("concurrent close: %v", err)
			}
		}()
	}
	wg.Wait()
}
