package core_test

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"forkbase/internal/core"
	"forkbase/internal/hash"
	"forkbase/internal/index"
	"forkbase/internal/server"
	"forkbase/internal/store"
	"forkbase/internal/value"
)

// racedTable is a branch table on which a rival writer commits right after
// the first head read past skip has been answered — the window between an
// edit reading the head it derives from and publishing its result.  A write
// reads heads through LastHead, a plain read through Head.
type racedTable struct {
	core.BranchTable
	rival func() // nil until armed
	skip  int    // head reads answered before the rival commits
	once  sync.Once
}

func (r *racedTable) race() {
	if r.rival == nil {
		return
	}
	if r.skip > 0 {
		r.skip--
		return
	}
	r.once.Do(r.rival)
}

func (r *racedTable) Head(key, branch string) (hash.Hash, bool, error) {
	uid, ok, err := r.BranchTable.Head(key, branch)
	r.race()
	return uid, ok, err
}

func (r *racedTable) LastHead(key, branch string) (hash.Hash, bool, bool, error) {
	uid, ok, remembered, err := r.BranchTable.LastHead(key, branch)
	r.race()
	return uid, ok, remembered, err
}

// rows renders a version's value as position- or key-tagged rows, so "the
// child kept everything its base had" is set inclusion for all three kinds.
func rows(t *testing.T, db *core.DB, v core.Version) map[string]bool {
	t.Helper()
	out := map[string]bool{}
	switch v.Value.Kind() {
	case value.KindMap:
		ix, err := db.IndexOf(v)
		if err != nil {
			t.Fatal(err)
		}
		it, err := ix.Iterate()
		if err != nil {
			t.Fatal(err)
		}
		for it.Next() {
			out[fmt.Sprintf("%s=%s", it.Entry().Key, it.Entry().Val)] = true
		}
		if it.Err() != nil {
			t.Fatal(it.Err())
		}
	case value.KindList:
		seq, err := v.Value.Seq(db.Store(), db.Chunking())
		if err != nil {
			t.Fatal(err)
		}
		items, err := seq.Items()
		if err != nil {
			t.Fatal(err)
		}
		for i, item := range items {
			out[fmt.Sprintf("%d:%s", i, item)] = true
		}
	case value.KindBlob:
		blob, err := v.Value.Blob(db.Store(), db.Chunking())
		if err != nil {
			t.Fatal(err)
		}
		data, err := blob.Bytes()
		if err != nil {
			t.Fatal(err)
		}
		for i, c := range data {
			out[fmt.Sprintf("%d:%c", i, c)] = true
		}
	}
	return out
}

// TestEditsDoNotLoseConcurrentUpdates: EditMap, AppendList and SpliceBlob
// publish with a CAS against the head they derived their edit from.  A rival
// that commits in between costs the edit ErrStaleHead; it must never yield a
// version that names the rival's version as its base yet lacks the rival's
// rows.  Two engines over one shared table — in process, or over the wire —
// share no lock, so the CAS is the only thing standing between them.
func TestEditsDoNotLoseConcurrentUpdates(t *testing.T) {
	kinds := []struct {
		name string
		seed func(db *core.DB) (value.Value, error)
		edit func(db *core.DB, tag string) error
	}{
		{"EditMap",
			func(db *core.DB) (value.Value, error) {
				return db.NewMapValue([]index.Entry{{Key: []byte("a"), Val: []byte("1")}})
			},
			func(db *core.DB, tag string) error {
				_, err := db.EditMap("k", "", []index.Entry{{Key: []byte(tag), Val: []byte(tag)}}, nil, nil)
				return err
			}},
		{"AppendList",
			func(db *core.DB) (value.Value, error) {
				return value.NewList(db.Store(), db.Chunking(), [][]byte{[]byte("first")})
			},
			func(db *core.DB, tag string) error {
				_, err := db.AppendList("k", "", [][]byte{[]byte(tag)}, nil)
				return err
			}},
		{"SpliceBlob",
			func(db *core.DB) (value.Value, error) {
				return value.NewBlob(db.Store(), db.Chunking(), []byte("base"))
			},
			func(db *core.DB, tag string) error { // both writers insert after "base"
				_, err := db.SpliceBlob("k", "", 4, 0, []byte(tag), nil)
				return err
			}},
	}
	// tables yields the store and branch table each of the two engines opens.
	tables := map[string]func(t *testing.T) (st [2]store.Store, bt [2]core.BranchTable){
		"mem": func(t *testing.T) (st [2]store.Store, bt [2]core.BranchTable) {
			s, b := store.NewMemStore(), core.NewMemBranchTable()
			return [2]store.Store{s, s}, [2]core.BranchTable{b, b}
		},
		"remote": func(t *testing.T) (st [2]store.Store, bt [2]core.BranchTable) {
			srv := server.New(store.NewMemStore(), core.NewMemBranchTable(), nil)
			addr, err := srv.Listen("127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { srv.Close() })
			for i := range st {
				cl, err := server.Dial(addr)
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { cl.Close() })
				st[i], bt[i] = server.NewRemoteStore(cl), server.NewRemoteBranchTable(cl)
			}
			return st, bt
		},
	}
	for tname, open := range tables {
		for _, k := range kinds {
			t.Run(tname+"/"+k.name, func(t *testing.T) {
				st, bt := open(t)
				raced := &racedTable{BranchTable: bt[0]}
				loser := core.Open(core.Options{Store: st[0], Branches: raced})
				rival := core.Open(core.Options{Store: st[1], Branches: bt[1]})
				defer loser.Close()
				defer rival.Close()
				seed, err := k.seed(rival)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := rival.Put("k", "", seed, nil); err != nil {
					t.Fatal(err)
				}
				raced.rival = func() {
					if err := k.edit(rival, "R"); err != nil {
						t.Errorf("rival edit: %v", err)
					}
				}
				if err := k.edit(loser, "L"); !errors.Is(err, core.ErrStaleHead) {
					t.Errorf("edit raced by a rival commit returned %v, want ErrStaleHead", err)
				}
				// Whatever got published, no version may have dropped a row of
				// the version it claims to derive from (nothing here deletes).
				history, err := rival.History("k", "", 0)
				if err != nil {
					t.Fatal(err)
				}
				for _, v := range history {
					for _, base := range v.Bases {
						bv, err := rival.GetVersion("k", base)
						if err != nil {
							t.Fatal(err)
						}
						have := rows(t, rival, v)
						for row := range rows(t, rival, bv) {
							if !have[row] {
								t.Errorf("version %s (seq %d) lost row %q of its base %s", v.UID.Short(), v.Seq, row, base.Short())
							}
						}
					}
				}
			})
		}
	}
}

// TestMergeKeepsTheSourceItRead: on a table that answers every head read
// from the heads themselves, a merge publishes with one compare-and-set on
// its destination.  A commit to the source after the merge read both heads
// does not fail it: the merge merges the source it read.  Nor does a commit
// to the destination fail a merge that finds the source merged already,
// which publishes nothing.
func TestMergeKeepsTheSourceItRead(t *testing.T) {
	row := func(db *core.DB, branch, key string) core.Version {
		t.Helper()
		ver, err := db.EditMap("k", branch, []index.Entry{{Key: []byte(key), Val: []byte(key)}}, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		return ver
	}
	for _, merged := range []bool{false, true} {
		t.Run(fmt.Sprintf("merged=%v", merged), func(t *testing.T) {
			st, bt := store.NewMemStore(), core.NewMemBranchTable()
			raced := &racedTable{BranchTable: bt}
			db := core.Open(core.Options{Store: st, Branches: raced})
			rival := core.Open(core.Options{Store: st, Branches: bt})
			defer db.Close()
			defer rival.Close()
			seed, err := rival.NewMapValue([]index.Entry{{Key: []byte("a"), Val: []byte("1")}})
			if err == nil {
				_, err = rival.Put("k", "", seed, nil)
			}
			if err == nil {
				err = rival.Branch("k", "dev", "")
			}
			if err != nil {
				t.Fatal(err)
			}
			src := row(rival, "dev", "d")
			moved := "dev"
			if merged {
				if _, err := rival.Merge("k", "", "dev", nil, nil); err != nil {
					t.Fatal(err)
				}
				moved = ""
			} else {
				row(rival, "", "m")
			}
			var rivalVer core.Version
			raced.skip, raced.rival = 1, func() { rivalVer = row(rival, moved, "R") } // after the dst and src reads
			res, err := db.Merge("k", "", "dev", nil, nil)
			if err != nil {
				t.Fatalf("Merge with a commit to %q after its head reads: %v", moved, err)
			}
			if rivalVer.UID.IsZero() {
				t.Fatal("the rival did not commit during the merge")
			}
			if merged != res.FastForward {
				t.Fatalf("Merge = %+v, want FastForward %v", res, merged)
			}
			if bases := res.Version.Bases; !merged && (len(bases) != 2 || bases[1] != src.UID) {
				t.Fatalf("merge bases %v, want the source it read, %s", bases, src.UID.Short())
			}
		})
	}
}
