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
// the first head read has been answered — the window between an edit reading
// the head it derives from and publishing its result.
type racedTable struct {
	core.BranchTable
	rival func() // nil until armed
	once  sync.Once
}

func (r *racedTable) Head(key, branch string) (hash.Hash, bool, error) {
	uid, ok, err := r.BranchTable.Head(key, branch)
	if r.rival != nil {
		r.once.Do(r.rival)
	}
	return uid, ok, err
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
