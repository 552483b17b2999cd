package core

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"forkbase/internal/value"
)

// TestBranchLifecycleRaces hammers RenameBranch/DeleteBranch against Put on
// the same key: whatever interleaving wins, no branch head may be orphaned —
// every surviving head must resolve to a loadable version of the right key.
func TestBranchLifecycleRaces(t *testing.T) {
	for _, backend := range []string{"mem", "file"} {
		t.Run(backend, func(t *testing.T) {
			var bt BranchTable
			if backend == "file" {
				fbt, err := OpenFileBranchTable(t.TempDir())
				if err != nil {
					t.Fatal(err)
				}
				bt = fbt
			} else {
				bt = NewMemBranchTable()
			}
			db := Open(Options{Branches: bt})
			if _, err := db.Put("obj", "master", value.String("seed"), nil); err != nil {
				t.Fatal(err)
			}

			const writers = 4
			const rounds = 50
			var wg sync.WaitGroup
			// Writers put to master continuously; stale-head losses are the
			// documented contract, anything else is a bug.
			for w := 0; w < writers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for i := 0; i < rounds; i++ {
						_, err := db.Put("obj", "master", value.String(fmt.Sprintf("w%d-%d", w, i)), nil)
						if err != nil && !isExpectedRace(err) {
							t.Errorf("put: %v", err)
							return
						}
					}
				}(w)
			}
			// One goroutine churns renames of master; one churns a
			// create/delete cycle of a side branch.
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < rounds; i++ {
					tmp := fmt.Sprintf("moving-%d", i)
					if err := db.RenameBranch("obj", "master", tmp); err != nil {
						continue // master mid-recreate; fine
					}
					_ = db.RenameBranch("obj", tmp, "master") // move it back (may race)
				}
			}()
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < rounds; i++ {
					_ = db.Branch("obj", "side", "master")
					_ = db.DeleteBranch("obj", "side")
				}
			}()
			wg.Wait()

			// Invariant: every surviving branch head loads as a version of
			// "obj" — no orphaned or dangling heads.
			branches, err := db.BranchTable().Branches("obj")
			if err != nil {
				t.Fatal(err)
			}
			if len(branches) == 0 {
				t.Fatal("all branches lost")
			}
			for br, uid := range branches {
				if uid.IsZero() {
					t.Fatalf("branch %s has a zero head", br)
				}
				if _, err := db.GetVersion("obj", uid); err != nil {
					t.Fatalf("branch %s head %s is orphaned: %v", br, uid.Short(), err)
				}
			}
		})
	}
}

// isExpectedRace accepts the two documented outcomes of losing a lifecycle
// race: a stale-head CAS failure, or the branch vanishing mid-operation.
func isExpectedRace(err error) bool {
	return errors.Is(err, ErrStaleHead) || errors.Is(err, ErrBranchNotFound)
}
