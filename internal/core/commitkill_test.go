package core

import (
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"strings"
	"testing"

	"forkbase/internal/chunker"
	"forkbase/internal/hash"
	"forkbase/internal/index"
	"forkbase/internal/pos"
	"forkbase/internal/store"
	"forkbase/internal/value"
)

// ackedHead is a head a commit returned: key@branch names uid.
type ackedHead struct {
	key, branch string
	uid         hash.Hash
}

// openFileEngine opens the product stack over dir: a FileStore under its
// default policy (SyncNone) and the heads journal.  closeAll closes both.
func openFileEngine(dir string) (db *DB, closeAll func(), err error) {
	fs, err := store.OpenFileStore(dir)
	if err != nil {
		return nil, nil, err
	}
	heads, err := OpenFileBranchTable(dir)
	if err != nil {
		fs.Close()
		return nil, nil, err
	}
	db = Open(Options{Store: fs, Branches: heads, Chunking: chunker.SmallConfig()})
	return db, func() { heads.Close(); fs.Close() }, nil
}

// commitStep makes the i-th commit of the commit-kill writer and returns the
// heads it acknowledged.  Step 0 creates the map "m"; after it come, in turn,
// a string Put, an EditMap of "m", a two-op WriteBatch and a Branch of "m" —
// version objects stored by a lone Put, after a PutBatch of index nodes, by
// one PutBatch, and not at all.
func commitStep(db *DB, seed, i int) ([]ackedHead, error) {
	tag := fmt.Sprintf("%d/%d", seed, i)
	one := func(key string, v Version, err error) ([]ackedHead, error) {
		return []ackedHead{{key, DefaultBranch, v.UID}}, err
	}
	switch {
	case i == 0:
		entries := make([]pos.Entry, 200)
		for j := range entries {
			entries[j] = pos.Entry{Key: []byte(fmt.Sprintf("k%04d", j)), Val: []byte(tag)}
		}
		m, err := value.NewMap(db.Store(), db.Chunking(), entries)
		if err != nil {
			return nil, err
		}
		v, err := db.Put("m", "", m, nil)
		return one("m", v, err)
	case i%4 == 1:
		key := fmt.Sprintf("s%d", i%7)
		v, err := db.Put(key, "", value.String(tag), nil)
		return one(key, v, err)
	case i%4 == 2:
		put := index.Entry{Key: []byte(fmt.Sprintf("k%04d", i%300)), Val: []byte(tag)}
		v, err := db.EditMap("m", "", []index.Entry{put}, nil, nil)
		return one("m", v, err)
	case i%4 == 3:
		ops := []WriteOp{
			{Key: fmt.Sprintf("w%d", i%5), Value: value.String(tag)},
			{Key: fmt.Sprintf("s%d", i%7), Value: value.String(tag + "b")},
		}
		vs, err := db.WriteBatch(ops)
		if err != nil {
			return nil, err
		}
		out := make([]ackedHead, len(ops))
		for j, op := range ops {
			out[j] = ackedHead{op.Key, DefaultBranch, vs[j].UID}
		}
		return out, nil
	default:
		branch := fmt.Sprintf("b%d", i)
		if err := db.Branch("m", branch, DefaultBranch); err != nil {
			return nil, err
		}
		uid, err := db.Head("m", branch)
		return []ackedHead{{"m", branch, uid}}, err
	}
}

// checkCommitsSurvived reopens dir and pins every acked head's version
// object and value: each reads, passes a deep verify, and GC — which marks
// from every head in the journal, printed or not — succeeds.
func checkCommitsSurvived(t *testing.T, dir string, acked []ackedHead) {
	t.Helper()
	db, closeDB, err := openFileEngine(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer closeDB()
	for _, h := range acked {
		if _, err := db.GetVersion(h.key, h.uid); err != nil {
			t.Fatalf("acked %s@%s = %s lost: %v", h.key, h.branch, h.uid.Short(), err)
		}
		if rep, err := db.VerifyVersion(h.key, h.uid, true); err != nil || !rep.OK {
			t.Fatalf("acked %s@%s = %s fails deep verify: %v %+v", h.key, h.branch, h.uid.Short(), err, rep.Failures)
		}
	}
	if _, err := db.GC(); err != nil {
		t.Fatalf("GC after reopen: %v", err)
	}
}

// TestCommitsSurviveKill pins zero lost acknowledged commits on the product
// stack (FileStore under SyncNone and the heads journal): a commit whose
// head was acknowledged has its version object and value in the segment
// files, whatever becomes of the process afterwards.  One row reopens the
// directory in-process without closing the writer; the others SIGKILL a
// child writer (this test binary, re-executed) at a seeded point.
func TestCommitsSurviveKill(t *testing.T) {
	if dir := os.Getenv(killDirEnv); dir != "" {
		seed, _ := strconv.Atoi(os.Getenv(killSeedEnv))
		commitsKillChild(dir, seed)
		return
	}
	t.Run("reopen-without-close", func(t *testing.T) {
		dir := t.TempDir()
		db, closeDB, err := openFileEngine(dir)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(closeDB) // after the check, which must not depend on it
		var acked []ackedHead
		for i := 0; i < 10; i++ {
			hs, err := commitStep(db, 0, i)
			if err != nil {
				t.Fatal(err)
			}
			acked = append(acked, hs...)
		}
		checkCommitsSurvived(t, dir, acked)
	})
	for seed := 1; seed <= 3; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			dir := t.TempDir()
			var acked []ackedHead
			killAfter := 120 + rand.New(rand.NewSource(int64(seed))).Intn(60)
			killMidStream(t, "TestCommitsSurviveKill", dir, seed, func(line string) bool {
				f := strings.Fields(line)
				if len(f) != 3 {
					t.Errorf("child printed %q", line)
					return false
				}
				uid, err := hash.Parse(f[2])
				if err != nil {
					t.Errorf("child printed %q: %v", line, err)
					return false
				}
				acked = append(acked, ackedHead{f[0], f[1], uid})
				return len(acked) < killAfter
			})
			checkCommitsSurvived(t, dir, acked)
			t.Logf("killed after %d acked heads", len(acked))
		})
	}
}

// commitsKillChild is TestCommitsSurviveKill's child: it commits until it is
// killed, printing "key branch uid" for each head once its commit returned.
func commitsKillChild(dir string, seed int) {
	db, _, err := openFileEngine(dir)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	for i := 0; i < 100000; i++ {
		hs, err := commitStep(db, seed, i)
		if err != nil {
			fmt.Fprintln(os.Stderr, "commit:", err)
			os.Exit(2)
		}
		for _, h := range hs {
			fmt.Printf("%s %s %s\n", h.key, h.branch, h.uid)
		}
	}
	os.Exit(3) // not killed in time
}
