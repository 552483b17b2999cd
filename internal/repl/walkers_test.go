package repl

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"forkbase/internal/chunk"
	"forkbase/internal/chunker"
	"forkbase/internal/core"
	"forkbase/internal/fnode"
	"forkbase/internal/hash"
	"forkbase/internal/index"
	"forkbase/internal/mpt"
	"forkbase/internal/pos"
	"forkbase/internal/store"
	"forkbase/internal/value"
)

// reach is the brute-force oracle the walkers are held to: a recursive walk
// that spells the edge rule out per chunk type with each structure's own
// decoder — no fnode.Refs, no fnode.Walk.  It adds the closure
// of id to out, not entering stop.
func reach(t *testing.T, st store.Store, id, stop hash.Hash, out map[hash.Hash]bool) {
	t.Helper()
	if id.IsZero() || id == stop || out[id] {
		return
	}
	out[id] = true
	c, err := st.Get(id)
	if err != nil {
		t.Fatalf("oracle: %v", err)
	}
	var kids []hash.Hash
	switch c.Type() {
	case chunk.TypeFNode:
		f, err := fnode.Decode(c.Data())
		if err != nil {
			t.Fatal(err)
		}
		v, err := f.DecodedValue()
		if err != nil {
			t.Fatal(err)
		}
		kids = append(f.Bases, v.Root()) // zero for primitives and empties
	case chunk.TypeMapIndex, chunk.TypeSeqIndex:
		kids, err = pos.IndexChildren(c)
	case chunk.TypeMPTNode:
		kids, err = mpt.Children(c)
	}
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range kids {
		reach(t, st, k, stop, out)
	}
}

func closure(t *testing.T, db *core.DB, root hash.Hash) map[hash.Hash]bool {
	t.Helper()
	out := map[hash.Hash]bool{}
	reach(t, db.RawStore(), root, hash.Hash{}, out)
	return out
}

// walkerCase builds generation gen of one kind of value; successive
// generations differ in a few rows, so versions share most of their tree.
type walkerCase struct {
	name  string
	index index.Kind
	mk    func(db *core.DB, gen int) (value.Value, error)
}

func rows(gen int) []index.Entry {
	out := make([]index.Entry, 600)
	for i := range out {
		g := 0
		if i >= 100*gen && i < 100*gen+8 {
			g = gen
		}
		out[i] = index.Entry{Key: []byte(fmt.Sprintf("row-%04d", i)), Val: []byte(fmt.Sprintf("val-%d-%d", i, g))}
	}
	return out
}

var walkerCases = []walkerCase{
	{"pos-map", index.KindPOS, func(db *core.DB, gen int) (value.Value, error) { return db.NewMapValue(rows(gen)) }},
	{"mpt-map", index.KindMPT, func(db *core.DB, gen int) (value.Value, error) { return db.NewMapValue(rows(gen)) }},
	{"set", index.KindPOS, func(db *core.DB, gen int) (value.Value, error) {
		elems := make([][]byte, 0, 600)
		for _, r := range rows(gen) {
			elems = append(elems, r.Val)
		}
		return db.NewSetValue(elems)
	}},
	{"list", index.KindPOS, func(db *core.DB, gen int) (value.Value, error) {
		items := make([][]byte, 0, 600)
		for _, r := range rows(gen) {
			items = append(items, r.Val)
		}
		return value.NewList(db.Store(), db.Chunking(), items)
	}},
	{"blob", index.KindPOS, func(db *core.DB, gen int) (value.Value, error) {
		var data []byte
		for _, r := range rows(gen) {
			data = append(data, r.Val...)
		}
		return value.NewBlob(db.Store(), db.Chunking(), data)
	}},
	{"primitive", index.KindPOS, func(db *core.DB, gen int) (value.Value, error) {
		return value.String(fmt.Sprintf("generation %d", gen)), nil
	}},
}

// history commits c's generations 0..2 to "obj": one version, a fork, one
// commit on each side, a merge version with two bases, and a commit on top.
// Both sides commit the same value (under different metadata, so the uids
// differ): that merges for every kind, not only the key-indexed ones.
func (c walkerCase) history(t *testing.T, db *core.DB) core.Version {
	t.Helper()
	put := func(branch string, gen int, by string) core.Version {
		t.Helper()
		v, err := db.BuildAndPut("obj", branch, map[string]string{"by": by}, func() (value.Value, error) { return c.mk(db, gen) })
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	put("master", 0, "root")
	if err := db.Branch("obj", "dev", "master"); err != nil {
		t.Fatal(err)
	}
	put("master", 1, "master")
	put("dev", 1, "dev")
	m, err := db.Merge("obj", "master", "dev", nil, nil)
	if err != nil || m.FastForward || len(m.Version.Bases) != 2 {
		t.Fatalf("merge: %+v %v", m, err)
	}
	return put("master", 2, "top")
}

// TestWalkersAgree: GC's mark, deep verify, heal and a replica's pull are
// four fetch functions under one fnode.Walk.  On a history with a merge and
// shared subtrees, each visits exactly the brute-force closure — and each
// prunes where its fetch says so.
func TestWalkersAgree(t *testing.T) {
	for _, c := range walkerCases {
		t.Run(c.name, func(t *testing.T) {
			db := core.Open(core.Options{Chunking: chunker.SmallConfig(), Index: c.index})
			head := c.history(t, db)
			want := len(closure(t, db, head.UID))

			gs, err := db.GC()
			if err != nil || gs.Live != want {
				t.Fatalf("GC marked %d live (%v), the closure has %d", gs.Live, err, want)
			}
			rep, err := db.VerifyVersion("obj", head.UID, true)
			if err != nil || rep.ChunksChecked != want || rep.VersionsChecked != 5 {
				t.Fatalf("deep verify checked %d chunks of %d versions (%v), the closure has %d of 5", rep.ChunksChecked, rep.VersionsChecked, err, want)
			}
			hs, err := db.Heal(NewLocalSource(db))
			if err != nil || hs.Checked != want {
				t.Fatalf("heal checked %d (%v), the closure has %d", hs.Checked, err, want)
			}
			f, _ := startFollower(t, db, Options{Poll: 10 * time.Millisecond})
			if err := f.WaitCaughtUp(30 * time.Second); err != nil {
				t.Fatal(err)
			}
			cold := f.Stats().ChunksFetched
			if cold != uint64(want) {
				t.Fatalf("cold follower fetched %d, the closure has %d", cold, want)
			}

			// Incremental pull: the prune leaves exactly the new chunks.
			next, err := db.BuildAndPut("obj", "master", nil, func() (value.Value, error) { return c.mk(db, 3) })
			if err != nil {
				t.Fatal(err)
			}
			if err := f.WaitCaughtUp(30 * time.Second); err != nil {
				t.Fatal(err)
			}
			delta := len(closure(t, db, next.UID)) - want
			if got := f.Stats().ChunksFetched - cold; got != uint64(delta) || delta == 0 {
				t.Fatalf("incremental pull fetched %d, the closure grew by %d", got, delta)
			}
		})
	}

	t.Run("torn landing under a chunk at two depths", func(t *testing.T) {
		db := core.Open(core.Options{Chunking: chunker.SmallConfig()})
		c := walkerCases[0]
		put := func(branch string, gen int) core.Version {
			t.Helper()
			v, err := db.BuildAndPut("obj", branch, map[string]string{"on": branch}, func() (value.Value, error) { return c.mk(db, gen) })
			if err != nil {
				t.Fatal(err)
			}
			return v
		}
		// The merge's bases are one commit above the root on master's side
		// and two on dev's, so the root version — and every subtree its
		// value shares with the newer ones — sits at two depths.
		v0 := put("master", 0)
		if err := db.Branch("obj", "dev", "master"); err != nil {
			t.Fatal(err)
		}
		m1 := put("master", 1)
		d1 := put("dev", 1)
		d2 := put("dev", 2)
		m, err := db.Merge("obj", "master", "dev", nil, nil)
		if err != nil || len(m.Version.Bases) != 2 {
			t.Fatalf("merge: %+v %v", m, err)
		}
		// A sibling head above each version the merge reaches, whose own
		// value is a primitive: below it, the sibling reaches only what the
		// merge does.
		var sibs []hash.Hash
		for i, base := range []core.Version{v0, m1, d1, d2} {
			branch := fmt.Sprintf("sib%d", i)
			if err := db.BranchFromVersion("obj", branch, base.UID); err != nil {
				t.Fatal(err)
			}
			sib, err := db.Put("obj", branch, value.String(branch), nil)
			if err != nil {
				t.Fatal(err)
			}
			sibs = append(sibs, sib.UID)
		}
		total := len(closure(t, db, m.Version.UID))
		for landed := 0; landed < total; landed++ {
			for _, sib := range sibs {
				raw := store.NewMemStore()
				s := &syncer{src: NewLocalSource(db), local: &tornStore{Store: raw, budget: landed}}
				if err := s.pull([]hash.Hash{m.Version.UID}); err == nil {
					t.Fatalf("a pull of %d chunks landed with room for %d", total, landed)
				}
				s.local = raw
				if err := s.pull([]hash.Hash{sib}); err != nil {
					t.Fatal(err)
				}
				replica := core.Open(core.Options{Store: raw, Chunking: chunker.SmallConfig()})
				if rep, err := replica.VerifyVersion("obj", sib, true); err != nil {
					t.Fatalf("torn after %d of %d landings, then a sibling pulled: %v (first: %v)", landed, total, err, rep.Failures[0].Err)
				}
			}
		}
	})

	t.Run("lease over a missing chunk prunes", func(t *testing.T) {
		mem := store.NewMemStore()
		db := core.Open(core.Options{Store: mem, Chunking: chunker.SmallConfig()})
		c := walkerCases[0]
		head := c.history(t, db)
		// A replica leased a head whose branch is gone and whose value root
		// an earlier pass already collected.
		doomed, err := db.BuildAndPut("obj", "doomed", nil, func() (value.Value, error) { return c.mk(db, 5) })
		if err != nil {
			t.Fatal(err)
		}
		if _, err := NewLocalSource(db).Seq(); err != nil { // a new lease holds every retained Old
			t.Fatal(err)
		}
		if err := db.DeleteBranch("obj", "doomed"); err != nil {
			t.Fatal(err)
		}
		mem.Delete(doomed.Value.Root())
		gs, err := db.GC()
		// Live: the branches' closure plus the leased FNode; not the missing
		// root, and nothing below it.
		if want := len(closure(t, db, head.UID)) + 1; err != nil || gs.Live != want {
			t.Fatalf("GC marked %d live (%v), want %d", gs.Live, err, want)
		}
		if ok, _ := mem.Has(doomed.UID); !ok {
			t.Fatal("leased head was collected")
		}
	})

	t.Run("corrupt index node is reported once, not entered", func(t *testing.T) {
		mem := store.NewMemStore()
		mal := store.NewMaliciousStore(mem)
		db := core.Open(core.Options{Store: mal, Chunking: chunker.SmallConfig()})
		head := walkerCases[0].history(t, db)
		// An inner index node the first and the last version share, with
		// something below it that no other path reaches.
		hist, err := db.History("obj", "master", 0)
		if err != nil {
			t.Fatal(err)
		}
		old := closure(t, db, hist[len(hist)-1].Value.Root())
		full := closure(t, db, head.UID)
		var target hash.Hash
		var pruned map[hash.Hash]bool
		for id := range closure(t, db, head.Value.Root()) {
			if c, err := mem.Get(id); err != nil || c.Type() != chunk.TypeMapIndex || !old[id] || id == head.Value.Root() {
				continue
			}
			without := map[hash.Hash]bool{}
			reach(t, mem, head.UID, id, without)
			if len(without) < len(full)-1 {
				target, pruned = id, without
				break
			}
		}
		if target.IsZero() {
			t.Fatal("no shared inner index node guards a subtree: the history is too small for this test")
		}
		if ok, err := mal.CorruptFlip(target, 9, 3); err != nil || !ok {
			t.Fatalf("inject: %v %v", ok, err)
		}
		before := mem.Stats().Gets
		rep, err := db.VerifyVersion("obj", head.UID, true)
		reads := int(mem.Stats().Gets - before)
		if err == nil || len(rep.Failures) != 1 || rep.Failures[0].ChunkID != target {
			t.Fatalf("want exactly one failure, for %s: %v %+v", target.Short(), err, rep.Failures)
		}
		// The forged copy is served by the malicious layer, so the backing
		// store sees only the reads that verified.
		if rep.ChunksChecked != len(pruned) || reads != len(pruned) {
			t.Fatalf("checked %d chunks in %d reads; %d are reachable without entering the corrupt node", rep.ChunksChecked, reads, len(pruned))
		}
	})
}

// tornStore lands chunks one at a time until its budget runs out, then fails
// every put: the state a crash between two landings leaves.
type tornStore struct {
	store.Store
	budget int
}

func (s *tornStore) PutBatch(cs []*chunk.Chunk) ([]bool, error) {
	fresh := make([]bool, len(cs))
	for i, c := range cs {
		if s.budget == 0 {
			return fresh, errors.New("torn landing")
		}
		s.budget--
		ok, err := s.Store.Put(c)
		if err != nil {
			return fresh, err
		}
		fresh[i] = ok
	}
	return fresh, nil
}
