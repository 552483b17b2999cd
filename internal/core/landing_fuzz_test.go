package core

import (
	"errors"
	"fmt"
	"slices"
	"testing"

	"forkbase/internal/chunk"
	"forkbase/internal/hash"
	"forkbase/internal/store"
)

// FuzzCommitLanding checks FeedTable.Commit against a fixpoint oracle.  The
// input spells a DAG of FNodes (names) that name earlier nodes, a stored leaf, a
// gone id or the zero id; some nodes are stored (only with all they name,
// as a server holds a chunk), a list of them in any order and with
// duplicates is carried, and up to two ops, fresh, stale or unstamped, set
// a carried, stored, gone or zero id.  The oracle lands what fresh Sets
// reach through carried chunks, then each carried chunk whose every ref is
// zero, stored or landed, until nothing changes.
//
// Input layout, a byte each, read modulo its range and zero once spent:
// the node count less one (mod 8); per node i, stored (mod 2), its ref
// count (mod 4) and per ref r (mod i+3: node r, the leaf, gone, zero); the
// carried count (mod 16) and a node index each; the op count (mod 3) and
// per op its stamp (mod 3: unstamped, fresh, stale) and Set (mod n+3: node,
// the leaf, gone, zero).
func FuzzCommitLanding(f *testing.F) {
	// The rows of TestCommitLandsWhatIsCompleteOrReached over its a, d, b, c.
	nodes := []byte{3, 0, 1, 0, 0, 1, 0, 0, 1, 3, 0, 1, 2}
	for _, row := range [][]byte{
		{4, 1, 0, 2, 3, 0}, // a put lands what is complete, in any order
		{2, 3, 2, 1, 1, 3}, // a fresh op lands what it reaches
		{2, 0, 2, 1, 1, 0}, // a fresh op leaves out what it does not reach
		{2, 3, 2, 1, 2, 3}, // a stale op whose value is incomplete
		{2, 1, 0, 1, 2, 1}, // a stale op whose value is complete
		{0, 1, 2, 4},       // a stale op setting a held head
		{0, 1, 2, 5},       // a stale op setting a missing head
		{1, 2, 1, 0, 5},    // an unstamped op
	} {
		f.Add(append(append([]byte(nil), nodes...), row...))
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		next := func(n int) int {
			if len(in) == 0 {
				return 0
			}
			b := in[0]
			in = in[1:]
			return int(b) % n
		}
		leaf := chunk.New(chunk.TypeBlobLeaf, []byte("present"))
		gone := hash.Of([]byte("gone"))
		st := store.NewMemStore()
		stored := map[hash.Hash]bool{leaf.ID(): true}
		var nodes []*chunk.Chunk
		refs := map[hash.Hash][]hash.Hash{}
		target := func(r, n int) hash.Hash {
			switch {
			case r < n:
				return nodes[r].ID()
			case r == n:
				return leaf.ID()
			case r == n+1:
				return gone
			}
			return hash.Hash{}
		}
		held := func(id hash.Hash) bool { return id.IsZero() || stored[id] }
		for i, n := 0, next(8)+1; i < n; i++ {
			keep := next(2) == 1
			var ids []hash.Hash
			for k := next(4); k > 0; k-- {
				ids = append(ids, target(next(i+3), i))
			}
			c := names(fmt.Sprint("n", i), ids...)
			nodes, refs[c.ID()] = append(nodes, c), ids
			if keep && !slices.ContainsFunc(ids, func(id hash.Hash) bool { return !held(id) }) {
				stored[c.ID()] = true
			}
		}
		for _, c := range append(nodes, leaf) {
			if stored[c.ID()] {
				if _, err := st.Put(c); err != nil {
					t.Fatal(err)
				}
			}
		}
		var cs []*chunk.Chunk
		for k := next(16); k > 0; k-- {
			cs = append(cs, nodes[next(len(nodes))])
		}
		ft := WithFeed(NewMemBranchTable(), NewFeed(0))
		now := ft.Epoch()
		var ops []HeadOp
		for k := next(3); k > 0; k-- {
			e := []uint64{0, now, now - 1}[next(3)]
			ops = append(ops, HeadOp{Key: fmt.Sprint("k", len(ops)), Branch: "master", Any: true, Set: target(next(len(nodes)+3), len(nodes)), Epoch: e})
		}

		carried := map[hash.Hash]bool{}
		for _, c := range cs {
			carried[c.ID()] = true
		}
		landed := map[hash.Hash]bool{}
		var reach func(id hash.Hash)
		reach = func(id hash.Hash) {
			if carried[id] && !landed[id] {
				landed[id] = true
				for _, ref := range refs[id] {
					reach(ref)
				}
			}
		}
		for _, op := range ops {
			if op.Epoch == now {
				reach(op.Set)
			}
		}
		holds := func(id hash.Hash) bool { return held(id) || landed[id] }
		for changed := true; changed; {
			changed = false
			for id := range carried {
				if !landed[id] && !slices.ContainsFunc(refs[id], func(ref hash.Hash) bool { return !holds(ref) }) {
					landed[id], changed = true, true
				}
			}
		}
		wantErr := len(ops) == 0 && len(landed) < len(carried) ||
			slices.ContainsFunc(ops, func(op HeadOp) bool { return op.Epoch != 0 && op.Epoch != now && !holds(op.Set) })

		fresh, ok, err := ft.Commit(st, cs, ops)
		if err != nil && !errors.Is(err, ErrCollected) || (err != nil) != wantErr {
			t.Fatalf("Commit = %v, %v; want ErrCollected %v", ok, err, wantErr)
		}
		for _, c := range nodes {
			if has, _ := st.Has(c.ID()); has != (stored[c.ID()] || landed[c.ID()]) {
				t.Errorf("store has %s = %v; stored %v, landed %v", c.ID().Short(), has, stored[c.ID()], landed[c.ID()])
			}
		}
		for i, op := range ops {
			want := hash.Hash{}
			if err == nil {
				want = op.Set
			}
			if head, _, _ := ft.Head(op.Key, op.Branch); head != want {
				t.Errorf("op %d: head %s, want %s", i, head.Short(), want.Short())
			}
		}
		if err != nil {
			return
		}
		if len(ops) > 0 && !ok {
			t.Fatal("ops with Any did not apply")
		}
		first := map[hash.Hash]bool{}
		for i, c := range cs {
			want := landed[c.ID()] && !stored[c.ID()] && !first[c.ID()]
			first[c.ID()] = true
			if fresh[i] != want {
				t.Errorf("fresh flag %d of %s = %v, want %v", i, c.ID().Short(), fresh[i], want)
			}
		}
	})
}
