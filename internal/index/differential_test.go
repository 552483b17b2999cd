// Cross-structure differential oracle: the same operation stream applied
// to a POS-Tree and a Merkle Patricia Trie must yield identical logical
// contents, identical diffs and identical three-way-merge results
// (conflicts included).  This is the executable statement of the SIRI
// contract the index layer abstracts — if a structure passes this suite it
// is interchangeable behind index.VersionedIndex.
package index_test

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"forkbase/internal/chunker"
	"forkbase/internal/hash"
	"forkbase/internal/index"
	"forkbase/internal/store"
	"forkbase/internal/value"
)

var kinds = []index.Kind{index.KindPOS, index.KindMPT}

func emptyOf(t *testing.T, k index.Kind, st store.Store) index.VersionedIndex {
	t.Helper()
	ix, err := value.LoadIndex(st, chunker.SmallConfig(), hash.Hash{}, k)
	if err != nil {
		t.Fatalf("LoadIndex(%s): %v", k, err)
	}
	return ix
}

func randKey(rng *rand.Rand) []byte {
	kl := rng.Intn(8)
	key := make([]byte, kl)
	for j := range key {
		key[j] = byte('a' + rng.Intn(5))
	}
	return key
}

func randOps(rng *rand.Rand, n int, delRatio int) []index.Op {
	ops := make([]index.Op, 0, n)
	for i := 0; i < n; i++ {
		key := randKey(rng)
		if delRatio > 0 && rng.Intn(delRatio) == 0 {
			ops = append(ops, index.Del(key))
		} else {
			ops = append(ops, index.Put(key, []byte(fmt.Sprintf("v%d", rng.Intn(100)))))
		}
	}
	return ops
}

func materialize(t *testing.T, ix index.VersionedIndex) []index.Entry {
	t.Helper()
	it, err := ix.Iterate()
	if err != nil {
		t.Fatalf("%s Iterate: %v", ix.Kind(), err)
	}
	var out []index.Entry
	for it.Next() {
		e := it.Entry()
		out = append(out, index.Entry{
			Key: append([]byte(nil), e.Key...),
			Val: append([]byte(nil), e.Val...),
		})
	}
	if err := it.Err(); err != nil {
		t.Fatalf("%s iter: %v", ix.Kind(), err)
	}
	return out
}

func assertSameContents(t *testing.T, a, b index.VersionedIndex, ctx string) {
	t.Helper()
	ea, eb := materialize(t, a), materialize(t, b)
	if len(ea) != len(eb) {
		t.Fatalf("%s: %s has %d entries, %s has %d", ctx, a.Kind(), len(ea), b.Kind(), len(eb))
	}
	for i := range ea {
		if !bytes.Equal(ea[i].Key, eb[i].Key) || !bytes.Equal(ea[i].Val, eb[i].Val) {
			t.Fatalf("%s: entry %d differs: %s=(%q,%q) %s=(%q,%q)",
				ctx, i, a.Kind(), ea[i].Key, ea[i].Val, b.Kind(), eb[i].Key, eb[i].Val)
		}
	}
	if a.Len() != b.Len() {
		t.Fatalf("%s: Len %d vs %d", ctx, a.Len(), b.Len())
	}
}

func assertSameDeltas(t *testing.T, da, db []index.Delta, ctx string) {
	t.Helper()
	if len(da) != len(db) {
		t.Fatalf("%s: %d vs %d deltas", ctx, len(da), len(db))
	}
	for i := range da {
		if !bytes.Equal(da[i].Key, db[i].Key) ||
			!bytes.Equal(da[i].From, db[i].From) || !bytes.Equal(da[i].To, db[i].To) ||
			(da[i].From == nil) != (db[i].From == nil) || (da[i].To == nil) != (db[i].To == nil) {
			t.Fatalf("%s: delta %d differs: %+v vs %+v", ctx, i, da[i], db[i])
		}
	}
}

// opStream is one workload for TestDifferentialOpStream: the batch applied
// at each step and the keys probed after it.
type opStream struct {
	name  string
	steps int
	ops   func(rng *rand.Rand, step int) []index.Op
	key   func(rng *rand.Rand) []byte
	// smallDelta streams change a sliver of a large version per step, so each
	// structure must also show the SIRI properties: diffs prune shared
	// subtrees by hash and versions share stored pages.
	smallDelta bool
}

// The versioned-table stream: a base table and the 1% window each later
// version rewrites.
const (
	versionedRows   = 3000
	versionedWindow = versionedRows / 100
)

func rowKey(i int) []byte { return []byte(fmt.Sprintf("row-%06d", i)) }

var opStreams = []opStream{
	{
		name:  "random",
		steps: 25,
		ops:   func(rng *rand.Rand, _ int) []index.Op { return randOps(rng, 30, 3) },
		key:   randKey,
	},
	{
		// A base table, then a chain of versions each rewriting one
		// contiguous 1% window: the paper's versioned-dataset workload.
		name:  "versioned-table",
		steps: 6,
		ops: func(_ *rand.Rand, step int) []index.Op {
			lo, n := 0, versionedRows
			if step > 0 {
				lo, n = (step*1031)%(versionedRows-versionedWindow), versionedWindow
			}
			ops := make([]index.Op, n)
			for i := range ops {
				ops[i] = index.Put(rowKey(lo+i), []byte(fmt.Sprintf("value-%d-gen%d", lo+i, step)))
			}
			return ops
		},
		key:        func(rng *rand.Rand) []byte { return rowKey(rng.Intn(versionedRows + 10)) },
		smallDelta: true,
	},
}

// TestDifferentialOpStream drives both structures through the same batched
// op stream, checking contents, point reads and per-step
// structural diffs against each other at every step.
func TestDifferentialOpStream(t *testing.T) {
	for _, s := range opStreams {
		t.Run(s.name, func(t *testing.T) { differentialOpStream(t, s) })
	}
}

func differentialOpStream(t *testing.T, s opStream) {
	rng := rand.New(rand.NewSource(71))
	cur := map[index.Kind]index.VersionedIndex{}
	prev := map[index.Kind]index.VersionedIndex{}
	stores := map[index.Kind]*store.MemStore{}
	pruned := map[index.Kind]int{}
	logical := map[index.Kind]int64{}
	for _, k := range kinds {
		stores[k] = store.NewMemStore()
		cur[k] = emptyOf(t, k, stores[k])
	}
	for step := 0; step < s.steps; step++ {
		ops := s.ops(rng, step)
		for _, k := range kinds {
			prev[k] = cur[k]
			next, err := cur[k].Apply(ops)
			if err != nil {
				t.Fatalf("step %d: %s Apply: %v", step, k, err)
			}
			cur[k] = next
		}
		ctx := fmt.Sprintf("step %d", step)
		assertSameContents(t, cur[index.KindPOS], cur[index.KindMPT], ctx)

		// Same-structure structural diffs across the step must agree
		// across structures.
		dPOS, sPOS, err := prev[index.KindPOS].DiffWith(cur[index.KindPOS])
		if err != nil {
			t.Fatalf("%s: pos diff: %v", ctx, err)
		}
		dMPT, sMPT, err := prev[index.KindMPT].DiffWith(cur[index.KindMPT])
		if err != nil {
			t.Fatalf("%s: mpt diff: %v", ctx, err)
		}
		assertSameDeltas(t, dPOS, dMPT, ctx)
		// The iterator merge is the reference both pruning walks answer to.
		for k, got := range map[index.Kind][]index.Delta{index.KindPOS: dPOS, index.KindMPT: dMPT} {
			want, _, err := index.GenericDiff(prev[k], cur[k])
			if err != nil {
				t.Fatalf("%s: %s generic diff: %v", ctx, k, err)
			}
			assertSameDeltas(t, got, want, fmt.Sprintf("%s: %s structural vs generic", ctx, k))
		}
		pruned[index.KindPOS] += sPOS.PrunedRefs
		pruned[index.KindMPT] += sMPT.PrunedRefs
		for _, k := range kinds {
			shape, err := cur[k].ComputeStats()
			if err != nil {
				t.Fatalf("%s: %s stats: %v", ctx, k, err)
			}
			logical[k] += shape.Bytes
		}

		// Point reads agree.
		for i := 0; i < 10; i++ {
			key := s.key(rng)
			vp, errP := cur[index.KindPOS].Get(key)
			vm, errM := cur[index.KindMPT].Get(key)
			if errors.Is(errP, index.ErrKeyNotFound) != errors.Is(errM, index.ErrKeyNotFound) {
				t.Fatalf("%s: Get(%q) presence disagrees (%v vs %v)", ctx, key, errP, errM)
			}
			if errP == nil && !bytes.Equal(vp, vm) {
				t.Fatalf("%s: Get(%q) = %q vs %q", ctx, key, vp, vm)
			}
		}
	}
	if !s.smallDelta {
		return
	}
	for _, k := range kinds {
		if pruned[k] == 0 {
			t.Errorf("%s: structural diffs pruned nothing over the stream", k)
		}
		// Each version is 99% its predecessor: without page sharing the
		// store would hold the full logical volume.
		if physical := stores[k].Stats().PhysicalBytes; logical[k] < 2*physical {
			t.Errorf("%s: no cross-version dedup: %d logical bytes over %d stored", k, logical[k], physical)
		}
	}
}

// TestDifferentialMerge drives identical three-way merges — clean and
// conflicting — through both structures.
func TestDifferentialMerge(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	for round := 0; round < 10; round++ {
		baseOps := randOps(rng, 40, 0)
		aOps := randOps(rng, 12, 4)
		bOps := randOps(rng, 12, 4)

		type side struct {
			base, a, b index.VersionedIndex
		}
		sides := map[index.Kind]*side{}
		for _, k := range kinds {
			st := store.NewMemStore()
			base, err := emptyOf(t, k, st).Apply(baseOps)
			if err != nil {
				t.Fatalf("%s base: %v", k, err)
			}
			av, err := base.Apply(aOps)
			if err != nil {
				t.Fatalf("%s a: %v", k, err)
			}
			bv, err := base.Apply(bOps)
			if err != nil {
				t.Fatalf("%s b: %v", k, err)
			}
			sides[k] = &side{base: base, a: av, b: bv}
		}

		// Nil resolver: both structures must agree on whether the merge
		// conflicts, and on the exact conflict set.
		var conflictSets [2][]index.Conflict
		var mergedClean [2]index.VersionedIndex
		for i, k := range kinds {
			s := sides[k]
			merged, _, err := index.Merge3(s.base, s.a, s.b, nil)
			var ce *index.ErrConflict
			switch {
			case errors.As(err, &ce):
				conflictSets[i] = ce.Conflicts
			case err != nil:
				t.Fatalf("round %d: %s merge: %v", round, k, err)
			default:
				mergedClean[i] = merged
			}
		}
		if (conflictSets[0] == nil) != (conflictSets[1] == nil) {
			t.Fatalf("round %d: structures disagree on conflict presence", round)
		}
		if conflictSets[0] != nil {
			if len(conflictSets[0]) != len(conflictSets[1]) {
				t.Fatalf("round %d: %d vs %d conflicts", round, len(conflictSets[0]), len(conflictSets[1]))
			}
			for i := range conflictSets[0] {
				ca, cb := conflictSets[0][i], conflictSets[1][i]
				if !bytes.Equal(ca.Key, cb.Key) || !bytes.Equal(ca.A, cb.A) || !bytes.Equal(ca.B, cb.B) || !bytes.Equal(ca.Base, cb.Base) {
					t.Fatalf("round %d: conflict %d differs: %+v vs %+v", round, i, ca, cb)
				}
			}
		} else {
			assertSameContents(t, mergedClean[0], mergedClean[1], fmt.Sprintf("round %d clean merge", round))
		}

		// Resolved merge (ours) must agree regardless of conflicts.
		var resolved [2]index.VersionedIndex
		for i, k := range kinds {
			s := sides[k]
			merged, _, err := index.Merge3(s.base, s.a, s.b, index.ResolveOurs)
			if err != nil {
				t.Fatalf("round %d: %s resolved merge: %v", round, k, err)
			}
			resolved[i] = merged
		}
		assertSameContents(t, resolved[0], resolved[1], fmt.Sprintf("round %d resolved merge", round))
	}
}

// TestCrossStructureDiff pins the generic fallback: diffing a POS-Tree
// against an MPT holding overlapping contents.
func TestCrossStructureDiff(t *testing.T) {
	rng := rand.New(rand.NewSource(79))
	ops := randOps(rng, 60, 0)
	extra := randOps(rng, 8, 0)
	pos0, err := emptyOf(t, index.KindPOS, store.NewMemStore()).Apply(ops)
	if err != nil {
		t.Fatal(err)
	}
	mpt0, err := emptyOf(t, index.KindMPT, store.NewMemStore()).Apply(ops)
	if err != nil {
		t.Fatal(err)
	}
	mpt1, err := mpt0.Apply(extra)
	if err != nil {
		t.Fatal(err)
	}
	// Identical contents, different structures: empty diff.
	d, _, err := pos0.DiffWith(mpt0)
	if err != nil {
		t.Fatalf("cross diff: %v", err)
	}
	if len(d) != 0 {
		t.Fatalf("cross diff of identical contents has %d deltas", len(d))
	}
	// POS vs edited MPT must equal MPT vs edited MPT.
	dCross, _, err := pos0.DiffWith(mpt1)
	if err != nil {
		t.Fatal(err)
	}
	dSame, _, err := mpt0.DiffWith(mpt1)
	if err != nil {
		t.Fatal(err)
	}
	assertSameDeltas(t, dCross, dSame, "cross vs structural")
}

// TestLoadKindRefusesARootOfAnotherFamily: value.LoadIndex trusts the
// caller's kind enough to load by it, not enough to mis-decode — each
// structure's own root load rejects the other's root, and the right kind
// still loads.
func TestLoadKindRefusesARootOfAnotherFamily(t *testing.T) {
	cfg := chunker.SmallConfig()
	ops := randOps(rand.New(rand.NewSource(5)), 40, 0)
	for _, k := range kinds {
		st := store.NewMemStore()
		ix, err := emptyOf(t, k, st).Apply(ops)
		if err != nil {
			t.Fatal(err)
		}
		for _, as := range kinds {
			got, err := value.LoadIndex(st, cfg, ix.Root(), as)
			if as == k {
				if err != nil || got.Len() != ix.Len() {
					t.Errorf("%s root as %s: %v", k, as, err)
				}
				continue
			}
			// A lazy loader may defer its root read to first use.
			if err == nil {
				_, err = got.Get(ops[0].Key)
			}
			if err == nil {
				t.Errorf("%s root loaded and read as %s", k, as)
			}
		}
	}
}
