package pos

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"

	"forkbase/internal/hash"
	"forkbase/internal/index"
	"forkbase/internal/store"
)

func TestDiffIdentical(t *testing.T) {
	st := store.NewMemStore()
	a := mustBuild(t, st, genEntries(500, 1))
	b := mustBuild(t, st, genEntries(500, 1))
	deltas, stats, err := a.Diff(b)
	if err != nil {
		t.Fatal(err)
	}
	if len(deltas) != 0 {
		t.Fatalf("identical trees diff = %d deltas", len(deltas))
	}
	if stats.TouchedChunks != 0 {
		t.Fatalf("identical diff touched %d chunks, want 0 (root prune)", stats.TouchedChunks)
	}
}

func TestDiffBasicKinds(t *testing.T) {
	st := store.NewMemStore()
	a := mustBuild(t, st, []Entry{
		{Key: []byte("a"), Val: []byte("1")},
		{Key: []byte("b"), Val: []byte("2")},
		{Key: []byte("c"), Val: []byte("3")},
	})
	b := mustBuild(t, st, []Entry{
		{Key: []byte("a"), Val: []byte("1")},
		{Key: []byte("b"), Val: []byte("2x")},
		{Key: []byte("d"), Val: []byte("4")},
	})
	deltas, _, err := a.Diff(b)
	if err != nil {
		t.Fatal(err)
	}
	if len(deltas) != 3 {
		t.Fatalf("got %d deltas: %+v", len(deltas), deltas)
	}
	kinds := map[string]index.DeltaKind{}
	for _, d := range deltas {
		kinds[string(d.Key)] = d.Kind()
	}
	if kinds["b"] != index.Modified || kinds["c"] != index.Removed || kinds["d"] != index.Added {
		t.Fatalf("kinds = %v", kinds)
	}
}

func TestDiffApplyRoundTrip(t *testing.T) {
	st := store.NewMemStore()
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 10; trial++ {
		na, nb := 100+rng.Intn(2000), 100+rng.Intn(2000)
		ea := genEntries(na, int64(trial))
		eb := genEntries(nb, int64(trial+100))
		// Overlap: borrow a random slice of a's entries into b.
		for i := 0; i < na/2 && i < nb; i++ {
			eb[i] = ea[rng.Intn(na)]
		}
		a := mustBuild(t, st, ea)
		b := mustBuild(t, st, eb)
		deltas, _, err := a.Diff(b)
		if err != nil {
			t.Fatal(err)
		}
		applied, err := a.Edit(deltaOps(deltas))
		if err != nil {
			t.Fatal(err)
		}
		if applied.Root() != b.Root() {
			t.Fatalf("trial %d: Apply(A, Diff(A,B)) root %s != B root %s",
				trial, applied.Root().Short(), b.Root().Short())
		}
	}
}

func TestDiffAgainstEmpty(t *testing.T) {
	st := store.NewMemStore()
	a := mustBuild(t, st, genEntries(200, 5))
	empty := mustBuild(t, st, nil)
	deltas, _, err := a.Diff(empty)
	if err != nil {
		t.Fatal(err)
	}
	if len(deltas) != 200 {
		t.Fatalf("diff to empty: %d deltas", len(deltas))
	}
	for _, d := range deltas {
		if d.Kind() != index.Removed {
			t.Fatalf("expected all Removed, got %v for %q", d.Kind(), d.Key)
		}
	}
	deltas, _, err = empty.Diff(a)
	if err != nil {
		t.Fatal(err)
	}
	if len(deltas) != 200 || deltas[0].Kind() != index.Added {
		t.Fatalf("diff from empty: %d deltas, first kind %v", len(deltas), deltas[0].Kind())
	}
}

func TestDiffDifferentHeights(t *testing.T) {
	st := store.NewMemStore()
	small := mustBuild(t, st, genEntries(5, 1))  // single leaf
	big := mustBuild(t, st, genEntries(3000, 1)) // multi-level
	deltas, _, err := small.Diff(big)
	if err != nil {
		t.Fatal(err)
	}
	if len(deltas) != 3000-5 {
		t.Fatalf("height-mismatch diff: %d deltas, want %d", len(deltas), 2995)
	}
}

// TestDiffPruning verifies the O(D log N) behaviour: a diff touching D keys
// of an N-key tree must read far fewer chunks than the tree holds.
func TestDiffPruning(t *testing.T) {
	st := store.NewMemStore()
	entries := genEntries(30000, 13)
	a := mustBuild(t, st, entries)
	b, err := a.Edit([]Op{
		Put([]byte("key-00005000"), []byte("changed")),
		Put([]byte("key-00025000"), []byte("changed")),
	})
	if err != nil {
		t.Fatal(err)
	}
	deltas, stats, err := a.Diff(b)
	if err != nil {
		t.Fatal(err)
	}
	if len(deltas) != 2 {
		t.Fatalf("got %d deltas", len(deltas))
	}
	treeStats, err := a.ComputeStats()
	if err != nil {
		t.Fatal(err)
	}
	if stats.TouchedChunks >= treeStats.Nodes/4 {
		t.Fatalf("diff touched %d of %d chunks — pruning broken", stats.TouchedChunks, treeStats.Nodes)
	}
	t.Logf("diff touched %d of %d chunks (pruned %d refs)", stats.TouchedChunks, treeStats.Nodes, stats.PrunedRefs)
}

func TestDiffOracleRandomized(t *testing.T) {
	st := store.NewMemStore()
	rng := rand.New(rand.NewSource(7))
	base := genEntries(1000, 3)
	a := mustBuild(t, st, base)
	for trial := 0; trial < 10; trial++ {
		// Mutate a random subset to form b.
		ops := []Op{}
		model := map[string]string{}
		for _, e := range base {
			model[string(e.Key)] = string(e.Val)
		}
		for i := 0; i < 50; i++ {
			k := fmt.Sprintf("key-%08d", rng.Intn(1000))
			switch rng.Intn(3) {
			case 0:
				ops = append(ops, Del([]byte(k)))
				delete(model, k)
			case 1:
				v := fmt.Sprintf("mod-%d-%d", trial, i)
				ops = append(ops, Put([]byte(k), []byte(v)))
				model[k] = v
			default:
				nk := fmt.Sprintf("extra-%d-%d", trial, i)
				ops = append(ops, Put([]byte(nk), []byte("new")))
				model[nk] = "new"
			}
		}
		ops = lastPerKey(ops, opKey)
		b, err := a.Edit(ops)
		if err != nil {
			t.Fatal(err)
		}
		deltas, _, err := a.Diff(b)
		if err != nil {
			t.Fatal(err)
		}
		// Oracle: brute-force comparison of entry maps.
		am := entryMap(t, a)
		bm := entryMap(t, b)
		want := 0
		for k, v := range am {
			bv, ok := bm[k]
			if !ok || bv != v {
				want++
			}
		}
		for k := range bm {
			if _, ok := am[k]; !ok {
				want++
			}
		}
		if len(deltas) != want {
			t.Fatalf("trial %d: %d deltas, oracle %d", trial, len(deltas), want)
		}
		for _, d := range deltas {
			av, aok := am[string(d.Key)]
			bv, bok := bm[string(d.Key)]
			switch d.Kind() {
			case index.Added:
				if aok || !bok || bv != string(d.To) {
					t.Fatalf("bad Added delta %q", d.Key)
				}
			case index.Removed:
				if !aok || bok || av != string(d.From) {
					t.Fatalf("bad Removed delta %q", d.Key)
				}
			case index.Modified:
				if !aok || !bok || av != string(d.From) || bv != string(d.To) {
					t.Fatalf("bad Modified delta %q", d.Key)
				}
			}
		}
	}
}

// TestDiffParallelMatchesSerial runs each edge shape as several concurrent
// Diff calls over one shared tree and store, the way a server's concurrent
// requests do, and checks every caller's deltas delta for delta against the
// serial iterator merge, and every caller's stats against each other's.
// Besides random edits, the shapes include rows built against the leaf
// diff's byte skip: values that embed the encoding of a neighbouring entry,
// runs of equal and of empty values, insert and delete runs long enough to
// move leaf boundaries, and a value that swallows its successor's encoding.
func TestDiffParallelMatchesSerial(t *testing.T) {
	const callers = 4
	st := store.NewMemStore()
	rng := rand.New(rand.NewSource(13))
	a := mustBuild(t, st, genEntries(1000, 3))
	empty := mustBuild(t, st, nil)
	type pair struct {
		name     string
		old, new *Tree
	}
	var pairs []pair
	for _, edits := range []int{1, 60, 1500} {
		b := editedTree(t, a, rng, edits)
		pairs = append(pairs,
			pair{fmt.Sprintf("fwd edits=%d", edits), a, b},
			pair{fmt.Sprintf("rev edits=%d", edits), b, a},
			pair{fmt.Sprintf("self edits=%d", edits), a, a},
			pair{fmt.Sprintf("from-empty edits=%d", edits), empty, b},
			pair{fmt.Sprintf("to-empty edits=%d", edits), b, empty})
	}
	adv := adversarialEntries(1000)
	advTree := mustBuild(t, st, adv)
	for _, sh := range adversarialEdits(adv) {
		b, err := advTree.Edit(sh.ops)
		if err != nil {
			t.Fatal(err)
		}
		pairs = append(pairs, pair{sh.name + " fwd", advTree, b}, pair{sh.name + " rev", b, advTree})
	}
	k1, k2 := []byte("key-1"), []byte("key-2")
	x, v := []byte("x"), []byte("v")
	split := mustBuild(t, st, []Entry{{Key: k1, Val: x}, {Key: k2, Val: v}})
	swallowed := mustBuild(t, st, []Entry{{Key: k1, Val: encodeEntry(slices.Clip(x), Entry{Key: k2, Val: v})}})
	pairs = append(pairs, pair{"swallow fwd", split, swallowed}, pair{"swallow rev", swallowed, split})
	for _, tc := range pairs {
		want, _, err := index.GenericDiff(tc.old, tc.new)
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		got := make([][]index.Delta, callers)
		stats := make([]index.DiffStats, callers)
		errs := make([]error, callers)
		for i := 0; i < callers; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				got[i], stats[i], errs[i] = tc.old.Diff(tc.new)
			}(i)
		}
		wg.Wait()
		for i := 0; i < callers; i++ {
			if errs[i] != nil {
				t.Fatalf("%s caller %d: %v", tc.name, i, errs[i])
			}
			if !reflect.DeepEqual(got[i], want) || stats[i].Deltas != len(got[i]) {
				t.Fatalf("%s caller %d: %d deltas (stats %d), generic diff %d",
					tc.name, i, len(got[i]), stats[i].Deltas, len(want))
			}
			if stats[i] != stats[0] {
				t.Fatalf("%s caller %d: stats %+v != %+v",
					tc.name, i, stats[i], stats[0])
			}
		}
	}
}

// adversarialEntries returns n rows whose values defeat a careless byte
// compare: every fifth embeds the encoding of the row after it, and the
// rest run through empty values and runs of equal ones.  Keys are even
// numbers, so an insert run can land between them.
func adversarialEntries(n int) []Entry {
	key := func(i int) []byte { return []byte(fmt.Sprintf("key-%08d", 2*i)) }
	out := make([]Entry, n)
	for i := range out {
		var val []byte
		switch i % 5 {
		case 0:
			val = encodeEntry([]byte("pre"), Entry{Key: key(i + 1), Val: []byte("same")})
		case 1:
			val = []byte{}
		case 2, 3:
			val = []byte("same")
		default:
			val = []byte(fmt.Sprintf("val-%d", i))
		}
		out[i] = Entry{Key: key(i), Val: val}
	}
	return out
}

// adversarialEdits returns the edit shapes run against adversarialEntries.
func adversarialEdits(base []Entry) []editShape {
	swallow := func(i int) []Op { // row i takes on row i+1's encoding, which goes
		return []Op{Put(base[i].Key, encodeEntry(slices.Clip(base[i].Val), base[i+1])), Del(base[i+1].Key)}
	}
	var embed, equal, insert, del []Op
	for i := 7; i+1 < len(base); i += 97 {
		embed = append(embed, swallow(i)...)
	}
	for i := 300; i < 360; i++ {
		equal = append(equal, Put(base[i].Key, []byte("same")))
		equal = append(equal, Put(base[i+100].Key, []byte{}))
	}
	for i := 500; i < 800; i++ {
		insert = append(insert, Put([]byte(fmt.Sprintf("key-%08d", 2*i+1)), []byte("same")))
	}
	for i := 200; i < 500; i++ {
		del = append(del, Del(base[i].Key))
	}
	return []editShape{
		{"embed", embed},
		{"equal-runs", equal},
		{"insert-run", insert},
		{"delete-run", del},
		{"mixed", append(append(append(swallow(3), equal[:20]...), insert[:50]...), del[250:]...)},
	}
}

// TestDiffReadsEachNodeOnce: an uncached diff fetches every node it visits
// from the store exactly once.  Only the roots are read for their levels;
// each level below follows from its parent's, so no span is loaded twice.
func TestDiffReadsEachNodeOnce(t *testing.T) {
	ms := store.NewMemStore()
	rng := rand.New(rand.NewSource(21))
	a := mustBuild(t, ms, genEntries(30000, 21))
	b := editedTree(t, a, rng, 10)
	small := mustBuild(t, ms, genEntries(5, 1))
	empty := mustBuild(t, ms, nil)
	for _, tc := range []struct {
		name     string
		old, new *Tree
	}{
		{"fwd", a, b},
		{"rev", b, a},
		{"heights", small, b},
		{"from-empty", empty, small},
	} {
		gets := ms.Stats().Gets
		_, stats, err := tc.old.Diff(tc.new)
		if err != nil {
			t.Fatal(err)
		}
		if got := ms.Stats().Gets - gets; got != int64(stats.TouchedChunks) {
			t.Fatalf("%s: %d store gets for %d touched chunks", tc.name, got, stats.TouchedChunks)
		}
	}
}

// editedTree applies edits random puts and deletes to base, over its keys
// and as many beyond them.
func editedTree(t *testing.T, base *Tree, rng *rand.Rand, edits int) *Tree {
	t.Helper()
	ops := make([]Op, 0, edits)
	n := 2 * int(base.Len())
	for i := 0; i < edits; i++ {
		k := []byte(fmt.Sprintf("key-%08d", rng.Intn(n)))
		if rng.Intn(5) == 0 {
			ops = append(ops, Del(k))
		} else {
			ops = append(ops, Put(k, []byte(fmt.Sprintf("edit-%d", i))))
		}
	}
	nt, err := base.Edit(ops)
	if err != nil {
		t.Fatal(err)
	}
	return nt
}

func entryMap(t *testing.T, tr *Tree) map[string]string {
	t.Helper()
	out := map[string]string{}
	es, err := tr.Entries()
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range es {
		out[string(e.Key)] = string(e.Val)
	}
	return out
}

func TestMergeDisjoint(t *testing.T) {
	st := store.NewMemStore()
	base := mustBuild(t, st, genEntries(5000, 8))
	a, err := base.Edit([]Op{Put([]byte("key-00000100"), []byte("A-change"))})
	if err != nil {
		t.Fatal(err)
	}
	b, err := base.Edit([]Op{Put([]byte("key-00004900"), []byte("B-change"))})
	if err != nil {
		t.Fatal(err)
	}
	merged, _, err := index.Merge3(base, a, b, nil)
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := merged.Get([]byte("key-00000100")); string(v) != "A-change" {
		t.Fatalf("A change lost: %q", v)
	}
	if v, _ := merged.Get([]byte("key-00004900")); string(v) != "B-change" {
		t.Fatalf("B change lost: %q", v)
	}
	// Merged tree must equal applying both edits sequentially.
	seq, err := base.Edit([]Op{
		Put([]byte("key-00000100"), []byte("A-change")),
		Put([]byte("key-00004900"), []byte("B-change")),
	})
	if err != nil {
		t.Fatal(err)
	}
	if merged.Root() != seq.Root() {
		t.Fatalf("merge root %s != sequential root %s", merged.Root().Short(), seq.Root().Short())
	}
	// Reuse over chunk ids: a merged chunk is reused when an input had it.
	had := map[hash.Hash]bool{}
	for _, in := range []*Tree{base, a, b} {
		ids, err := in.ChunkIDs()
		if err != nil {
			t.Fatal(err)
		}
		for _, id := range ids {
			had[id] = true
		}
	}
	ids, err := merged.ChunkIDs()
	if err != nil {
		t.Fatal(err)
	}
	reused := 0
	for _, id := range ids {
		if had[id] {
			reused++
		}
	}
	if len(ids) == 0 || reused*2 < len(ids) {
		t.Fatalf("merge reused %d of %d chunks, want at least half", reused, len(ids))
	}
	t.Logf("merge reuse: %d of %d chunks", reused, len(ids))
}

func TestMergeConflict(t *testing.T) {
	st := store.NewMemStore()
	base := mustBuild(t, st, genEntries(100, 4))
	key := []byte("key-00000050")
	a, _ := base.Edit([]Op{Put(key, []byte("from-A"))})
	b, _ := base.Edit([]Op{Put(key, []byte("from-B"))})

	_, stats, err := index.Merge3(base, a, b, nil)
	var ce *index.ErrConflict
	if !asConflict(err, &ce) {
		t.Fatalf("want ErrConflict, got %v", err)
	}
	if stats.Conflicts != 1 || len(ce.Conflicts) != 1 {
		t.Fatalf("conflicts = %d", stats.Conflicts)
	}
	c := ce.Conflicts[0]
	if !bytes.Equal(c.Key, key) || string(c.A) != "from-A" || string(c.B) != "from-B" {
		t.Fatalf("conflict detail = %+v", c)
	}

	merged, _, err := index.Merge3(base, a, b, index.ResolveOurs)
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := merged.Get(key); string(v) != "from-A" {
		t.Fatalf("ResolveOurs = %q", v)
	}
	merged, _, err = index.Merge3(base, a, b, index.ResolveTheirs)
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := merged.Get(key); string(v) != "from-B" {
		t.Fatalf("ResolveTheirs = %q", v)
	}
}

func asConflict(err error, target **index.ErrConflict) bool {
	if err == nil {
		return false
	}
	ce, ok := err.(*index.ErrConflict)
	if ok {
		*target = ce
	}
	return ok
}

func TestMergeSameChange(t *testing.T) {
	st := store.NewMemStore()
	base := mustBuild(t, st, genEntries(100, 4))
	key := []byte("key-00000010")
	a, _ := base.Edit([]Op{Put(key, []byte("same"))})
	b, _ := base.Edit([]Op{Put(key, []byte("same")), Put([]byte("extra"), []byte("b"))})
	merged, _, err := index.Merge3(base, a, b, nil)
	if err != nil {
		t.Fatalf("identical change conflicted: %v", err)
	}
	if v, _ := merged.Get(key); string(v) != "same" {
		t.Fatalf("got %q", v)
	}
	if v, _ := merged.Get([]byte("extra")); string(v) != "b" {
		t.Fatalf("extra = %q", v)
	}
}

func TestMergeDeleteVsModify(t *testing.T) {
	st := store.NewMemStore()
	base := mustBuild(t, st, genEntries(100, 4))
	key := []byte("key-00000033")
	a, _ := base.Edit([]Op{Del(key)})
	b, _ := base.Edit([]Op{Put(key, []byte("kept"))})
	_, _, err := index.Merge3(base, a, b, nil)
	var ce *index.ErrConflict
	if !asConflict(err, &ce) {
		t.Fatalf("delete-vs-modify should conflict, got %v", err)
	}
	if ce.Conflicts[0].A != nil {
		t.Fatalf("A side should be nil (deleted): %+v", ce.Conflicts[0])
	}
	// Resolver chooses deletion.
	merged, _, err := index.Merge3(base, a, b, func(c index.Conflict) ([]byte, bool) { return nil, false })
	if err != nil {
		t.Fatal(err)
	}
	if ok, _ := merged.Has(key); ok {
		t.Fatal("resolver deletion not honoured")
	}
}

func TestMergeTrivialFastPaths(t *testing.T) {
	st := store.NewMemStore()
	base := mustBuild(t, st, genEntries(50, 4))
	changed, _ := base.Edit([]Op{Put([]byte("x"), []byte("y"))})

	m, _, err := index.Merge3(base, base, changed, nil)
	if err != nil || m.Root() != changed.Root() {
		t.Fatalf("untouched-A fast path: %v", err)
	}
	m, _, err = index.Merge3(base, changed, base, nil)
	if err != nil || m.Root() != changed.Root() {
		t.Fatalf("untouched-B fast path: %v", err)
	}
	m, _, err = index.Merge3(base, changed, changed, nil)
	if err != nil || m.Root() != changed.Root() {
		t.Fatalf("identical-sides fast path: %v", err)
	}
}

// TestMerge3MatchesRebuild: a merge of two sides with hundreds of
// overlapping edits lands the same root as building the merged record set
// from scratch (byte identity via structural invariance).
func TestMerge3MatchesRebuild(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	st := store.NewMemStore()
	base := mustBuild(t, st, genEntries(6000, 14))
	a := editedTree(t, base, rng, 400)
	b := editedTree(t, base, rng, 400)
	merged, _, err := index.Merge3(base, a, b, index.ResolveOurs)
	if err != nil {
		t.Fatal(err)
	}
	entries, err := merged.(*Tree).Entries()
	if err != nil {
		t.Fatal(err)
	}
	rebuilt := mustBuild(t, store.NewMemStore(), entries)
	if rebuilt.Root() != merged.Root() {
		t.Fatalf("merged root %s != rebuilt root %s", merged.Root().Short(), rebuilt.Root().Short())
	}
}

// FuzzTreeDiff builds two trees from entry sets the input derives — a base,
// and the base after the edits the rest of the input spells — and requires
// Diff to equal the generic iterator merge in both directions.  The seeds
// are the adversarial shapes: a value that swallows its successor's
// encoding, values embedding neighbours' encodings, runs of equal and of
// empty values, and insert and delete runs that move leaf boundaries.
func FuzzTreeDiff(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{2, 3, 0, 0})                         // {k0, k2} against k0 swallowing k2
	f.Add([]byte{255, 3, 20, 0, 3, 90, 0, 3, 160, 0}) // swallows across a larger tree
	runs := []byte{200}
	for i := byte(0); i < 60; i++ {
		runs = append(runs, 0, i, 0)        // a run of empty values
		runs = append(runs, 2, 60+i, 0)     // a run of values equal to a neighbour's
		runs = append(runs, 1, 120+i, 0)    // a delete run
		runs = append(runs, 0x80, 180+i, 9) // an insert run between and past the base keys
	}
	f.Add(runs)
	f.Fuzz(func(t *testing.T, data []byte) {
		a, b := fuzzEntrySets(data)
		st := store.NewMemStore()
		ta, tb := mustBuild(t, st, a), mustBuild(t, st, b)
		for _, p := range [][2]*Tree{{ta, tb}, {tb, ta}} {
			got, stats, err := p[0].Diff(p[1])
			if err != nil {
				t.Fatal(err)
			}
			want, _, err := index.GenericDiff(p[0], p[1])
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) || len(got) > 0 && !reflect.DeepEqual(got, want) || stats.Deltas != len(got) {
				t.Fatalf("Diff gave %d deltas (stats %d), generic diff %d:\n got %q\nwant %q",
					len(got), stats.Deltas, len(want), got, want)
			}
		}
	})
}

// fuzzEntrySets derives a base entry set and an edited one from data.
// data[0] is the base's row count; row i has key 2i and a value cut from
// data, empty for every seventh row.  The rest of data is edits of three
// bytes each — kind, key and argument — over keys 0 to 511, odd ones new:
//
//	0: put a value of arg%32 bytes cut from data
//	1: delete the key
//	2: give an existing key the value of the row before it
//	3: append the encoding of the next row to an existing key's value, and
//	   delete that row
func fuzzEntrySets(data []byte) (base, edited []Entry) {
	if len(data) == 0 {
		return nil, nil
	}
	key := func(i int) []byte { return []byte(fmt.Sprintf("k%04d", i)) }
	cut := func(off, n int) []byte {
		v := make([]byte, n)
		for i := range v {
			v[i] = data[(off+i)%len(data)]
		}
		return v
	}
	var es []Entry // the edited set, in key order
	for i := 0; i < int(data[0]); i++ {
		n := i % 11
		if i%7 == 0 {
			n = 0
		}
		es = append(es, Entry{Key: key(2 * i), Val: cut(i, n)})
	}
	base = slices.Clone(es)
	for rec := data[1:]; len(rec) >= 3; rec = rec[3:] {
		k := key(2*int(rec[1]) + int(rec[0]>>7)) // the kind's high bit picks the odd key
		i, found := slices.BinarySearchFunc(es, k, func(e Entry, k []byte) int { return bytes.Compare(e.Key, k) })
		switch kind := rec[0] & 3; {
		case kind == 0 && found:
			es[i].Val = cut(int(rec[2]), int(rec[2])%32)
		case kind == 0:
			es = slices.Insert(es, i, Entry{Key: k, Val: cut(int(rec[2]), int(rec[2])%32)})
		case kind == 1 && found:
			es = slices.Delete(es, i, i+1)
		case kind == 2 && found && i > 0:
			es[i].Val = es[i-1].Val
		case kind == 3 && found && i+1 < len(es):
			es[i].Val = encodeEntry(slices.Clip(es[i].Val), es[i+1])
			es = slices.Delete(es, i+1, i+2)
		}
	}
	return base, es
}
