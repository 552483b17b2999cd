package mpt

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"testing"

	"forkbase/internal/chunk"
	"forkbase/internal/index"
	"forkbase/internal/store"
)

func buildT(t *testing.T, st store.Store, entries []index.Entry) *Trie {
	t.Helper()
	tr, err := Build(st, entries)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return tr
}

func sortedUnique(entries []index.Entry) []index.Entry {
	m := map[string][]byte{}
	for _, e := range entries {
		m[string(e.Key)] = e.Val
	}
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]index.Entry, len(keys))
	for i, k := range keys {
		out[i] = index.Entry{Key: []byte(k), Val: m[k]}
	}
	return out
}

func randEntries(rng *rand.Rand, n int) []index.Entry {
	out := make([]index.Entry, n)
	for i := range out {
		// Short keys force dense prefix sharing (branches, extensions,
		// branch values via prefix keys); the byte alphabet is kept tiny so
		// every node kind is exercised.
		kl := rng.Intn(6)
		key := make([]byte, kl)
		for j := range key {
			key[j] = byte(rng.Intn(4))
		}
		val := []byte(fmt.Sprintf("v%d", rng.Intn(50)))
		out[i] = index.Entry{Key: key, Val: val}
	}
	return out
}

func TestGetPutBasics(t *testing.T) {
	st := store.NewMemStore()
	entries := []index.Entry{
		{Key: []byte("a"), Val: []byte("1")},
		{Key: []byte("ab"), Val: []byte("2")}, // "a" is a prefix: branch value
		{Key: []byte("abc"), Val: []byte("3")},
		{Key: []byte("b"), Val: []byte("4")},
		{Key: []byte(""), Val: []byte("empty")}, // empty key
	}
	tr := buildT(t, st, entries)
	if tr.Len() != 5 {
		t.Fatalf("Len = %d, want 5", tr.Len())
	}
	for _, e := range entries {
		got, err := tr.Get(e.Key)
		if err != nil {
			t.Fatalf("Get(%q): %v", e.Key, err)
		}
		if !bytes.Equal(got, e.Val) {
			t.Fatalf("Get(%q) = %q, want %q", e.Key, got, e.Val)
		}
	}
	if _, err := tr.Get([]byte("zz")); !errors.Is(err, index.ErrKeyNotFound) {
		t.Fatalf("Get(zz) err = %v, want ErrKeyNotFound", err)
	}
	// Reload by root recovers the count.
	re, err := Load(st, tr.Root())
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if re.Len() != tr.Len() {
		t.Fatalf("reloaded Len = %d, want %d", re.Len(), tr.Len())
	}
}

// TestStructuralInvariance is the SIRI property: the root hash is a pure
// function of the record set, independent of how it was produced.
func TestStructuralInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for round := 0; round < 20; round++ {
		// Deduplicate up front: the shuffled one-at-a-time insert below must
		// not change which duplicate wins.
		entries := sortedUnique(randEntries(rng, 60))
		st1 := store.NewMemStore()
		bulk := buildT(t, st1, entries)

		// Same set via one-at-a-time inserts in shuffled order.
		st2 := store.NewMemStore()
		var inc index.VersionedIndex = New(st2)
		shuffled := append([]index.Entry(nil), entries...)
		rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		for _, e := range shuffled {
			var err error
			inc, err = inc.Apply([]index.Op{index.Put(e.Key, e.Val)})
			if err != nil {
				t.Fatalf("Apply: %v", err)
			}
		}
		if bulk.Root() != inc.Root() {
			t.Fatalf("round %d: bulk root %s != incremental root %s", round, bulk.Root().Short(), inc.Root().Short())
		}

		// Insert extra (fresh) keys then delete them: root must return
		// exactly — delete normalization lands back on canonical form.
		seen := map[string]bool{}
		for _, e := range entries {
			seen[string(e.Key)] = true
		}
		var extra []index.Entry
		for _, e := range randEntries(rng, 20) {
			if !seen[string(e.Key)] {
				seen[string(e.Key)] = true
				extra = append(extra, e)
			}
		}
		withExtra, err := inc.Apply(putOps(extra))
		if err != nil {
			t.Fatalf("Apply extra: %v", err)
		}
		dels := make([]index.Op, 0, len(extra))
		for _, e := range extra {
			dels = append(dels, index.Del(e.Key))
		}
		back, err := withExtra.Apply(dels)
		if err != nil {
			t.Fatalf("Apply dels: %v", err)
		}
		if back.Root() != inc.Root() {
			t.Fatalf("round %d: delete did not restore canonical root", round)
		}
	}
}

func putOps(entries []index.Entry) []index.Op {
	ops := make([]index.Op, len(entries))
	for i, e := range entries {
		ops[i] = index.Put(e.Key, e.Val)
	}
	return ops
}

func TestIterateOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	st := store.NewMemStore()
	entries := randEntries(rng, 200)
	tr := buildT(t, st, entries)
	want := sortedUnique(entries)

	it, err := tr.Iterate()
	if err != nil {
		t.Fatalf("Iterate: %v", err)
	}
	var got []index.Entry
	for it.Next() {
		e := it.Entry()
		got = append(got, index.Entry{Key: append([]byte(nil), e.Key...), Val: append([]byte(nil), e.Val...)})
	}
	if err := it.Err(); err != nil {
		t.Fatalf("iter err: %v", err)
	}
	if len(got) != len(want) {
		t.Fatalf("iterated %d entries, want %d", len(got), len(want))
	}
	for i := range want {
		if !bytes.Equal(got[i].Key, want[i].Key) || !bytes.Equal(got[i].Val, want[i].Val) {
			t.Fatalf("entry %d = (%q,%q), want (%q,%q)", i, got[i].Key, got[i].Val, want[i].Key, want[i].Val)
		}
	}
}

func TestIterateFrom(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	st := store.NewMemStore()
	entries := randEntries(rng, 150)
	tr := buildT(t, st, entries)
	want := sortedUnique(entries)

	targets := [][]byte{{}, {0}, {1, 2}, {3, 3, 3, 3, 3, 3}, []byte("zzz")}
	for _, e := range want {
		targets = append(targets, e.Key)
	}
	for _, target := range targets {
		it, err := tr.IterateFrom(target)
		if err != nil {
			t.Fatalf("IterateFrom(%x): %v", target, err)
		}
		exp := want[sort.Search(len(want), func(i int) bool {
			return bytes.Compare(want[i].Key, target) >= 0
		}):]
		i := 0
		for it.Next() {
			e := it.Entry()
			if i >= len(exp) {
				t.Fatalf("IterateFrom(%x): extra entry %q", target, e.Key)
			}
			if !bytes.Equal(e.Key, exp[i].Key) {
				t.Fatalf("IterateFrom(%x) entry %d = %x, want %x", target, i, e.Key, exp[i].Key)
			}
			i++
		}
		if err := it.Err(); err != nil {
			t.Fatalf("IterateFrom(%x) err: %v", target, err)
		}
		if i != len(exp) {
			t.Fatalf("IterateFrom(%x) yielded %d entries, want %d", target, i, len(exp))
		}
	}
}

func TestDiffAndPrune(t *testing.T) {
	st := store.NewMemStore()
	entries := make([]index.Entry, 0, 3000)
	for i := 0; i < 3000; i++ {
		entries = append(entries, index.Entry{
			Key: []byte(fmt.Sprintf("user:%06d", i)),
			Val: []byte(fmt.Sprintf("row-%d", i)),
		})
	}
	a := buildT(t, st, entries)
	b, err := a.Apply([]index.Op{
		index.Put([]byte("user:000100"), []byte("changed")),
		index.Put([]byte("user:999999"), []byte("added")),
		index.Del([]byte("user:002000")),
	})
	if err != nil {
		t.Fatalf("Apply: %v", err)
	}
	deltas, stats, err := a.Diff(b.(*Trie))
	if err != nil {
		t.Fatalf("Diff: %v", err)
	}
	if len(deltas) != 3 {
		t.Fatalf("got %d deltas, want 3: %v", len(deltas), deltas)
	}
	kinds := map[string]index.DeltaKind{}
	for _, d := range deltas {
		kinds[string(d.Key)] = d.Kind()
	}
	if kinds["user:000100"] != index.Modified || kinds["user:999999"] != index.Added || kinds["user:002000"] != index.Removed {
		t.Fatalf("wrong delta kinds: %v", kinds)
	}
	if stats.PrunedRefs == 0 {
		t.Fatalf("structural diff pruned nothing (stats %+v)", stats)
	}
	st2, err := a.ComputeStats()
	if err != nil {
		t.Fatalf("ComputeStats: %v", err)
	}
	if stats.TouchedChunks >= st2.Nodes/2 {
		t.Fatalf("diff touched %d of %d nodes — pruning is not effective", stats.TouchedChunks, st2.Nodes)
	}
	// Round-trip: applying the deltas to a must reproduce b's root.
	ops := make([]index.Op, len(deltas))
	for i, d := range deltas {
		if d.To == nil {
			ops[i] = index.Del(d.Key)
		} else {
			ops[i] = index.Put(d.Key, d.To)
		}
	}
	rt, err := a.Apply(ops)
	if err != nil {
		t.Fatalf("Apply deltas: %v", err)
	}
	if rt.Root() != b.Root() {
		t.Fatalf("delta round-trip root mismatch")
	}
}

func TestDiffRandomOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for round := 0; round < 15; round++ {
		st := store.NewMemStore()
		ea := randEntries(rng, 80)
		eb := randEntries(rng, 80)
		a := buildT(t, st, ea)
		b := buildT(t, st, eb)
		got, _, err := a.Diff(b)
		if err != nil {
			t.Fatalf("Diff: %v", err)
		}
		// Oracle: map-based diff over the normalized sets.
		am, bm := map[string][]byte{}, map[string][]byte{}
		for _, e := range sortedUnique(ea) {
			am[string(e.Key)] = e.Val
		}
		for _, e := range sortedUnique(eb) {
			bm[string(e.Key)] = e.Val
		}
		want := 0
		for k, v := range am {
			if bv, ok := bm[k]; !ok || !bytes.Equal(bv, v) {
				want++
			}
		}
		for k := range bm {
			if _, ok := am[k]; !ok {
				want++
			}
		}
		if len(got) != want {
			t.Fatalf("round %d: %d deltas, want %d", round, len(got), want)
		}
		for _, d := range got {
			av, aok := am[string(d.Key)]
			bv, bok := bm[string(d.Key)]
			if aok != (d.From != nil) || bok != (d.To != nil) {
				t.Fatalf("round %d: delta %q sides wrong (%v/%v)", round, d.Key, aok, bok)
			}
			if aok && !bytes.Equal(av, d.From) || bok && !bytes.Equal(bv, d.To) {
				t.Fatalf("round %d: delta %q values wrong", round, d.Key)
			}
		}
		// Diff is emitted in key order.
		for i := 1; i < len(got); i++ {
			if bytes.Compare(got[i-1].Key, got[i].Key) >= 0 {
				t.Fatalf("round %d: deltas out of order", round)
			}
		}
	}
}

// TestDiffParallelMatchesSerial runs each edge shape as several concurrent
// Diff calls over one shared trie and store, the way a server's concurrent
// requests do, and checks every caller's deltas delta for delta against the
// serial iterator merge, and every caller's stats against each other's.
func TestDiffParallelMatchesSerial(t *testing.T) {
	const callers = 4
	rng := rand.New(rand.NewSource(21))
	st := store.NewMemStore()
	base := buildT(t, st, randEntries(rng, 4000))
	empty := buildT(t, st, nil)
	for _, edits := range []int{1, 60, 1500} {
		other := editT(t, base, rng, edits)
		for _, tc := range []struct {
			name     string
			old, new *Trie
		}{
			{"fwd", base, other},
			{"rev", other, base},
			{"self", base, base},
			{"from-empty", empty, other},
			{"to-empty", other, empty},
		} {
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
					t.Fatalf("%s edits=%d caller %d: %v", tc.name, edits, i, errs[i])
				}
				if !reflect.DeepEqual(got[i], want) || stats[i].Deltas != len(got[i]) {
					t.Fatalf("%s edits=%d caller %d: %d deltas (stats %d), generic diff %d",
						tc.name, edits, i, len(got[i]), stats[i].Deltas, len(want))
				}
				if stats[i] != stats[0] {
					t.Fatalf("%s edits=%d caller %d: stats %+v != %+v",
						tc.name, edits, i, stats[i], stats[0])
				}
			}
		}
	}
}

// editT applies edits random puts and deletes over randEntries' key space.
func editT(t *testing.T, tr *Trie, rng *rand.Rand, edits int) *Trie {
	t.Helper()
	ops := make([]index.Op, 0, edits)
	for i := 0; i < edits; i++ {
		key := make([]byte, rng.Intn(6))
		for j := range key {
			key[j] = byte(rng.Intn(4))
		}
		if rng.Intn(5) == 0 {
			ops = append(ops, index.Del(key))
		} else {
			ops = append(ops, index.Put(key, []byte(fmt.Sprintf("e%d", i))))
		}
	}
	ni, err := tr.Apply(ops)
	if err != nil {
		t.Fatalf("Apply: %v", err)
	}
	return ni.(*Trie)
}

func TestApplyRandomOpsOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	st := store.NewMemStore()
	var tr index.VersionedIndex = New(st)
	model := map[string][]byte{}
	for round := 0; round < 40; round++ {
		var ops []index.Op
		for i := 0; i < 15; i++ {
			e := randEntries(rng, 1)[0]
			if rng.Intn(3) == 0 {
				ops = append(ops, index.Del(e.Key))
			} else {
				ops = append(ops, index.Put(e.Key, e.Val))
			}
		}
		var err error
		tr, err = tr.Apply(ops)
		if err != nil {
			t.Fatalf("Apply: %v", err)
		}
		// Later ops win over earlier ops on the same key.
		for _, op := range ops {
			if op.Delete {
				delete(model, string(op.Key))
			} else {
				model[string(op.Key)] = op.Val
			}
		}
		if tr.Len() != uint64(len(model)) {
			t.Fatalf("round %d: Len=%d model=%d", round, tr.Len(), len(model))
		}
		for k, v := range model {
			got, err := tr.Get([]byte(k))
			if err != nil {
				t.Fatalf("round %d: Get(%x): %v", round, k, err)
			}
			if !bytes.Equal(got, v) {
				t.Fatalf("round %d: Get(%x) = %q want %q", round, k, got, v)
			}
		}
		// Canonical: rebuild from the model must land on the same root.
		ref := buildT(t, store.NewMemStore(), modelEntries(model))
		if ref.Root() != tr.Root() {
			t.Fatalf("round %d: edit root diverged from canonical rebuild", round)
		}
	}
}

func modelEntries(m map[string][]byte) []index.Entry {
	out := make([]index.Entry, 0, len(m))
	for k, v := range m {
		out = append(out, index.Entry{Key: []byte(k), Val: v})
	}
	return out
}

func TestChunkIDsAndChildrenCover(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	st := store.NewMemStore()
	tr := buildT(t, st, randEntries(rng, 300))
	ids, err := tr.ChunkIDs()
	if err != nil {
		t.Fatalf("ChunkIDs: %v", err)
	}
	// Reachability through Children must cover exactly the same set — this is what GC marking and replication pruning rely on.
	seen := map[string]bool{}
	var walk func(idBytes [32]byte) error
	walk = func(id [32]byte) error {
		if seen[string(id[:])] {
			return nil
		}
		seen[string(id[:])] = true
		c, err := st.Get(id)
		if err != nil {
			return err
		}
		kids, err := Children(c)
		if err != nil {
			return err
		}
		for _, k := range kids {
			if err := walk(k); err != nil {
				return err
			}
		}
		return nil
	}
	if err := walk(tr.Root()); err != nil {
		t.Fatalf("walk: %v", err)
	}
	// ChunkIDs (like pos.Tree.ChunkIDs) revisits structurally identical
	// shared subtrees, so compare as sets.
	unique := map[string]bool{}
	for _, id := range ids {
		unique[string(id[:])] = true
		if !seen[string(id[:])] {
			t.Fatalf("chunk %s missing from Children walk", id.Short())
		}
	}
	if len(seen) != len(unique) {
		t.Fatalf("Children walk reached %d chunks, ChunkIDs covers %d", len(seen), len(unique))
	}
}

func TestComputeStats(t *testing.T) {
	st := store.NewMemStore()
	entries := make([]index.Entry, 0, 500)
	for i := 0; i < 500; i++ {
		entries = append(entries, index.Entry{Key: []byte(fmt.Sprintf("k%05d", i)), Val: []byte("v")})
	}
	tr := buildT(t, st, entries)
	stats, err := tr.ComputeStats()
	if err != nil {
		t.Fatalf("ComputeStats: %v", err)
	}
	if stats.Entries != 500 || stats.LeafNodes == 0 || stats.IndexNodes == 0 || stats.Height < 2 {
		t.Fatalf("implausible stats: %+v", stats)
	}
	ids, _ := tr.ChunkIDs()
	if stats.Nodes != len(ids) {
		t.Fatalf("stats.Nodes=%d, ChunkIDs=%d", stats.Nodes, len(ids))
	}
}

func TestLoadRejectsWrongType(t *testing.T) {
	st := store.NewMemStore()
	// A POS-style chunk id is not an MPT node.
	tr := buildT(t, st, []index.Entry{{Key: []byte("a"), Val: []byte("b")}})
	re, err := Load(st, tr.Root())
	if err != nil || re.Len() != 1 {
		t.Fatalf("Load mpt root: %v", err)
	}
}

func TestEmptyTrie(t *testing.T) {
	st := store.NewMemStore()
	tr := New(st)
	if tr.Len() != 0 || !tr.Root().IsZero() {
		t.Fatal("empty trie not empty")
	}
	if _, err := tr.Get([]byte("x")); !errors.Is(err, index.ErrKeyNotFound) {
		t.Fatalf("Get on empty: %v", err)
	}
	it, err := tr.Iterate()
	if err != nil || it.Next() {
		t.Fatalf("empty iterate: %v", err)
	}
	// Deleting everything returns to the zero root.
	one, err := tr.Apply([]index.Op{index.Put([]byte("k"), []byte("v"))})
	if err != nil {
		t.Fatalf("Apply: %v", err)
	}
	back, err := one.Apply([]index.Op{index.Del([]byte("k"))})
	if err != nil {
		t.Fatalf("Apply del: %v", err)
	}
	if !back.Root().IsZero() || back.Len() != 0 {
		t.Fatalf("delete-all root = %s len %d, want zero", back.Root().Short(), back.Len())
	}
}

// TestDecodeRefusesNonCanonicalNodes: a node has one encoding, so a node
// hash names one node.  Each hostile row re-encodes a field of an honest
// leaf in a form the writer never emits.
func TestDecodeRefusesNonCanonicalNodes(t *testing.T) {
	decode := func(enc []byte) error {
		_, err := decodeNode(chunk.New(chunk.Type(enc[0]), enc[1:]))
		return err
	}
	const typ = byte(chunk.TypeMPTNode)
	leaf := encodeNode(nil, kindLeaf, []byte{1, 2, 3}, []byte("v"), true, 0, nil, nil)
	if want := []byte{typ, kindLeaf, 3, 0x12, 0x30, 1, 'v'}; !bytes.Equal(leaf, want) {
		t.Fatalf("honest leaf encodes as %x, want %x", leaf, want)
	}
	if err := decode(leaf); err != nil {
		t.Fatalf("honest leaf %x: %v", leaf, err)
	}
	for name, enc := range map[string][]byte{
		"leaf with a zero-padded path length":  {typ, kindLeaf, 0x83, 0x00, 0x12, 0x30, 1, 'v'},
		"leaf with a zero-padded value length": {typ, kindLeaf, 3, 0x12, 0x30, 0x81, 0x00, 'v'},
		"leaf with a nonzero pad nibble":       {typ, kindLeaf, 3, 0x12, 0x31, 1, 'v'},
	} {
		if err := decode(enc); err == nil {
			t.Errorf("%s: %x accepted", name, enc)
		}
	}
}

// FuzzMPTNode: decodeNode reads bytes a peer or a disk handed over.  No
// input may panic it, and every payload it accepts is the one encoding
// encodeNode writes for the node it decoded, so a node hash names one node.
func FuzzMPTNode(f *testing.F) {
	st := store.NewMemStore()
	if _, err := Build(st, randEntries(rand.New(rand.NewSource(7)), 300)); err != nil {
		f.Fatal(err)
	}
	seen := map[string]bool{} // leaf, ext, branch and branch+value
	for _, id := range st.IDs() {
		c, err := st.Get(id)
		if err != nil {
			f.Fatal(err)
		}
		n, err := decodeNode(c)
		if err != nil {
			f.Fatal(err)
		}
		form := fmt.Sprint(n.kind, n.kind == kindBranch && n.hasVal)
		if seen[form] {
			continue
		}
		seen[form] = true
		for _, cut := range []int{len(c.Data()), len(c.Data()) - 1, len(c.Data()) / 2, 1} {
			f.Add(c.Data()[:cut])
		}
	}
	if len(seen) != 4 {
		f.Fatalf("seeds cover %d node forms, want 4", len(seen))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		n, err := decodeNode(chunk.New(chunk.TypeMPTNode, data))
		if err != nil {
			return
		}
		ids, counts := n.childIDs, n.childCounts
		if n.kind == kindExt {
			ids[0], counts[0] = n.childID, n.childCount
		}
		enc := encodeNode(nil, n.kind, n.path, n.val, n.hasVal, n.childMask, &ids, &counts)
		if !bytes.Equal(enc[1:], data) {
			t.Fatalf("%x decodes to a node that encodes as %x", data, enc[1:])
		}
	})
}
