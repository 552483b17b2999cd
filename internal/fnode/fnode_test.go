package fnode

import (
	"bytes"
	"encoding/hex"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"forkbase/internal/chunk"
	"forkbase/internal/chunker"
	"forkbase/internal/hash"
	"forkbase/internal/index"
	"forkbase/internal/store"
	"forkbase/internal/value"
)

func TestEncodeDecodeRoundTrip(t *testing.T) {
	f := New([]byte("mykey"), value.String("payload"),
		[]hash.Hash{hash.Of([]byte("p1")), hash.Of([]byte("p2"))}, 7,
		map[string]string{"author": "alice", "msg": "hello"})
	dec, err := Decode(f.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dec.Key, f.Key) || dec.Seq != 7 || len(dec.Bases) != 2 {
		t.Fatalf("decoded = %+v", dec)
	}
	if dec.Meta["author"] != "alice" || dec.Meta["msg"] != "hello" {
		t.Fatalf("meta = %v", dec.Meta)
	}
	s, _ := dec.Value.AsString()
	if s != "payload" {
		t.Fatalf("value = %q", s)
	}
}

func TestUIDDeterministic(t *testing.T) {
	mk := func() *FNode {
		return New([]byte("k"), value.Int(1), nil, 1, map[string]string{"b": "2", "a": "1"})
	}
	if mk().UID() != mk().UID() {
		t.Fatal("uid not deterministic")
	}
	// Different meta → different uid.
	other := New([]byte("k"), value.Int(1), nil, 1, map[string]string{"a": "1", "b": "3"})
	if other.UID() == mk().UID() {
		t.Fatal("meta change did not change uid")
	}
	// Different bases → different uid (history is part of identity).
	withBase := New([]byte("k"), value.Int(1), []hash.Hash{hash.Of([]byte("x"))}, 1, map[string]string{"a": "1", "b": "2"})
	if withBase.UID() == mk().UID() {
		t.Fatal("base change did not change uid")
	}
}

func TestSaveLoad(t *testing.T) {
	st := store.NewMemStore()
	f := New([]byte("obj"), value.String("v1"), nil, 1, nil)
	uid, err := f.Save(st)
	if err != nil {
		t.Fatal(err)
	}
	if uid != f.UID() {
		t.Fatal("Save uid != UID()")
	}
	got, err := Load(st, uid)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Key, []byte("obj")) {
		t.Fatalf("key = %q", got.Key)
	}
}

func TestLoadRejectsNonFNode(t *testing.T) {
	st := store.NewMemStore()
	v, err := value.NewBlob(st, cfgSmall(), []byte("not a version"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Load(st, v.Root()); err == nil {
		t.Fatal("loaded a blob chunk as FNode")
	}
}

func TestDecodeErrors(t *testing.T) {
	good := New([]byte("k"), value.Int(1), []hash.Hash{hash.Of([]byte("p"))}, 2, map[string]string{"a": "b"}).Encode()
	for cut := 0; cut < len(good); cut += 3 {
		if _, err := Decode(good[:cut]); err == nil && cut < len(good) {
			t.Fatalf("truncation at %d decoded successfully", cut)
		}
	}
	// Trailing garbage.
	if _, err := Decode(append(append([]byte{}, good...), 0xFF)); err == nil {
		t.Fatal("trailing bytes accepted")
	}
}

// History walks the first-parent chain from uid, returning up to limit uids
// (most recent first).  limit <= 0 walks the full chain.
func History(st store.Store, uid hash.Hash, limit int) ([]hash.Hash, error) {
	uids, _, err := HistoryNodes(st, uid, limit)
	return uids, err
}

func TestHistoryChain(t *testing.T) {
	st := store.NewMemStore()
	var uids []hash.Hash
	var prev []hash.Hash
	for i := 1; i <= 5; i++ {
		f := New([]byte("k"), value.Int(int64(i)), prev, uint64(i), nil)
		uid, err := f.Save(st)
		if err != nil {
			t.Fatal(err)
		}
		uids = append(uids, uid)
		prev = []hash.Hash{uid}
	}
	hist, err := History(st, uids[4], 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(hist) != 5 {
		t.Fatalf("history len %d", len(hist))
	}
	for i := range hist {
		if hist[i] != uids[4-i] {
			t.Fatalf("history[%d] = %s", i, hist[i].Short())
		}
	}
	limited, err := History(st, uids[4], 2)
	if err != nil || len(limited) != 2 {
		t.Fatalf("limited history = %d, %v", len(limited), err)
	}
}

func TestLCA(t *testing.T) {
	st := store.NewMemStore()
	save := func(seq uint64, val int64, bases ...hash.Hash) hash.Hash {
		f := New([]byte("k"), value.Int(val), bases, seq, nil)
		uid, err := f.Save(st)
		if err != nil {
			t.Fatal(err)
		}
		return uid
	}
	root := save(1, 0)
	base := save(2, 1, root)
	a1 := save(3, 2, base)
	a2 := save(4, 3, a1)
	b1 := save(3, 4, base)

	anc, err := MergeBase(st, a2, b1)
	if err != nil {
		t.Fatal(err)
	}
	if anc.Base != base || anc.BaseNode.UID() != base {
		t.Fatalf("LCA = %s, want %s", anc.Base.Short(), base.Short())
	}
	if anc.A.UID() != a2 || anc.B.UID() != b1 {
		t.Fatal("walk returned the wrong FNodes for its two versions")
	}
	// a2, a1, b1, base: the walk stops at the base, before the root.
	if anc.Loaded != 4 {
		t.Fatalf("loaded %d FNodes, want 4", anc.Loaded)
	}
	// LCA with self is self.
	anc, err = MergeBase(st, a1, a1)
	if err != nil || anc.Base != a1 || anc.Loaded != 1 {
		t.Fatalf("LCA(self) = %s (%d loaded), %v", anc.Base.Short(), anc.Loaded, err)
	}
	// LCA where one is ancestor of the other.
	anc, err = MergeBase(st, base, a2)
	if err != nil || anc.Base != base {
		t.Fatalf("LCA(anc) = %s, %v", anc.Base.Short(), err)
	}
	// Unrelated histories → zero.
	solo := save(1, 99)
	anc, err = MergeBase(st, solo, a2)
	if err != nil || !anc.Base.IsZero() || anc.BaseNode != nil {
		t.Fatalf("unrelated LCA = %s, %v", anc.Base.Short(), err)
	}
}

func TestIsAncestor(t *testing.T) {
	st := store.NewMemStore()
	f1 := New([]byte("k"), value.Int(1), nil, 1, nil)
	u1, _ := f1.Save(st)
	f2 := New([]byte("k"), value.Int(2), []hash.Hash{u1}, 2, nil)
	u2, _ := f2.Save(st)

	isAncestor := func(anc, uid hash.Hash) (bool, error) {
		a, err := MergeBase(st, anc, uid)
		return err == nil && a.Base == anc, err
	}
	if ok, err := isAncestor(u1, u2); err != nil || !ok {
		t.Fatalf("ancestor: %v %v", ok, err)
	}
	if ok, err := isAncestor(u2, u1); err != nil || ok {
		t.Fatalf("descendant flagged as ancestor: %v %v", ok, err)
	}
	if ok, err := isAncestor(u2, u2); err != nil || !ok {
		t.Fatalf("self not ancestor: %v %v", ok, err)
	}
	if ok, _ := isAncestor(hash.Hash{}, u2); ok {
		t.Fatal("zero hash is ancestor")
	}
}

// TestMergeBaseRejectsSeqDisorder: a version whose Seq is not above its
// base's breaks the order the walk relies on, and the walk says so rather
// than returning whatever base that order happens to produce.
func TestMergeBaseRejectsSeqDisorder(t *testing.T) {
	st := store.NewMemStore()
	save := func(seq uint64, val int64, bases ...hash.Hash) hash.Hash {
		uid, err := New([]byte("k"), value.Int(val), bases, seq, nil).Save(st)
		if err != nil {
			t.Fatal(err)
		}
		return uid
	}
	root := save(1, 0)
	mid := save(2, 1, root)
	for _, seq := range []uint64{2, 1} { // equal to, then below, its base's
		forged := save(seq, 10+int64(seq), mid)
		other := save(3, 20+int64(seq), mid)
		if _, err := MergeBase(st, forged, other); !errors.Is(err, ErrSeqOrder) {
			t.Fatalf("child Seq %d over a base of Seq 2: err = %v", seq, err)
		}
	}
}

// getCounter counts store reads per id.
type getCounter struct {
	store.Store
	gets map[hash.Hash]int
}

func (g *getCounter) Get(id hash.Hash) (*chunk.Chunk, error) {
	g.gets[id]++
	return g.Store.Get(id)
}

// randomDAG builds a seeded version graph: a few unrelated roots, then
// commits of one base and merges of two, with each merge's bases drawn from
// the newest versions so criss-crosses (two merges of the same pair of
// bases, the same Seq, two equally good merge bases) come up often.  It
// returns the uids in creation order.
func randomDAG(t *testing.T, st store.Store, rng *rand.Rand) []hash.Hash {
	t.Helper()
	var uids []hash.Hash
	seqs := map[hash.Hash]uint64{}
	save := func(bases ...hash.Hash) {
		seq := uint64(1)
		for _, b := range bases {
			seq = max(seq, seqs[b]+1)
		}
		uid, err := New([]byte("k"), value.Int(int64(len(uids))), bases, seq, nil).Save(st)
		if err != nil {
			t.Fatal(err)
		}
		seqs[uid] = seq
		uids = append(uids, uid)
	}
	for r := 1 + rng.Intn(2); r > 0; r-- {
		save()
	}
	pick := func() hash.Hash { return uids[len(uids)-1-rng.Intn(min(len(uids), 6))] }
	for n := 10 + rng.Intn(30); n > 0; n-- {
		switch x, y := pick(), pick(); {
		case rng.Intn(10) == 0:
			save()
		case x != y && rng.Intn(3) == 0:
			save(x, y)
			if rng.Intn(2) == 0 {
				save(y, x) // the criss-cross twin
			}
		default:
			save(x)
		}
	}
	return uids
}

// TestMergeBaseMatchesOracle holds the Seq-ordered walk to the exhaustive
// walks it replaced (LCA and IsAncestor, kept below as the oracle) on seeded
// random DAGs: unrelated roots, criss-cross merges, a == b, and a an
// ancestor of b in both directions.  The walk must also load each FNode at
// most once and count exactly the loads it made.
func TestMergeBaseMatchesOracle(t *testing.T) {
	for seed := int64(1); seed <= 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		st := &getCounter{Store: store.NewMemStore(), gets: map[hash.Hash]int{}}
		uids := randomDAG(t, st, rng)
		for q := 0; q < 20; q++ {
			a, b := uids[rng.Intn(len(uids))], uids[rng.Intn(len(uids))]
			if q == 0 {
				b = a
			}
			want, err := LCA(st, a, b)
			if err != nil {
				t.Fatal(err)
			}
			ab, err1 := IsAncestor(st, a, b)
			ba, err2 := IsAncestor(st, b, a)
			if err := errors.Join(err1, err2); err != nil {
				t.Fatal(err)
			}
			clear(st.gets)
			got, err := MergeBase(st, a, b)
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			if got.Base != want {
				t.Fatalf("seed %d: MergeBase(%s, %s) = %s, oracle LCA %s", seed, a.Short(), b.Short(), got.Base.Short(), want.Short())
			}
			if (got.Base == a) != ab || (got.Base == b) != ba {
				t.Fatalf("seed %d: base %s disagrees with IsAncestor (a≤b %v, b≤a %v)", seed, got.Base.Short(), ab, ba)
			}
			if got.A.UID() != a || got.B.UID() != b || (!want.IsZero() && got.BaseNode.UID() != want) {
				t.Fatalf("seed %d: returned FNodes do not match their uids", seed)
			}
			if len(st.gets) != got.Loaded {
				t.Fatalf("seed %d: Loaded = %d, store saw %d distinct reads", seed, got.Loaded, len(st.gets))
			}
			for id, n := range st.gets {
				if n != 1 {
					t.Fatalf("seed %d: %s read %d times", seed, id.Short(), n)
				}
			}
		}
	}
}

// The exhaustive ancestry walks MergeBase replaced, kept verbatim as the
// oracle TestMergeBaseMatchesOracle holds it to.

// LCA returns the lowest common ancestor of two versions in the derivation
// DAG (the merge base), or the zero hash if the histories are unrelated.
// Ties are broken deterministically by preferring the ancestor with the
// highest Seq, then the smaller uid.
func LCA(st store.Store, a, b hash.Hash) (hash.Hash, error) {
	ancestorsA, err := allAncestors(st, a)
	if err != nil {
		return hash.Hash{}, err
	}
	// BFS from b; the first node found in ancestorsA with maximal Seq wins.
	type cand struct {
		uid hash.Hash
		seq uint64
	}
	var best *cand
	seen := map[hash.Hash]bool{}
	queue := []hash.Hash{b}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		if seen[cur] || cur.IsZero() {
			continue
		}
		seen[cur] = true
		f, err := Load(st, cur)
		if err != nil {
			return hash.Hash{}, err
		}
		if ancestorsA[cur] {
			if best == nil || f.Seq > best.seq || (f.Seq == best.seq && cur.Compare(best.uid) < 0) {
				best = &cand{uid: cur, seq: f.Seq}
			}
			continue // ancestors of a common ancestor cannot be lower
		}
		queue = append(queue, f.Bases...)
	}
	if best == nil {
		return hash.Hash{}, nil
	}
	return best.uid, nil
}

func allAncestors(st store.Store, uid hash.Hash) (map[hash.Hash]bool, error) {
	out := map[hash.Hash]bool{}
	queue := []hash.Hash{uid}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		if cur.IsZero() || out[cur] {
			continue
		}
		out[cur] = true
		f, err := Load(st, cur)
		if err != nil {
			return nil, err
		}
		queue = append(queue, f.Bases...)
	}
	return out, nil
}

// IsAncestor reports whether anc is reachable from uid (inclusive).
func IsAncestor(st store.Store, anc, uid hash.Hash) (bool, error) {
	if anc.IsZero() {
		return false, nil
	}
	seen := map[hash.Hash]bool{}
	queue := []hash.Hash{uid}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		if cur.IsZero() || seen[cur] {
			continue
		}
		if cur == anc {
			return true, nil
		}
		seen[cur] = true
		f, err := Load(st, cur)
		if err != nil {
			return false, err
		}
		queue = append(queue, f.Bases...)
	}
	return false, nil
}

func cfgSmall() chunker.Config { return chunker.SmallConfig() }

func TestSaveAllMatchesSave(t *testing.T) {
	ms := store.NewMemStore()
	var fs []*FNode
	var want []hash.Hash
	prev := hash.Hash{}
	for i := 0; i < 20; i++ {
		var bases []hash.Hash
		if !prev.IsZero() {
			bases = []hash.Hash{prev}
		}
		f := New([]byte("k"), value.String(fmt.Sprintf("v%d", i)), bases, uint64(i+1), nil)
		fs = append(fs, f)
		want = append(want, f.UID())
		prev = f.UID()
	}
	uids, err := SaveAll(ms, fs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range uids {
		if uids[i] != want[i] {
			t.Fatalf("uid %d mismatch", i)
		}
		got, err := Load(ms, uids[i])
		if err != nil {
			t.Fatalf("fnode %d not loadable after batch save: %v", i, err)
		}
		if got.Seq != uint64(i+1) {
			t.Fatalf("fnode %d seq = %d", i, got.Seq)
		}
	}
}

func TestHistoryNodesParallelsHistory(t *testing.T) {
	ms := store.NewMemStore()
	prev := hash.Hash{}
	for i := 0; i < 6; i++ {
		var bases []hash.Hash
		if !prev.IsZero() {
			bases = []hash.Hash{prev}
		}
		f := New([]byte("k"), value.Int(int64(i)), bases, uint64(i+1), nil)
		uid, err := f.Save(ms)
		if err != nil {
			t.Fatal(err)
		}
		prev = uid
	}
	uids, err := History(ms, prev, 0)
	if err != nil {
		t.Fatal(err)
	}
	uids2, nodes, err := HistoryNodes(ms, prev, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(uids) != 6 || len(uids2) != 6 || len(nodes) != 6 {
		t.Fatalf("lengths: %d %d %d", len(uids), len(uids2), len(nodes))
	}
	for i := range uids {
		if uids[i] != uids2[i] {
			t.Fatalf("uid %d differs", i)
		}
		if nodes[i].UID() != uids[i] {
			t.Fatalf("node %d does not match its uid", i)
		}
	}
	// Limit applies to both.
	uids3, nodes3, err := HistoryNodes(ms, prev, 2)
	if err != nil || len(uids3) != 2 || len(nodes3) != 2 {
		t.Fatalf("limited walk: %d %d %v", len(uids3), len(nodes3), err)
	}
}

// TestIndexKindEncoding pins the compatibility contract of the index-kind
// field: a POS-backed FNode (the default) encodes *without* any kind byte —
// byte-identical to FNodes written before the index layer existed, so old
// DBs reopen with identical uids — while non-default kinds append exactly
// one self-describing byte.
func TestIndexKindEncoding(t *testing.T) {
	// Only a map or set carries the kind byte: build the version over an
	// empty map of each structure.  The bytes are pinned: no uid moves.
	st := store.NewMemStore()
	mk := func(k index.Kind) *FNode {
		v, err := value.NewMapWith(st, chunker.SmallConfig(), k, nil)
		if err != nil {
			t.Fatal(err)
		}
		return New([]byte("k"), v, []hash.Hash{hash.Of([]byte("p"))}, 2, map[string]string{"a": "b"})
	}
	f, mptF := mk(index.KindPOS), mk(index.KindMPT)
	const legacyHex = "016b0201148de9c5a7a44d19e56cd9ae1a554bf67847afb0c58f6e12fa29ac7ddfca994022060000000000000000000000000000000000000000000000000000000000000000000101610162"
	legacy, tagged := f.Encode(), mptF.Encode()
	if got := hex.EncodeToString(legacy); got != legacyHex {
		t.Fatalf("POS encoding %s, want %s", got, legacyHex)
	}
	if got := hex.EncodeToString(tagged); got != legacyHex+"01" {
		t.Fatalf("MPT encoding %s, want the POS bytes and kind byte 01", got)
	}
	if len(tagged) != len(legacy)+1 || tagged[len(tagged)-1] != byte(index.KindMPT) {
		t.Fatalf("MPT encoding should be legacy + 1 kind byte (len %d vs %d)", len(tagged), len(legacy))
	}
	if !bytes.Equal(tagged[:len(legacy)], legacy) {
		t.Fatal("kind byte changed the shared prefix")
	}

	// Legacy bytes decode as POS-backed; tagged bytes round-trip the kind.
	dec, err := Decode(legacy)
	if err != nil {
		t.Fatal(err)
	}
	if dec.Value.IndexKind() != index.KindPOS {
		t.Fatalf("legacy decode Index = %v", dec.Value.IndexKind())
	}
	dec2, err := Decode(tagged)
	if err != nil {
		t.Fatal(err)
	}
	if dec2.Value.IndexKind() != index.KindMPT {
		t.Fatalf("tagged decode Index = %v", dec2.Value.IndexKind())
	}
	// uids differ between kinds (the kind is part of identity)…
	if f.UID() == mptF.UID() {
		t.Fatal("kind byte does not affect the uid")
	}
	// …and a redundant explicit POS byte is rejected, keeping encodings
	// canonical (one record set + history → one uid).
	if _, err := Decode(append(append([]byte{}, legacy...), 0)); err == nil {
		t.Fatal("redundant POS kind byte accepted")
	}
	// No writer puts a kind byte on a value that is not a map or set.
	prim := New([]byte("k"), value.Int(7), nil, 1, nil).Encode()
	if _, err := Decode(append(prim, byte(index.KindMPT))); err == nil {
		t.Fatal("kind byte on an int value accepted")
	}
}
