package pos

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"forkbase/internal/chunk"
	"forkbase/internal/chunker"
	"forkbase/internal/hash"
	"forkbase/internal/store"
)

// leafLayout returns the entries of every leaf of tr, grouped by the level-1
// index node holding the leaf (one group for a single-leaf tree).
func leafLayout(tr *Tree) ([][][]Entry, error) {
	var out [][][]Entry
	var walk func(id hash.Hash) error
	walk = func(id hash.Hash) error {
		n, err := tr.src.Load(id)
		if err != nil {
			return err
		}
		if n.isLeaf() {
			out = append(out, [][]Entry{leafEntries(n)})
			return nil
		}
		if n.level > 1 {
			for i := 0; i < n.len(); i++ {
				if err := walk(n.ref(i).id); err != nil {
					return err
				}
			}
			return nil
		}
		var group [][]Entry
		for i := 0; i < n.len(); i++ {
			leaf, err := tr.src.Load(n.ref(i).id)
			if err != nil {
				return err
			}
			group = append(group, leafEntries(leaf))
		}
		out = append(out, group)
		return nil
	}
	return out, walk(tr.root)
}

type editShape struct {
	name string
	ops  []Op
}

// adversarialShapes derives, from the physical layout of a tree, the op
// batches that stress the multi-splice editor: where splices start, where
// their re-synchronisation tails end or run into each other, and the
// batches that empty nodes, collapse the height or grow it.
func adversarialShapes(layout [][][]Entry) []editShape {
	var leaves [][]Entry
	for _, g := range layout {
		leaves = append(leaves, g...)
	}
	upd := func(e Entry) Op { return Put(e.Key, append([]byte("edited-"), e.Val...)) }
	delAll := func(ls ...[]Entry) []Op {
		var ops []Op
		for _, l := range ls {
			for _, e := range l {
				ops = append(ops, Del(e.Key))
			}
		}
		return ops
	}
	first, last := leaves[0][0], leaves[len(leaves)-1]
	mid := len(leaves) / 2
	midGroup := layout[len(layout)/2]

	var onePerLeaf, dense, adjacent, tails []Op
	for i, l := range leaves {
		onePerLeaf = append(onePerLeaf, upd(l[len(l)/2]))
		for j := 0; j < len(l); j += 2 {
			dense = append(dense, upd(l[j]))
		}
		// Every third leaf loses its boundary entry, so its splice runs on
		// into the next leaf — which carries an op of its own — and the one
		// after that is the first place the tail can re-synchronise.
		switch i % 3 {
		case 0:
			adjacent = append(adjacent, Del(l[len(l)-1].Key))
			tails = append(tails, Del(l[len(l)-1].Key))
		case 1:
			adjacent = append(adjacent, upd(l[0]))
		}
	}
	var grow []Op
	for i := 0; i < 40*len(leaves); i++ {
		grow = append(grow, Put([]byte(fmt.Sprintf("%s+%06d", leaves[mid][0].Key, i)), []byte(fmt.Sprintf("grown-%d", i))))
	}
	shapes := []editShape{
		{"one op per leaf", onePerLeaf},
		{"adjacent leaves, overlapping tails", adjacent},
		{"boundary entries deleted", tails},
		{"first and last key", []Op{upd(first), upd(last[len(last)-1])}},
		{"insert before first and after last", []Op{
			Put([]byte{0}, []byte("front")),
			Put(append(append([]byte(nil), last[len(last)-1].Key...), 0xff), []byte("back")),
		}},
		{"delete first and last key", []Op{Del(first.Key), Del(last[len(last)-1].Key)}},
		{"empty a middle leaf", delAll(leaves[mid])},
		{"empty the first and the last leaf", delAll(leaves[0], last)},
		{"empty an index node", delAll(midGroup...)},
		{"empty the first index node", delAll(layout[0]...)},
		{"empty the last index node", delAll(layout[len(layout)-1]...)},
		{"empty the tree", delAll(leaves...)},
		{"collapse to one leaf", delAll(append(append([][]Entry{}, leaves[:mid]...), leaves[mid+1:]...)...)},
		{"collapse to one entry", delAll(leaves...)[1:]},
		{"collapse to the two outer leaves", delAll(leaves[1 : len(leaves)-1]...)},
		{"collapse to one index node", func() []Op {
			var ops []Op
			for i, g := range layout {
				if i != len(layout)/2 {
					ops = append(ops, delAll(g...)...)
				}
			}
			return ops
		}()},
		{"grow the height", grow},
		{"dense batch over every leaf", dense},
	}
	return shapes
}

// checkEditEquivalence is the safety net of the incremental editor, run on
// one (tree, batch) input: Edit ≡ EditRebuild ≡ a fresh build of the edited
// record set, and Edit stores no chunk that its result does not reference.
// st must be the MemStore under tree and base the tree's sorted entries.
func checkEditEquivalence(st *store.MemStore, tree *Tree, base []Entry, ops []Op) error {
	before := map[hash.Hash]bool{}
	for _, id := range st.IDs() {
		before[id] = true
	}
	inc, err := tree.Edit(ops)
	if err != nil {
		return fmt.Errorf("Edit: %w", err)
	}
	ids, err := inc.ChunkIDs()
	if err != nil {
		return fmt.Errorf("ChunkIDs: %w", err)
	}
	for _, id := range ids {
		before[id] = true
	}
	for _, id := range st.IDs() {
		if !before[id] {
			c, _ := st.Get(id)
			return fmt.Errorf("Edit left orphan chunk %s (%s, %d B)", id.Short(), c.Type(), c.Size())
		}
	}

	reb, err := tree.EditRebuild(ops)
	if err != nil {
		return fmt.Errorf("EditRebuild: %w", err)
	}
	if inc.Root() != reb.Root() || inc.Len() != reb.Len() {
		return fmt.Errorf("incremental root %s len %d != rebuild root %s len %d",
			inc.Root().Short(), inc.Len(), reb.Root().Short(), reb.Len())
	}

	var want []Entry // base merged with the normalized ops
	norm := lastPerKey(ops, opKey)
	for _, e := range base {
		for ; len(norm) > 0 && bytes.Compare(norm[0].Key, e.Key) < 0; norm = norm[1:] {
			if !norm[0].Delete {
				want = append(want, Entry{Key: norm[0].Key, Val: norm[0].Val})
			}
		}
		if len(norm) > 0 && bytes.Equal(norm[0].Key, e.Key) {
			e.Val = norm[0].Val
			if norm[0].Delete {
				e.Key = nil
			}
			norm = norm[1:]
		}
		if e.Key != nil {
			want = append(want, e)
		}
	}
	for _, o := range norm {
		if !o.Delete {
			want = append(want, Entry{Key: o.Key, Val: o.Val})
		}
	}
	fresh, err := BuildMap(store.NewMemStore(), tree.cfg, want)
	if err != nil {
		return fmt.Errorf("BuildMap: %w", err)
	}
	if fresh.Root() != inc.Root() || fresh.Len() != inc.Len() {
		return fmt.Errorf("incremental root %s len %d != fresh root %s len %d",
			inc.Root().Short(), inc.Len(), fresh.Root().Short(), fresh.Len())
	}
	return nil
}

// shapeConfigs are the chunkings the adversarial shapes run under: the tiny
// test pages, and the default geometry (window, page bounds) at 1 KiB pages.
// The tables are sized so that every tree has at least four levels — a
// matter of where the second index level happens to split, hence the odd
// row count.
func shapeConfigs() []struct {
	name string
	cfg  chunker.Config
	rows int
} {
	return []struct {
		name string
		cfg  chunker.Config
		rows int
	}{
		{"test/rolling", testCfg(), 800},
		// Q 10 reaches four levels at a sixteenth of the rows Q 12 needs.
		{"default/rolling", func() chunker.Config { c := chunker.DefaultConfig(); c.Q = 10; return c }(), 6007},
	}
}

// genRows returns n sorted 96-byte rows — a 14-byte key and an 82-byte
// random text value, the row shape of the benchmark tables.
func genRows(n int) []Entry {
	rng := rand.New(rand.NewSource(int64(n)))
	entries := make([]Entry, n)
	for i := range entries {
		val := make([]byte, 82)
		for j := range val {
			val[j] = "abcdefghijklmnopqrstuvwxyz012345"[rng.Intn(32)]
		}
		entries[i] = Entry{Key: rowKey(i), Val: val}
	}
	return entries
}

func rowKey(i int) []byte { return []byte(fmt.Sprintf("key-%010d", i)) }

func testEditShapes(t *testing.T) {
	for _, sc := range shapeConfigs() {
		sc := sc
		t.Run(sc.name, func(t *testing.T) {
			if sc.rows > 10000 && testing.Short() {
				t.Skip("large table")
			}
			st := store.NewMemStore()
			base := genRows(sc.rows)
			tree, err := BuildMap(st, sc.cfg, base)
			if err != nil {
				t.Fatal(err)
			}
			stats, err := tree.ComputeStats()
			if err != nil {
				t.Fatal(err)
			}
			if stats.Height < 4 {
				t.Fatalf("height %d: the shapes need a tree of at least 4 levels", stats.Height)
			}
			layout, err := leafLayout(tree)
			if err != nil {
				t.Fatal(err)
			}
			shapes := adversarialShapes(layout)
			for _, sh := range shapes {
				if err := checkEditEquivalence(st, tree, base, sh.ops); err != nil {
					t.Errorf("%s (%d ops): %v", sh.name, len(sh.ops), err)
				}
			}
			t.Logf("%d shapes over a %d-level tree of %d rows, %d leaves", len(shapes), stats.Height, sc.rows, stats.LeafNodes)
		})
	}
}

// TestEditNoOpBatchWritesNothing: puts of unchanged values and deletes of
// absent keys scattered over many leaves return the very same tree and
// leave the store untouched.
func TestEditNoOpBatchWritesNothing(t *testing.T) {
	st := store.NewMemStore()
	entries := genEntries(3000, 9)
	tree := mustBuild(t, st, entries)
	var ops []Op
	for i := 0; i < len(entries); i += 37 {
		ops = append(ops, Put(entries[i].Key, entries[i].Val), Del(append(append([]byte(nil), entries[i].Key...), '!')))
	}
	ops = append(ops, Del([]byte{0}), Del([]byte("zzz")))
	before := st.Stats()
	got, err := tree.Edit(ops)
	if err != nil {
		t.Fatal(err)
	}
	if got != tree {
		t.Fatalf("no-op batch returned a new tree (root %s, was %s)", got.Root().Short(), tree.Root().Short())
	}
	if after := st.Stats(); after.UniqueChunks != before.UniqueChunks || after.PhysicalBytes != before.PhysicalBytes {
		t.Fatalf("no-op batch wrote: %v -> %v", before, after)
	}

	// One real change among the no-ops is still applied, and only its own
	// root-to-leaf path is rewritten.
	ops = append(ops, Put(entries[1500].Key, []byte("changed")))
	stats, err := tree.ComputeStats()
	if err != nil {
		t.Fatal(err)
	}
	got, err = tree.Edit(ops)
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := got.Get(entries[1500].Key); string(v) != "changed" {
		t.Fatalf("change among no-ops lost: %q", v)
	}
	if wrote := st.Stats().UniqueChunks - before.UniqueChunks; wrote > int64(stats.Height)*4 {
		t.Fatalf("one change among %d no-ops wrote %d chunks (height %d)", len(ops)-1, wrote, stats.Height)
	}
}

// getLog records the id of every chunk fetched through it.
type getLog struct {
	store.Store
	ids []hash.Hash
}

func (g *getLog) Get(id hash.Hash) (*chunk.Chunk, error) {
	g.ids = append(g.ids, id)
	return g.Store.Get(id)
}

func (g *getLog) Unwrap() store.Store { return g.Store }

// TestEditReadBound pins "commit cost proportional to the edit" on the read
// side, without a node cache: 8 ops scattered over a 100k-row table fetch
// under 5 % of its nodes, and no leaf that survives into the result.
func TestEditReadBound(t *testing.T) {
	if testing.Short() {
		t.Skip("large table")
	}
	mem := store.NewMemStore()
	log := &getLog{Store: mem}
	const rows = 100003
	tree, err := BuildMap(log, chunker.DefaultConfig(), genRows(rows))
	if err != nil {
		t.Fatal(err)
	}
	stats, err := tree.ComputeStats()
	if err != nil {
		t.Fatal(err)
	}
	var ops []Op
	for j := 0; j < 8; j++ {
		ops = append(ops, Put(rowKey(777+j*rows/8), []byte("scattered")))
	}
	log.ids = nil
	edited, err := tree.Edit(ops)
	if err != nil {
		t.Fatal(err)
	}
	fetched := log.ids
	if len(fetched)*20 >= stats.Nodes {
		t.Fatalf("8 scattered ops fetched %d of %d nodes (>= 5 %%)", len(fetched), stats.Nodes)
	}
	kept := map[hash.Hash]bool{}
	ids, err := edited.ChunkIDs()
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range ids {
		kept[id] = true
	}
	for _, id := range fetched {
		c, err := mem.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		if c.Type() == chunk.TypeMapLeaf && kept[id] {
			t.Fatalf("Edit read leaf %s, which lies outside every splice", id.Short())
		}
	}
	t.Logf("8 scattered ops: %d of %d nodes fetched (height %d)", len(fetched), stats.Nodes, stats.Height)
}

// TestAppendReadBound: appending to a list or a blob of >= 1000 leaves reads
// one root-to-leaf path, not the value.
func TestAppendReadBound(t *testing.T) {
	cfg := chunker.SmallConfig()
	height := func(st store.Store, root hash.Hash) int {
		n, err := sourceFor(st).Load(root)
		if err != nil {
			t.Fatal(err)
		}
		return int(n.level) + 1
	}
	leaves := func(st store.Store, ids []hash.Hash, typ chunk.Type) (n int) {
		for _, id := range ids {
			if c, err := st.Get(id); err != nil {
				t.Fatal(err)
			} else if c.Type() == typ {
				n++
			}
		}
		return n
	}
	check := func(name string, st *store.MemStore, root hash.Hash, nLeaves int, appendOne func() error) {
		if nLeaves < 1000 {
			t.Fatalf("%s: only %d leaves", name, nLeaves)
		}
		h := height(st, root)
		gets := st.Stats().Gets
		if err := appendOne(); err != nil {
			t.Fatal(err)
		}
		if n := st.Stats().Gets - gets; n > int64(2*h+2) {
			t.Fatalf("%s: appending to %d leaves (height %d) fetched %d nodes, want <= %d", name, nLeaves, h, n, 2*h+2)
		}
	}

	st := store.NewMemStore()
	seq, err := BuildSeq(st, cfg, genItems(40000, 3))
	if err != nil {
		t.Fatal(err)
	}
	ids, err := seq.ChunkIDs()
	if err != nil {
		t.Fatal(err)
	}
	check("seq", st, seq.Root(), leaves(st, ids, chunk.TypeSeqLeaf), func() error {
		got, err := seq.Append([]byte("one more"))
		if err == nil && got.Len() != seq.Len()+1 {
			err = fmt.Errorf("len %d after append to %d", got.Len(), seq.Len())
		}
		return err
	})

	data := make([]byte, 512<<10)
	for i := range data {
		data[i] = byte(i*7 + i>>8*13 + i>>16)
	}
	blob, err := BuildBlob(st, cfg, data)
	if err != nil {
		t.Fatal(err)
	}
	if ids, err = blob.ChunkIDs(); err != nil {
		t.Fatal(err)
	}
	check("blob", st, blob.Root(), leaves(st, ids, chunk.TypeBlobLeaf), func() error {
		got, err := blob.Splice(blob.Size(), 0, []byte{'!'})
		if err == nil && got.Size() != blob.Size()+1 {
			err = fmt.Errorf("size %d after append to %d", got.Size(), blob.Size())
		}
		return err
	})
}
