package pos

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"forkbase/internal/chunk"
	"forkbase/internal/chunker"
	"forkbase/internal/hash"
	"forkbase/internal/rolling"
	"forkbase/internal/store"
)

// The tests in this file pin what an edit rewrites under the two-region cut:
// nodes are drawn into an edit in proportion to their size, so the bytes an
// edit writes follow the size-biased mean node size E[s²]/E[s], not the mean.

// rewriteRows are the table shape of the embedded benchmark workloads: 16-byte
// keys and 96-byte random values.
const rewriteRows, rewriteVal = 40000, 96

func rewriteKey(i int) []byte { return []byte(fmt.Sprintf("row%013d", i)) }

func rewriteValue(rng *rand.Rand) []byte {
	v := make([]byte, rewriteVal)
	rng.Read(v)
	return v
}

// rewriteTable returns the seeded rows of the benchmark table shape.
func rewriteTable(rng *rand.Rand) []Entry {
	rows := make([]Entry, rewriteRows)
	for i := range rows {
		rows[i] = Entry{Key: rewriteKey(i), Val: rewriteValue(rng)}
	}
	return rows
}

// rewriteOps returns 8 overwrites of distinct rows inside one window of rows
// at a random place, or anywhere when window is 0.
func rewriteOps(rng *rand.Rand, window int) []Op {
	lo, span := 0, rewriteRows
	if window > 0 {
		lo, span = rng.Intn(rewriteRows-window), window
	}
	seen := map[int]bool{}
	var ops []Op
	for len(ops) < 8 {
		r := lo + rng.Intn(span)
		if !seen[r] {
			seen[r] = true
			ops = append(ops, Put(rewriteKey(r), rewriteValue(rng)))
		}
	}
	return ops
}

// rewriteCost is what a run of edits wrote: the nodes of each new tree that
// the tree before it did not have.
type rewriteCost struct {
	leafBytes, indexBytes, leaves, indexNodes int
}

// newNodes adds to c the nodes of ids not in have, and returns ids as a set.
func (c *rewriteCost) newNodes(t testing.TB, st store.Store, have map[hash.Hash]bool, ids []hash.Hash) map[hash.Hash]bool {
	t.Helper()
	next := make(map[hash.Hash]bool, len(ids))
	for _, id := range ids {
		next[id] = true
		if have[id] {
			continue
		}
		ch, err := st.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		if ch.Type() == chunk.TypeMapLeaf {
			c.leaves++
			c.leafBytes += ch.Size()
		} else {
			c.indexNodes++
			c.indexBytes += ch.Size()
		}
	}
	return next
}

// sizeBiased returns the size-biased means of a tree's leaf sizes (bytes)
// and of its non-root index nodes' fanouts.
func sizeBiased(t testing.TB, tr *Tree) (leaf, fanout float64) {
	t.Helper()
	var s1, s2, f1, f2 float64
	var walk func(id hash.Hash, root bool)
	walk = func(id hash.Hash, root bool) {
		n, err := tr.src.Load(id)
		if err != nil {
			t.Fatal(err)
		}
		if n.isLeaf() {
			s := float64(len(n.data))
			s1, s2 = s1+s, s2+s*s
			return
		}
		if !root {
			f := float64(n.len())
			f1, f2 = f1+f, f2+f*f
		}
		for i := 0; i < n.len(); i++ {
			walk(n.ref(i).id, false)
		}
	}
	walk(tr.root, true)
	return s2 / s1, f2 / f1
}

// TestEditRewriteBytes builds the benchmark table shape under DefaultConfig,
// runs 200 clustered (inside 64 rows) and 200 scattered 8-row commits, and
// pins what each kind writes per commit, split into leaves and index nodes,
// with the base tree's size-biased mean leaf size and index fanout.  Under
// the memoryless cut this run wrote 23,260 B and 103,075 B per commit
// (13,257 + 10,003 and 67,546 + 35,529 leaf + index bytes) over an 8,035.8 B
// size-biased leaf and a 215.0-child size-biased index node; the two-region
// cut must stay at or under 18,000 B and 70,000 B.
func TestEditRewriteBytes(t *testing.T) {
	const edits = 200
	want := []struct {
		name                  string
		window                int
		limit                 int // bytes per commit
		leafBytes, indexBytes int // per commit
		leaves, indexNodes    string
	}{
		{"clustered", 64, 18000, 12227, 5033, "2.69", "2.15"},
		{"scattered", 0, 70000, 42176, 23133, "8.91", "7.57"},
	}
	const wantLeaf, wantFanout = "4801.8", "71.8"

	rng := rand.New(rand.NewSource(78))
	st := store.NewMemStore()
	base, err := BuildMap(st, chunker.DefaultConfig(), rewriteTable(rng))
	if err != nil {
		t.Fatal(err)
	}
	leaf, fanout := sizeBiased(t, base)
	if got := [2]string{fmt.Sprintf("%.1f", leaf), fmt.Sprintf("%.1f", fanout)}; got != [2]string{wantLeaf, wantFanout} {
		t.Errorf("size-biased mean leaf %s B and fanout %s, want %s B and %s", got[0], got[1], wantLeaf, wantFanout)
	}
	for _, w := range want {
		tree := base
		ids, err := tree.ChunkIDs()
		if err != nil {
			t.Fatal(err)
		}
		have := new(rewriteCost).newNodes(t, st, nil, ids)
		var c rewriteCost
		for i := 0; i < edits; i++ {
			if tree, err = tree.Edit(rewriteOps(rng, w.window)); err != nil {
				t.Fatal(err)
			}
			if ids, err = tree.ChunkIDs(); err != nil {
				t.Fatal(err)
			}
			have = c.newNodes(t, st, have, ids)
		}
		got := [4]string{
			fmt.Sprint(c.leafBytes / edits), fmt.Sprint(c.indexBytes / edits),
			fmt.Sprintf("%.2f", float64(c.leaves)/edits), fmt.Sprintf("%.2f", float64(c.indexNodes)/edits),
		}
		t.Logf("%s: %s B in %s leaves, %s B in %s index nodes per commit", w.name, got[0], got[2], got[1], got[3])
		if got != [4]string{fmt.Sprint(w.leafBytes), fmt.Sprint(w.indexBytes), w.leaves, w.indexNodes} {
			t.Errorf("%s: per commit %s leaf B, %s index B, %s leaves, %s index nodes; want %d, %d, %s, %s",
				w.name, got[0], got[1], got[2], got[3], w.leafBytes, w.indexBytes, w.leaves, w.indexNodes)
		}
		if total := (c.leafBytes + c.indexBytes) / edits; total > w.limit {
			t.Errorf("%s: %d B written per commit, want at most %d", w.name, total, w.limit)
		}
	}
}

// parentCut is the memoryless cut of trees written before the two-region
// rule, at DefaultConfig's Q and window: a leaf closes at the end of an entry
// holding a full pattern at or past 512 bytes, or at 64 KiB; an index node
// after an entry, from the second on, that leaves the low 6 hash bits zero,
// or at indexMaxEntries.
type parentCut struct {
	h              *rolling.Hasher
	index          bool
	bytes, entries int
}

func (c *parentCut) Add(encoded []byte) bool {
	hit, sum := false, uint64(0)
	for _, by := range encoded {
		sum = c.h.Roll(by)
		c.bytes++
		hit = hit || !c.index && c.bytes >= 512 && c.h.OnPattern()
	}
	c.entries++
	if c.index {
		hit = c.entries >= 2 && sum&63 == 0 || c.entries >= indexMaxEntries
	} else {
		hit = hit || c.bytes >= 1<<16
	}
	if hit {
		c.Reset()
	}
	return hit
}

func (c *parentCut) Reset() {
	c.h.Reset()
	c.bytes, c.entries = 0, 0
}

// buildMapParentCut builds a map tree of sorted rows through the per-chunk
// write path with the parent's cut, and returns it as a tree under cfg.
func buildMapParentCut(st store.Store, cfg chunker.Config, rows []Entry) (*Tree, error) {
	level := func(lvl uint8) *legacyLevelBuilder {
		b := newLegacyLevelBuilder(st, cfg, lvl, chunk.TypeMapLeaf)
		b.chk = &parentCut{h: rolling.New(12, rolling.DefaultWindow), index: lvl > 0}
		return b
	}
	lb := level(0)
	for _, e := range rows {
		if err := lb.add(encodeEntry(nil, e), e.Key, 1); err != nil {
			return nil, err
		}
	}
	refs, err := lb.finish()
	if err != nil {
		return nil, err
	}
	for lvl := uint8(1); len(refs) > 1; lvl++ {
		lb = level(lvl)
		for _, r := range refs {
			if err := lb.add(encodeChildRef(nil, r), r.splitKey, r.count); err != nil {
				return nil, err
			}
		}
		if refs, err = lb.finish(); err != nil {
			return nil, err
		}
	}
	return &Tree{src: sourceFor(st), cfg: cfg, root: refs[0].id, count: refs[0].count}, nil
}

// TestEditResyncsParentTree: a tree cut under the parent's memoryless rule
// stays editable under the two-region rule.  Its boundaries are candidates
// of the new rule wherever they lie at or past MinSize, so a scattered 8-row
// commit re-chunks each edited row's leaf only up to the next boundary both
// rules share — at most 4 leaves per row — and the content is the model's.
//
// The result is expected to differ from EditRebuild of the same ops, which
// cuts the whole content afresh: Edit keeps every old node it does not
// reach, and copyRun takes the bytes and entries it copies from an old node
// as tested under the new rule, which they were not, so a node it writes
// near a change can be cut by neither rule.  Such a tree is read and edited
// correctly but stays non-canonical; the test pins that it does, so a
// change that makes the two agree has to say so here.
func TestEditResyncsParentTree(t *testing.T) {
	const edits = 20
	rng := rand.New(rand.NewSource(36))
	rows := rewriteTable(rng)
	st := store.NewMemStore()
	tree, err := buildMapParentCut(st, chunker.DefaultConfig(), rows)
	if err != nil {
		t.Fatal(err)
	}
	if fresh, err := BuildMap(st, chunker.DefaultConfig(), rows); err != nil || fresh.Root() == tree.Root() {
		t.Fatalf("the parent's cut built the root the two-region cut builds (%v)", err)
	}
	ids, err := tree.ChunkIDs()
	if err != nil {
		t.Fatal(err)
	}
	have := new(rewriteCost).newNodes(t, st, nil, ids)
	var c rewriteCost
	for i := 0; i < edits; i++ {
		ops := rewriteOps(rng, 0)
		rebuilt, err := tree.EditRebuild(ops)
		if err != nil {
			t.Fatal(err)
		}
		if tree, err = tree.Edit(ops); err != nil {
			t.Fatal(err)
		}
		if tree.Root() == rebuilt.Root() {
			t.Fatalf("commit %d: Edit built the root EditRebuild builds, though it keeps the parent's nodes", i)
		}
		for _, o := range ops {
			k := 0
			fmt.Sscanf(string(o.Key), "row%d", &k)
			rows[k].Val = o.Val
		}
		if ids, err = tree.ChunkIDs(); err != nil {
			t.Fatal(err)
		}
		before := c.leaves
		have = c.newNodes(t, st, have, ids)
		if n := c.leaves - before; n > 4*len(ops) {
			t.Errorf("commit %d rewrote %d leaves for %d scattered rows, want at most 4 per row", i, n, len(ops))
		}
		it, err := tree.Iter()
		if err != nil {
			t.Fatal(err)
		}
		k := 0
		for ; it.Next(); k++ {
			if e := it.Entry(); k >= len(rows) || !bytes.Equal(e.Key, rows[k].Key) || !bytes.Equal(e.Val, rows[k].Val) {
				t.Fatalf("commit %d: entry %d is %q, want %q", i, k, e.Key, rows[min(k, len(rows)-1)].Key)
			}
		}
		if err := it.Err(); err != nil || k != len(rows) {
			t.Fatalf("commit %d: %d entries (%v), want %d", i, k, err, len(rows))
		}
	}
	fresh, err := BuildMap(st, chunker.DefaultConfig(), rows)
	if err != nil {
		t.Fatal(err)
	}
	if last, err := tree.EditRebuild([]Op{Put(rows[0].Key, rows[0].Val)}); err != nil || last.Root() != fresh.Root() {
		t.Fatalf("EditRebuild of the edited tree is not the fresh build of its content (%v)", err)
	}
	t.Logf("%d scattered 8-row commits rewrote %.1f leaves each", edits, float64(c.leaves)/edits)
}
