package pos

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/bits"
	"slices"
	"sort"

	"forkbase/internal/chunk"
	"forkbase/internal/codec"
	"forkbase/internal/hash"
	"forkbase/internal/index"
)

// Diff computes the key-level differences from t (old) to o (new).
//
// Sub-trees with identical root hashes are pruned without being read —
// possible only because POS-Trees are structurally invariant, so equal
// content implies equal hash at every level.  Node reads stay O(D·log N)
// for D differing leaves (paper §II-B), each node read once, walked on the
// caller's goroutine.  The leaf compare costs the bytes of the differing
// leaf runs plus the changed entries: equal entries encode to equal bytes,
// so the entries two runs share are skipped by a byte compare, and only
// those around a change are merged key by key.
func (t *Tree) Diff(o *Tree) ([]index.Delta, index.DiffStats, error) {
	if t.root == o.root {
		return nil, index.DiffStats{}, nil
	}
	d := &differ{old: *t, new: *o}
	la, err := peek(&d.old)
	if err != nil {
		return nil, index.DiffStats{}, err
	}
	lb, err := peek(&d.new)
	if err != nil {
		return nil, index.DiffStats{}, err
	}
	if err := d.diffSpans(rootSpan(t), rootSpan(o), la, lb); err != nil {
		return nil, index.DiffStats{}, err
	}
	d.stats.Deltas = len(d.out)
	return d.out, d.stats, nil
}

// slot is child i of index node n.  A diff span is a run of slots, so
// descending a level copies no ref out of its node.
type slot struct {
	n *node
	i int
}

func (s slot) id() hash.Hash { return s.n.ref(s.i).id }

func rootSpan(t *Tree) []slot {
	if t.root.IsZero() {
		return nil
	}
	return []slot{{n: refNode(childRef{id: t.root, count: t.count}, chunk.TypeMapIndex)}}
}

// differ holds its own copies of the two tree handles, so peek can keep each
// root in its copy without touching the caller's trees.
type differ struct {
	old, new Tree
	out      []index.Delta
	stats    index.DiffStats
}

// peek reads the level of t's root, the level the walk starts at, and keeps
// the root in t, so the walk's own load of it reads no store.  Every level
// below follows from it: a child sits one level below its parent.
func peek(t *Tree) (uint8, error) {
	if t.root.IsZero() {
		return 0, nil
	}
	n, err := t.load(t.root)
	if err != nil {
		return 0, fmt.Errorf("pos: diff: %w", err)
	}
	t.top = n
	return n.level, nil
}

// load fetches one decoded node, which must sit at level, through the
// tree's node source (cache hits included in TouchedChunks: the count is
// "nodes visited", the O(D·log N) quantity, regardless of where the bytes
// came from).
func (d *differ) load(t *Tree, id hash.Hash, level uint8) (*node, error) {
	n, err := t.load(id)
	if err != nil {
		return nil, fmt.Errorf("pos: diff: %w", err)
	}
	d.stats.TouchedChunks++
	switch {
	case n.typ != chunk.TypeMapLeaf && n.typ != chunk.TypeMapIndex:
		return nil, fmt.Errorf("pos: diff: unexpected chunk %s", n.typ)
	case n.level != level:
		return nil, fmt.Errorf("pos: diff: node %s at level %d, want %d", id.Short(), n.level, level)
	}
	return n, nil
}

// expand replaces a span of refs to index nodes at level by the
// concatenation of their children (one level down).
func (d *differ) expand(t *Tree, refs []slot, level uint8) ([]slot, error) {
	var out []slot
	for _, r := range refs {
		n, err := d.load(t, r.id(), level)
		if err != nil {
			return nil, err
		}
		out = slices.Grow(out, n.len())
		for i := 0; i < n.len(); i++ {
			out = append(out, slot{n, i})
		}
	}
	return out, nil
}

// leavesOf loads a span of leaf refs.
func (d *differ) leavesOf(t *Tree, refs []slot) (leafRun, error) {
	out := make(leafRun, len(refs))
	for i, r := range refs {
		n, err := d.load(t, r.id(), 0)
		if err != nil {
			return nil, err
		}
		out[i] = n
	}
	return out, nil
}

// diffSpans compares two spans of subtrees covering the same key ranges,
// whose nodes sit at levels la and lb.
func (d *differ) diffSpans(aRefs, bRefs []slot, la, lb uint8) error {
	// Align levels: expand the taller side until both spans sit at the same
	// height above the leaves.  An empty span sits at any height.
	if len(aRefs) == 0 {
		la = lb
	}
	if len(bRefs) == 0 {
		lb = la
	}
	var err error
	for ; la > lb; la-- {
		if aRefs, err = d.expand(&d.old, aRefs, la); err != nil {
			return err
		}
	}
	for ; lb > la; lb-- {
		if bRefs, err = d.expand(&d.new, bRefs, lb); err != nil {
			return err
		}
	}
	// Two-pointer walk over same-level refs: identical hashes are pruned
	// without being read — at every level, leaves included; only the
	// maximal misaligned spans are descended into (index levels) or
	// loaded and compared (leaf level).
	ia, ib := 0, 0
	for ia < len(aRefs) || ib < len(bRefs) {
		if ia < len(aRefs) && ib < len(bRefs) &&
			aRefs[ia].id() == bRefs[ib].id() {
			d.stats.PrunedRefs++
			ia++
			ib++
			continue
		}
		// Collect the misaligned span on both sides until the next
		// identical pair (or the ends).
		ja, jb := ia, ib
		for {
			if ja >= len(aRefs) || jb >= len(bRefs) {
				ja, jb = len(aRefs), len(bRefs)
				break
			}
			a, b := aRefs[ja], bRefs[jb]
			cmp := bytes.Compare(a.n.key(a.i), b.n.key(b.i))
			switch {
			case cmp < 0:
				ja++
			case cmp > 0:
				jb++
			default:
				if a.id() == b.id() {
					goto spanDone
				}
				ja++
				jb++
			}
		}
	spanDone:
		if la == 0 {
			// Leaf spans: load only the mismatched leaves.
			al, err := d.leavesOf(&d.old, aRefs[ia:ja])
			if err != nil {
				return err
			}
			bl, err := d.leavesOf(&d.new, bRefs[ib:jb])
			if err != nil {
				return err
			}
			d.diffLeaves(al, bl)
		} else {
			// Descend one level into the misaligned spans before
			// recursing; recursing at the same level would loop forever.
			aSub, err := d.expand(&d.old, aRefs[ia:ja], la)
			if err != nil {
				return err
			}
			bSub, err := d.expand(&d.new, bRefs[ib:jb], la)
			if err != nil {
				return err
			}
			if err := d.diffSpans(aSub, bSub, la-1, la-1); err != nil {
				return err
			}
		}
		ia, ib = ja, jb
	}
	return nil
}

// diffLeaves merges the entries of two runs of leaves, each in key order,
// and emits deltas.  Wherever both runs go on with the same entries it
// skips them by a byte compare instead: an entry's encoding is canonical
// and position-free, so the entries the runs share are the same bytes
// wherever the leaf boundaries fall.  The merge is tried for a skip where
// it starts and wherever it has just paired two entries of one key, so it
// walks entry by entry only around the changes.
func (d *differ) diffLeaves(a, b leafRun) {
	ca, cb := leafCursor{run: a}, leafCursor{run: b}
	skipShared(&ca, &cb)
	ea, okA := ca.next()
	eb, okB := cb.next()
	for okA || okB {
		cmp := 1
		switch {
		case !okB:
			cmp = -1
		case okA:
			cmp = bytes.Compare(ea.Key, eb.Key)
		}
		switch {
		case cmp < 0:
			d.out = append(d.out, index.Delta{Key: cp(ea.Key), From: cp(ea.Val)})
			ea, okA = ca.next()
		case cmp > 0:
			d.out = append(d.out, index.Delta{Key: cp(eb.Key), To: cp(eb.Val)})
			eb, okB = cb.next()
		default:
			if !bytes.Equal(ea.Val, eb.Val) {
				d.out = append(d.out, index.Delta{Key: cp(ea.Key), From: cp(ea.Val), To: cp(eb.Val)})
			}
			skipShared(&ca, &cb)
			ea, okA = ca.next()
			eb, okB = cb.next()
		}
	}
}

// leafRun is a run of leaves read as one stream: each leaf's encoded
// entries, past its level byte and entry count, in order.
type leafRun []*node

// ent is entry i of leaf j of a run.  Positions are kept normal — i is
// below its leaf's count — so {len(run), 0} is the one end position.
type ent struct{ j, i int }

// start and end bound e's encoding in its leaf's payload; an entry ends
// where its value does, and the first starts past the level byte and the
// entry count.
func (r leafRun) start(e ent) int {
	if e.i == 0 {
		_, sz := codec.Uvarint(r[e.j].data[1:])
		return 1 + sz
	}
	return int(r[e.j].spans[e.i-1].aux >> 32)
}

func (r leafRun) end(e ent) int { return int(r[e.j].spans[e.i].aux >> 32) }

// next returns the entry after e.
func (r leafRun) next(e ent) ent {
	if e.i++; e.i == r[e.j].len() {
		return ent{e.j + 1, 0}
	}
	return e
}

// leafCursor walks the entries of a run in order.
type leafCursor struct {
	run leafRun
	at  ent // the next entry
}

func (c *leafCursor) next() (Entry, bool) {
	if c.at.j == len(c.run) {
		return Entry{}, false
	}
	e := c.run[c.at.j].entry(c.at.i)
	c.at = c.run.next(c.at)
	return e, true
}

// skipShared advances a and b past the entries that end inside the common
// prefix of the two runs' streams from where the cursors stand.  A stream
// delimits itself from the front, so these are the same entries, in the
// same order, on both sides, and the merge would pair each with its twin
// and emit nothing.  It decodes no entry: the prefix is found by a block
// compare that crosses leaf boundaries, and the first entry past it by a
// binary search on the span table.
func skipShared(a, b *leafCursor) {
	ja, jb := a.at.j, b.at.j
	if ja == len(a.run) || jb == len(b.run) {
		return
	}
	pa, pb := a.run.start(a.at), b.run.start(b.at)
	for ja < len(a.run) && jb < len(b.run) {
		sa, sb := a.run[ja].data[pa:], b.run[jb].data[pb:]
		c := commonPrefix(sa, sb)
		pa, pb = pa+c, pb+c
		if c < len(sa) && c < len(sb) {
			break
		}
		if c == len(sa) {
			if ja++; ja < len(a.run) {
				pa = a.run.start(ent{ja, 0})
			}
		}
		if c == len(sb) {
			if jb++; jb < len(b.run) {
				pb = b.run.start(ent{jb, 0})
			}
		}
	}
	if ja == a.at.j && pa < a.run.end(a.at) {
		return // not even the next entry is shared
	}
	a.at, b.at = a.run.seek(ja, pa), b.run.seek(jb, pb)
}

// seek returns the first entry of leaf j that ends past off, which lies
// inside the leaf's entries, or the run's end when j is past its last leaf.
func (r leafRun) seek(j, off int) ent {
	if j == len(r) {
		return ent{j, 0}
	}
	spans := r[j].spans
	return ent{j, sort.Search(len(spans), func(i int) bool { return int(spans[i].aux>>32) > off })}
}

// commonPrefix is the length of the longest common prefix of a and b,
// compared in 64-byte blocks and then 8-byte words.
func commonPrefix(a, b []byte) int {
	n := min(len(a), len(b))
	i := 0
	for i+64 <= n && bytes.Equal(a[i:i+64], b[i:i+64]) {
		i += 64
	}
	for ; i+8 <= n; i += 8 {
		if x := binary.LittleEndian.Uint64(a[i:]) ^ binary.LittleEndian.Uint64(b[i:]); x != 0 {
			return i + bits.TrailingZeros64(x)/8
		}
	}
	for i < n && a[i] == b[i] {
		i++
	}
	return i
}

// cp copies b, always returning a non-nil slice: present-but-empty values
// must stay distinguishable from the nil that marks an absent side.
func cp(b []byte) []byte {
	out := make([]byte, len(b))
	copy(out, b)
	return out
}
