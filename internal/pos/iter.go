package pos

import (
	"fmt"

	"forkbase/internal/chunk"
	"forkbase/internal/hash"
)

// Iter walks a map POS-Tree in key order.
//
//	it, _ := tree.Iter()
//	for it.Next() {
//	    use(it.Entry())
//	}
//	if err := it.Err(); err != nil { ... }
type Iter struct {
	t     *Tree
	stack []iterFrame
	leaf  *node
	pos   int // entry position within leaf; -1 before first Next
	end   int // leaf.len(), kept here so Next reads no node
	err   error
	done  bool
}

// iterFrame is one index node on a path from the root and the child slot
// the path takes.
type iterFrame struct {
	n   *node
	idx int
}

// Iter returns an iterator positioned before the first entry.
func (t *Tree) Iter() (*Iter, error) { return t.IterFrom(nil) }

// IterFrom returns an iterator positioned before the first entry whose key
// is >= key.
func (t *Tree) IterFrom(key []byte) (*Iter, error) {
	it := &Iter{t: t, pos: -1}
	if t.root.IsZero() {
		it.done = true
		return it, nil
	}
	if err := it.descend(t.root, key); err != nil {
		return nil, err
	}
	return it, nil
}

// descend walks from id down to the leaf that would hold key, pushing index
// frames, and positions before the first entry >= key; past a node's last
// split key it takes the last child, so the next Next() pops upward.  A nil
// key takes the leftmost path without searching.
func (it *Iter) descend(id hash.Hash, key []byte) error {
	for {
		n, err := it.t.load(id)
		if err != nil {
			return fmt.Errorf("pos: iter: %w", err)
		}
		if n.typ != chunk.TypeMapLeaf && n.typ != chunk.TypeMapIndex {
			return fmt.Errorf("pos: unexpected chunk type %s in map tree", n.typ)
		}
		i := 0
		if key != nil {
			i = n.search(key)
		}
		if n.typ == chunk.TypeMapLeaf {
			it.leaf, it.pos, it.end = n, i-1, n.len()
			return nil
		}
		i = min(i, n.len()-1)
		it.stack = append(it.stack, iterFrame{n: n, idx: i})
		id = n.ref(i).id
	}
}

// Next advances to the next entry; it returns false at the end or on error.
func (it *Iter) Next() bool {
	if it.done || it.err != nil {
		return false
	}
	it.pos++
	if it.pos < it.end {
		return true
	}
	// Current leaf exhausted: pop to the nearest ancestor with a next child.
	for len(it.stack) > 0 {
		top := &it.stack[len(it.stack)-1]
		top.idx++
		if top.idx < top.n.len() {
			if err := it.descend(top.n.ref(top.idx).id, nil); err != nil {
				it.err = err
				return false
			}
			it.pos = 0
			return true // a leaf has at least one entry
		}
		it.stack = it.stack[:len(it.stack)-1]
	}
	it.done = true
	return false
}

// Entry returns the current entry.  Valid only after a true Next.  The
// returned slices alias decoded chunk data; copy before holding long-term.
func (it *Iter) Entry() Entry { return it.leaf.entry(it.pos) }

// Err returns the first error encountered during iteration.
func (it *Iter) Err() error { return it.err }
