package pos

import (
	"bytes"
	"fmt"
	"sort"

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
	t       *Tree
	stack   []iterFrame
	entries []Entry
	pos     int // position within entries; -1 before first Next
	err     error
	done    bool
}

type iterFrame struct {
	refs []childRef
	idx  int
}

// Iter returns an iterator positioned before the first entry.
func (t *Tree) Iter() (*Iter, error) {
	it := &Iter{t: t, pos: -1}
	if t.root.IsZero() {
		it.done = true
		return it, nil
	}
	if err := it.descend(t.root); err != nil {
		return nil, err
	}
	it.pos = -1
	return it, nil
}

// IterFrom returns an iterator positioned before the first entry whose key
// is >= key.
func (t *Tree) IterFrom(key []byte) (*Iter, error) {
	it := &Iter{t: t, pos: -1}
	if t.root.IsZero() {
		it.done = true
		return it, nil
	}
	id := t.root
	for {
		n, err := t.src.Load(id)
		if err != nil {
			return nil, fmt.Errorf("pos: iter: %w", err)
		}
		if n.typ == chunk.TypeMapLeaf {
			entries := n.entries
			it.entries = entries
			i := sort.Search(len(entries), func(i int) bool {
				return bytes.Compare(entries[i].Key, key) >= 0
			})
			it.pos = i - 1
			if i == len(entries) {
				// Key is beyond this leaf; the next Next() will pop upward.
				it.pos = len(entries) - 1
			}
			return it, nil
		}
		if n.typ != chunk.TypeMapIndex {
			return nil, fmt.Errorf("pos: unexpected chunk type %s in map tree", n.typ)
		}
		refs := n.refs
		i := sort.Search(len(refs), func(i int) bool {
			return bytes.Compare(refs[i].splitKey, key) >= 0
		})
		if i == len(refs) {
			i = len(refs) - 1 // descend rightmost; iterator will exhaust
		}
		it.stack = append(it.stack, iterFrame{refs: refs, idx: i})
		id = refs[i].id
	}
}

// descend loads the leftmost leaf under id, pushing index frames.
func (it *Iter) descend(id hash.Hash) error {
	for {
		n, err := it.t.src.Load(id)
		if err != nil {
			return fmt.Errorf("pos: iter: %w", err)
		}
		if n.typ == chunk.TypeMapLeaf {
			it.entries = n.entries
			it.pos = -1
			return nil
		}
		if n.typ != chunk.TypeMapIndex {
			return fmt.Errorf("pos: unexpected chunk type %s in map tree", n.typ)
		}
		refs := n.refs
		if len(refs) == 0 {
			return fmt.Errorf("pos: empty index node %s", id.Short())
		}
		it.stack = append(it.stack, iterFrame{refs: refs})
		id = refs[0].id
	}
}

// Next advances to the next entry; it returns false at the end or on error.
func (it *Iter) Next() bool {
	if it.done || it.err != nil {
		return false
	}
	it.pos++
	if it.pos < len(it.entries) {
		return true
	}
	// Current leaf exhausted: pop to the nearest ancestor with a next child.
	for len(it.stack) > 0 {
		top := &it.stack[len(it.stack)-1]
		top.idx++
		if top.idx < len(top.refs) {
			if err := it.descend(top.refs[top.idx].id); err != nil {
				it.err = err
				return false
			}
			it.pos = 0
			return len(it.entries) > 0
		}
		it.stack = it.stack[:len(it.stack)-1]
	}
	it.done = true
	return false
}

// Entry returns the current entry.  Valid only after a true Next.  The
// returned slices alias decoded chunk data; copy before holding long-term.
func (it *Iter) Entry() Entry { return it.entries[it.pos] }

// Err returns the first error encountered during iteration.
func (it *Iter) Err() error { return it.err }
