package mpt

import (
	"bytes"
	"fmt"

	"forkbase/internal/hash"
	"forkbase/internal/index"
)

// Structural diff between two tries.  Because the trie is canonical, two
// versions sharing a record subset share whole subtrees as identical
// chunks; the diff walks both tries in lockstep by nibble position and
// prunes every pair of positions backed by the same chunk hash without
// reading it — the MPT counterpart of the POS-Tree's O(D·log N) diff.
//
// Local shapes may differ around edits (a leaf on one side, a branch of
// several keys on the other), so the walk operates on *cursors*: a decoded
// node plus an offset into its compressed path.  A cursor at offset 0 sits
// on a real chunk boundary and carries its id, which is what makes pruning
// sound; mid-path cursors are virtual and always descend.

// dref references one side's subtree at a nibble position: either a stored
// chunk (id + lazily loaded node) or a virtual position inside a node's
// compressed path (off > 0).
type dref struct {
	id  hash.Hash // zero for virtual positions
	n   *node     // nil until loaded (real positions load on demand)
	off int       // nibbles of n.path already consumed
}

type differ struct {
	old, new *Trie
	out      []index.Delta
	stats    index.DiffStats
	prefix   []byte // nibbles of the current position
}

// DiffWith diffs against another index: the structural, pruning diff when o
// is also a trie over a readable store, the generic iterator diff for other
// structures.
func (t *Trie) DiffWith(o index.VersionedIndex) ([]index.Delta, index.DiffStats, error) {
	ot, ok := o.(*Trie)
	if !ok {
		return index.GenericDiff(t, o)
	}
	return t.Diff(ot)
}

// Diff computes the key-level differences from t (old) to o (new), in key
// order.  The lockstep walk prunes shared subtrees and runs on the caller's
// goroutine.
func (t *Trie) Diff(o *Trie) ([]index.Delta, index.DiffStats, error) {
	if t.root == o.root {
		return nil, index.DiffStats{}, nil
	}
	d := &differ{old: t, new: o}
	if err := d.diff(rootRef(t), rootRef(o)); err != nil {
		return nil, index.DiffStats{}, err
	}
	d.stats.Deltas = len(d.out)
	return d.out, d.stats, nil
}

func rootRef(t *Trie) *dref {
	if t.root.IsZero() {
		return nil
	}
	return &dref{id: t.root}
}

// load materialises a ref's node through the owning trie's source.
func (d *differ) load(t *Trie, r *dref) (*node, error) {
	if r.n == nil {
		n, err := t.src.Load(r.id)
		if err != nil {
			return nil, fmt.Errorf("mpt: diff: %w", err)
		}
		r.n = n
		d.stats.TouchedChunks++
	}
	return r.n, nil
}

// position resolves a cursor into its value-at-this-position and children
// by next nibble.  Compressed paths are walked one virtual nibble at a
// time; extensions that are fully consumed step into their child chunk.
func (d *differ) position(t *Trie, r *dref) (val []byte, hasVal bool, kids [16]*dref, err error) {
	n, err := d.load(t, r)
	if err != nil {
		return nil, false, kids, err
	}
	// An extension whose path is consumed is transparent: the position is
	// really its child branch.
	for n.kind == kindExt && r.off == len(n.path) {
		r = &dref{id: n.childID}
		if n, err = d.load(t, r); err != nil {
			return nil, false, kids, err
		}
	}
	switch n.kind {
	case kindLeaf:
		if r.off == len(n.path) {
			return n.val, true, kids, nil
		}
		kids[n.path[r.off]] = &dref{n: n, off: r.off + 1}
		return nil, false, kids, nil
	case kindExt:
		kids[n.path[r.off]] = &dref{n: n, off: r.off + 1}
		return nil, false, kids, nil
	default: // branch (never has a compressed path; off is always 0)
		for i := 0; i < 16; i++ {
			if n.childMask&(1<<i) != 0 {
				kids[i] = &dref{id: n.childIDs[i]}
			}
		}
		return n.val, n.hasVal, kids, nil
	}
}

// diff recursively compares the two sides at one nibble position.
func (d *differ) diff(a, b *dref) error {
	if a == nil && b == nil {
		return nil
	}
	if a != nil && b != nil && !a.id.IsZero() && a.id == b.id {
		d.stats.PrunedRefs++
		return nil
	}
	if a == nil {
		return d.emitAll(d.new, b, func(key, val []byte) {
			d.out = append(d.out, index.Delta{Key: key, To: val})
		})
	}
	if b == nil {
		return d.emitAll(d.old, a, func(key, val []byte) {
			d.out = append(d.out, index.Delta{Key: key, From: val})
		})
	}
	av, aOK, aKids, err := d.position(d.old, a)
	if err != nil {
		return err
	}
	bv, bOK, bKids, err := d.position(d.new, b)
	if err != nil {
		return err
	}
	key := func() []byte { return nibblesToKey(d.prefix) }
	switch {
	case aOK && bOK:
		if !bytes.Equal(av, bv) {
			d.out = append(d.out, index.Delta{Key: key(), From: cp(av), To: cp(bv)})
		}
	case aOK:
		d.out = append(d.out, index.Delta{Key: key(), From: cp(av)})
	case bOK:
		d.out = append(d.out, index.Delta{Key: key(), To: cp(bv)})
	}
	for i := 0; i < 16; i++ {
		if aKids[i] == nil && bKids[i] == nil {
			continue
		}
		d.prefix = append(d.prefix, byte(i))
		if err := d.diff(aKids[i], bKids[i]); err != nil {
			return err
		}
		d.prefix = d.prefix[:len(d.prefix)-1]
	}
	return nil
}

// emitAll walks an entire one-sided subtree, emitting every entry.
func (d *differ) emitAll(t *Trie, r *dref, emit func(key, val []byte)) error {
	val, hasVal, kids, err := d.position(t, r)
	if err != nil {
		return err
	}
	if hasVal {
		emit(nibblesToKey(d.prefix), cp(val))
	}
	for i := 0; i < 16; i++ {
		if kids[i] == nil {
			continue
		}
		d.prefix = append(d.prefix, byte(i))
		if err := d.emitAll(t, kids[i], emit); err != nil {
			return err
		}
		d.prefix = d.prefix[:len(d.prefix)-1]
	}
	return nil
}

// cp copies b, always returning a non-nil slice: present-but-empty values
// must stay distinguishable from the nil that marks an absent side.
func cp(b []byte) []byte {
	out := make([]byte, len(b))
	copy(out, b)
	return out
}
