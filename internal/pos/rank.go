package pos

import (
	"bytes"
	"fmt"

	"forkbase/internal/chunk"
)

// At returns the entry at rank i (0-based, in key order).  Because index
// entries carry sub-tree entry counts, selection is O(log N) — one path
// from root to leaf — rather than an O(i) scan.  The returned entry aliases
// shared decoded node data; callers must not modify it.
func (t *Tree) At(i uint64) (Entry, error) {
	if i >= t.count {
		return Entry{}, ErrOutOfRange
	}
	n, err := t.load(t.root)
	for err == nil {
		switch n.typ {
		case chunk.TypeMapLeaf:
			if i >= uint64(n.len()) {
				return Entry{}, ErrOutOfRange
			}
			return n.entry(int(i)), nil
		case chunk.TypeMapIndex:
			j := 0
			for ; j < n.len() && i >= n.count(j); j++ {
				i -= n.count(j)
			}
			if j == n.len() {
				return Entry{}, ErrOutOfRange
			}
			n, err = t.src.Load(n.ref(j).id)
		default:
			return Entry{}, fmt.Errorf("pos: unexpected chunk %s in map tree", n.typ)
		}
	}
	return Entry{}, fmt.Errorf("pos: at: %w", err)
}

// Rank returns the number of entries with key strictly less than key —
// equivalently, the rank at which key would sit.  O(log N) via sub-tree
// counts: whole sub-trees left of the search path are counted without being
// read.
func (t *Tree) Rank(key []byte) (uint64, error) {
	if t.root.IsZero() {
		return 0, nil
	}
	var rank uint64
	n, err := t.load(t.root)
	for err == nil {
		switch n.typ {
		case chunk.TypeMapLeaf:
			return rank + uint64(n.search(key)), nil
		case chunk.TypeMapIndex:
			i := n.search(key)
			for j := 0; j < i; j++ {
				rank += n.count(j)
			}
			if i == n.len() {
				return rank, nil // key beyond the maximum
			}
			n, err = t.src.Load(n.ref(i).id)
		default:
			return 0, fmt.Errorf("pos: unexpected chunk %s in map tree", n.typ)
		}
	}
	return 0, fmt.Errorf("pos: rank: %w", err)
}

// RangeCount returns the number of entries with lo <= key < hi in
// O(log N), without touching the leaves in between.
func (t *Tree) RangeCount(lo, hi []byte) (uint64, error) {
	if bytes.Compare(lo, hi) >= 0 {
		return 0, nil
	}
	rlo, err := t.Rank(lo)
	if err != nil {
		return 0, err
	}
	rhi, err := t.Rank(hi)
	if err != nil {
		return 0, err
	}
	return rhi - rlo, nil
}
