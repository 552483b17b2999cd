package pos

import (
	"bytes"
	"fmt"
	"sort"

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
	id := t.root
	for {
		n, err := t.src.Load(id)
		if err != nil {
			return Entry{}, fmt.Errorf("pos: at: %w", err)
		}
		switch n.typ {
		case chunk.TypeMapLeaf:
			if i >= uint64(len(n.entries)) {
				return Entry{}, ErrOutOfRange
			}
			return n.entries[i], nil
		case chunk.TypeMapIndex:
			found := false
			for _, r := range n.refs {
				if i < r.count {
					id = r.id
					found = true
					break
				}
				i -= r.count
			}
			if !found {
				return Entry{}, ErrOutOfRange
			}
		default:
			return Entry{}, fmt.Errorf("pos: unexpected chunk %s in map tree", n.typ)
		}
	}
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
	id := t.root
	for {
		n, err := t.src.Load(id)
		if err != nil {
			return 0, fmt.Errorf("pos: rank: %w", err)
		}
		switch n.typ {
		case chunk.TypeMapLeaf:
			entries := n.entries
			i := sort.Search(len(entries), func(i int) bool {
				return bytes.Compare(entries[i].Key, key) >= 0
			})
			return rank + uint64(i), nil
		case chunk.TypeMapIndex:
			refs := n.refs
			i := sort.Search(len(refs), func(i int) bool {
				return bytes.Compare(refs[i].splitKey, key) >= 0
			})
			for j := 0; j < i; j++ {
				rank += refs[j].count
			}
			if i == len(refs) {
				return rank, nil // key beyond the maximum
			}
			id = refs[i].id
		default:
			return 0, fmt.Errorf("pos: unexpected chunk %s in map tree", n.typ)
		}
	}
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
