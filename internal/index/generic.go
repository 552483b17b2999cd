package index

import (
	"bytes"
	"sort"
)

// GenericDiff computes key-level deltas from a (old) to b (new) by merging
// their sorted iterators.  It works across different index structures —
// structural subtree pruning is impossible when the shapes differ, so the
// cost is O(N); same-structure diffs should go through DiffWith, which
// dispatches to the structure's pruning diff.
func GenericDiff(a, b VersionedIndex) ([]Delta, DiffStats, error) {
	var out []Delta
	var stats DiffStats
	ia, err := a.Iterate()
	if err != nil {
		return nil, stats, err
	}
	ib, err := b.Iterate()
	if err != nil {
		return nil, stats, err
	}
	okA, okB := ia.Next(), ib.Next()
	for okA || okB {
		switch {
		case !okA:
			e := ib.Entry()
			out = append(out, Delta{Key: cloneBytes(e.Key), To: cloneBytes(e.Val)})
			okB = ib.Next()
		case !okB:
			e := ia.Entry()
			out = append(out, Delta{Key: cloneBytes(e.Key), From: cloneBytes(e.Val)})
			okA = ia.Next()
		default:
			ea, eb := ia.Entry(), ib.Entry()
			cmp := bytes.Compare(ea.Key, eb.Key)
			switch {
			case cmp < 0:
				out = append(out, Delta{Key: cloneBytes(ea.Key), From: cloneBytes(ea.Val)})
				okA = ia.Next()
			case cmp > 0:
				out = append(out, Delta{Key: cloneBytes(eb.Key), To: cloneBytes(eb.Val)})
				okB = ib.Next()
			default:
				if !bytes.Equal(ea.Val, eb.Val) {
					out = append(out, Delta{Key: cloneBytes(ea.Key), From: cloneBytes(ea.Val), To: cloneBytes(eb.Val)})
				}
				okA = ia.Next()
				okB = ib.Next()
			}
		}
	}
	if err := ia.Err(); err != nil {
		return nil, stats, err
	}
	if err := ib.Err(); err != nil {
		return nil, stats, err
	}
	stats.Deltas = len(out)
	return out, stats, nil
}

// cloneBytes copies b, always returning a non-nil slice: present-but-empty
// values must stay distinguishable from the nil that marks an absent side.
func cloneBytes(b []byte) []byte {
	out := make([]byte, len(b))
	copy(out, b)
	return out
}

// Merge3 three-way-merges indexes a and b against their common base: the
// diff phase computes Δa = Diff(base→a) and Δb = Diff(base→b) with sub-tree
// pruning (when the structures match), then Δb is applied on top of a, so
// the disjointly modified sub-trees of a are reused wholesale and only
// overlapping regions are recalculated.  Conflicts — keys changed by both
// sides to different values — go to the resolver; with a nil resolver the
// merge fails with *ErrConflict.  The merged index inherits a's structure.
// A merge costs its two side diffs and one Apply, so it grows with what the
// sides changed, not with the table; how much of the result was reused is a
// measurement over chunk-id sets (experiments.RunFig3), not merge work.
func Merge3(base, a, b VersionedIndex, resolve Resolver) (VersionedIndex, MergeStats, error) {
	var stats MergeStats
	// Trivial cases first: untouched sides merge to the other side.  Root
	// comparison is only meaningful within one structure.
	if base.Kind() == a.Kind() && base.Root() == a.Root() {
		return b, stats, nil
	}
	if base.Kind() == b.Kind() && base.Root() == b.Root() {
		return a, stats, nil
	}
	if a.Kind() == b.Kind() && a.Root() == b.Root() {
		return a, stats, nil
	}

	// The two side diffs run one after the other on the caller's goroutine;
	// with hash pruning each costs what its side changed.
	da, _, err := base.DiffWith(a)
	if err != nil {
		return nil, stats, err
	}
	db, _, err := base.DiffWith(b)
	if err != nil {
		return nil, stats, err
	}
	stats.DeltasA, stats.DeltasB = len(da), len(db)

	amap := make(map[string]Delta, len(da))
	for _, d := range da {
		amap[string(d.Key)] = d
	}

	var ops []Op // applied on top of a
	var conflicts []Conflict
	for _, d := range db {
		ad, touchedByA := amap[string(d.Key)]
		if !touchedByA {
			if d.To == nil {
				ops = append(ops, Del(d.Key))
			} else {
				ops = append(ops, Put(d.Key, d.To))
			}
			continue
		}
		// Both sides touched the key: identical outcomes are clean.
		if bytes.Equal(ad.To, d.To) && (ad.To == nil) == (d.To == nil) {
			continue
		}
		c := Conflict{Key: d.Key, Base: d.From, A: ad.To, B: d.To}
		if resolve == nil {
			conflicts = append(conflicts, c)
			continue
		}
		v, keep := resolve(c)
		if keep {
			ops = append(ops, Put(d.Key, v))
		} else {
			ops = append(ops, Del(d.Key))
		}
	}
	stats.Conflicts = len(conflicts)
	if len(conflicts) > 0 {
		sort.Slice(conflicts, func(i, j int) bool {
			return bytes.Compare(conflicts[i].Key, conflicts[j].Key) < 0
		})
		return nil, stats, &ErrConflict{Conflicts: conflicts}
	}

	merged, err := a.Apply(ops)
	if err != nil {
		return nil, stats, err
	}
	return merged, stats, nil
}
