package pos

import (
	"bytes"
	"fmt"

	"forkbase/internal/chunk"
	"forkbase/internal/hash"
	"forkbase/internal/index"
)

// Delta, DeltaKind and DiffStats are the shared diff vocabulary of the
// versioned-index layer, re-exported so existing callers keep compiling
// against pos.*.
type (
	// Delta is one key-level difference between two map trees.
	Delta = index.Delta
	// DeltaKind classifies a delta.
	DeltaKind = index.DeltaKind
	// DiffStats instruments a diff run; TouchedChunks is the "pages read"
	// quantity behind the O(D·log N) claim of §II-B.
	DiffStats = index.DiffStats
)

// Delta kinds.
const (
	Added    = index.Added
	Removed  = index.Removed
	Modified = index.Modified
)

// Diff computes the key-level differences from t (old) to o (new).
//
// Sub-trees with identical root hashes are pruned without being read —
// possible only because POS-Trees are structurally invariant, so equal
// content implies equal hash at every level.  The complexity is
// O(D·log N) node reads for D differing leaves (paper §II-B), walked on
// the caller's goroutine.
func (t *Tree) Diff(o *Tree) ([]Delta, DiffStats, error) {
	if t.root == o.root {
		return nil, DiffStats{}, nil
	}
	d := &differ{old: t, new: o}
	if err := d.diffSpans(rootSpan(t), rootSpan(o)); err != nil {
		return nil, DiffStats{}, err
	}
	d.stats.Deltas = len(d.out)
	return d.out, d.stats, nil
}

func rootSpan(t *Tree) []childRef {
	if t.root.IsZero() {
		return nil
	}
	return []childRef{{id: t.root, count: t.count}}
}

type differ struct {
	old, new *Tree
	out      []Delta
	stats    DiffStats
}

// load fetches one decoded node through the tree's node source (cache hits
// included in TouchedChunks: the count is "nodes visited", the O(D·log N)
// quantity, regardless of where the bytes came from).
func (d *differ) load(t *Tree, id hash.Hash) (*node, error) {
	n, err := t.src.Load(id)
	if err != nil {
		return nil, fmt.Errorf("pos: diff: %w", err)
	}
	d.stats.TouchedChunks++
	switch n.typ {
	case chunk.TypeMapLeaf, chunk.TypeMapIndex:
		return n, nil
	default:
		return nil, fmt.Errorf("pos: diff: unexpected chunk %s", n.typ)
	}
}

// spanLevel peeks the level of the first node in a span.
func (d *differ) spanLevel(t *Tree, refs []childRef) (uint8, error) {
	if len(refs) == 0 {
		return 0, nil
	}
	n, err := t.src.Load(refs[0].id)
	if err != nil {
		return 0, fmt.Errorf("pos: diff: %w", err)
	}
	return n.level, nil
}

// expand replaces a span of index refs by the concatenation of their
// children (one level down).
func (d *differ) expand(t *Tree, refs []childRef) ([]childRef, error) {
	var out []childRef
	for _, r := range refs {
		n, err := d.load(t, r.id)
		if err != nil {
			return nil, err
		}
		if n.level == 0 {
			return nil, fmt.Errorf("pos: diff: expand reached leaf %s", r.id.Short())
		}
		out = append(out, n.refs...)
	}
	return out, nil
}

// entriesOf flattens a span of same-level refs into its leaf entries.
func (d *differ) entriesOf(t *Tree, refs []childRef, level uint8) ([]Entry, error) {
	if level == 0 {
		var out []Entry
		for _, r := range refs {
			n, err := d.load(t, r.id)
			if err != nil {
				return nil, err
			}
			out = append(out, n.entries...)
		}
		return out, nil
	}
	lower, err := d.expand(t, refs)
	if err != nil {
		return nil, err
	}
	return d.entriesOf(t, lower, level-1)
}

// diffSpans compares two spans of subtrees covering the same key ranges.
func (d *differ) diffSpans(aRefs, bRefs []childRef) error {
	// Align levels: expand the taller side until both spans sit at the same
	// height above the leaves.
	la, err := d.spanLevel(d.old, aRefs)
	if err != nil {
		return err
	}
	lb, err := d.spanLevel(d.new, bRefs)
	if err != nil {
		return err
	}
	for la > lb && len(aRefs) > 0 {
		if aRefs, err = d.expand(d.old, aRefs); err != nil {
			return err
		}
		la--
	}
	for lb > la && len(bRefs) > 0 {
		if bRefs, err = d.expand(d.new, bRefs); err != nil {
			return err
		}
		lb--
	}
	// Two-pointer walk over same-level refs: identical hashes are pruned
	// without being read — at every level, leaves included; only the
	// maximal misaligned spans are descended into (index levels) or
	// loaded and compared element-wise (leaf level).
	ia, ib := 0, 0
	for ia < len(aRefs) || ib < len(bRefs) {
		if ia < len(aRefs) && ib < len(bRefs) &&
			aRefs[ia].id == bRefs[ib].id {
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
			cmp := bytes.Compare(aRefs[ja].splitKey, bRefs[jb].splitKey)
			switch {
			case cmp < 0:
				ja++
			case cmp > 0:
				jb++
			default:
				if aRefs[ja].id == bRefs[jb].id {
					goto spanDone
				}
				ja++
				jb++
			}
		}
	spanDone:
		if la == 0 {
			// Leaf spans: load only the mismatched leaves.
			ae, err := d.entriesOf(d.old, aRefs[ia:ja], 0)
			if err != nil {
				return err
			}
			be, err := d.entriesOf(d.new, bRefs[ib:jb], 0)
			if err != nil {
				return err
			}
			d.diffEntries(ae, be)
		} else {
			// Descend one level into the misaligned spans before
			// recursing; recursing at the same level would loop forever.
			aSub, err := d.expand(d.old, aRefs[ia:ja])
			if err != nil {
				return err
			}
			bSub, err := d.expand(d.new, bRefs[ib:jb])
			if err != nil {
				return err
			}
			if err := d.diffSpans(aSub, bSub); err != nil {
				return err
			}
		}
		ia, ib = ja, jb
	}
	return nil
}

// diffEntries merges two sorted entry lists and emits deltas.
func (d *differ) diffEntries(a, b []Entry) {
	i, j := 0, 0
	for i < len(a) || j < len(b) {
		switch {
		case i >= len(a):
			d.out = append(d.out, Delta{Key: cp(b[j].Key), To: cp(b[j].Val)})
			j++
		case j >= len(b):
			d.out = append(d.out, Delta{Key: cp(a[i].Key), From: cp(a[i].Val)})
			i++
		default:
			cmp := bytes.Compare(a[i].Key, b[j].Key)
			switch {
			case cmp < 0:
				d.out = append(d.out, Delta{Key: cp(a[i].Key), From: cp(a[i].Val)})
				i++
			case cmp > 0:
				d.out = append(d.out, Delta{Key: cp(b[j].Key), To: cp(b[j].Val)})
				j++
			default:
				if !bytes.Equal(a[i].Val, b[j].Val) {
					d.out = append(d.out, Delta{Key: cp(a[i].Key), From: cp(a[i].Val), To: cp(b[j].Val)})
				}
				i++
				j++
			}
		}
	}
}

// cp copies b, always returning a non-nil slice: present-but-empty values
// must stay distinguishable from the nil that marks an absent side.
func cp(b []byte) []byte {
	out := make([]byte, len(b))
	copy(out, b)
	return out
}

// ApplyDeltas applies a diff to a tree: each delta becomes a put (To != nil)
// or a delete.  Apply(A, Diff(A,B)) == B — the round-trip property.
func (t *Tree) ApplyDeltas(deltas []Delta) (*Tree, error) {
	ops := make([]Op, 0, len(deltas))
	for _, d := range deltas {
		if d.To == nil {
			ops = append(ops, Del(d.Key))
		} else {
			ops = append(ops, Put(d.Key, d.To))
		}
	}
	return t.Edit(ops)
}
