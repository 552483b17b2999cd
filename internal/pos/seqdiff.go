package pos

import (
	"forkbase/internal/chunk"
	"forkbase/internal/hash"
)

// SeqRange describes one differing region between two sequences (or blobs):
// positions [AStart, AEnd) of the old sequence were replaced by positions
// [BStart, BEnd) of the new one.  Positions are items for sequences and
// bytes for blobs.
//
// Ranges are chunk-aligned: because identical content chunks identically,
// the common prefix and suffix prune at page granularity, so a range
// over-approximates the true edit by less than one page on each side.
type SeqRange struct {
	AStart, AEnd uint64
	BStart, BEnd uint64
}

// DiffSeq reports the differing regions between two sequences, pruning
// shared leaves by hash from both ends (the positional analogue of the map
// tree's sub-tree pruning).
func DiffSeq(a, b *Seq) ([]SeqRange, error) {
	if a.Root() == b.Root() {
		return nil, nil
	}
	al, err := flattenSeqLeaves(a.src, a.root)
	if err != nil {
		return nil, err
	}
	bl, err := flattenSeqLeaves(b.src, b.root)
	if err != nil {
		return nil, err
	}
	return diffLeafRuns(al, bl), nil
}

// DiffBlob is DiffSeq for blobs; positions are byte offsets.
func DiffBlob(a, b *Blob) ([]SeqRange, error) {
	if a.Root() == b.Root() {
		return nil, nil
	}
	al, err := flattenSeqLeaves(a.src, a.root)
	if err != nil {
		return nil, err
	}
	bl, err := flattenSeqLeaves(b.src, b.root)
	if err != nil {
		return nil, err
	}
	return diffLeafRuns(al, bl), nil
}

// flattenSeqLeaves lists the leaf refs of a sequence/blob tree in order.
func flattenSeqLeaves(src nodeSource, root hash.Hash) ([]childRef, error) {
	if root.IsZero() {
		return nil, nil
	}
	var out []childRef
	var walk func(id hash.Hash, count uint64) error
	walk = func(id hash.Hash, count uint64) error {
		n, err := src.Load(id)
		if err != nil {
			return err
		}
		switch n.typ {
		case chunk.TypeSeqLeaf, chunk.TypeBlobLeaf:
			out = append(out, childRef{id: id, count: count})
			return nil
		case chunk.TypeSeqIndex:
			for _, r := range n.refs {
				if err := walk(r.id, r.count); err != nil {
					return err
				}
			}
			return nil
		default:
			return errTrunc("sequence node")
		}
	}
	// Root count is unknown here; recompute from node if needed.  For the
	// leaf case the count argument is only used for positions, so load it.
	n, err := src.Load(root)
	if err != nil {
		return nil, err
	}
	switch n.typ {
	case chunk.TypeSeqLeaf:
		return []childRef{{id: root, count: uint64(len(n.items))}}, nil
	case chunk.TypeBlobLeaf:
		return []childRef{{id: root, count: uint64(len(n.blob))}}, nil
	default:
		if err := walk(root, 0); err != nil {
			return nil, err
		}
		return out, nil
	}
}

// diffLeafRuns prunes the common prefix and suffix of two leaf runs by
// chunk hash and emits the remaining middle as differing ranges, splitting
// on interior re-synchronisation points (leaves present in both middles in
// order).
func diffLeafRuns(a, b []childRef) []SeqRange {
	// Prune common prefix.
	i := 0
	var aPos, bPos uint64
	for i < len(a) && i < len(b) && a[i].id == b[i].id {
		aPos += a[i].count
		bPos += b[i].count
		i++
	}
	// Prune common suffix (not crossing the prefix).
	ja, jb := len(a), len(b)
	for ja > i && jb > i && a[ja-1].id == b[jb-1].id {
		ja--
		jb--
	}
	midA, midB := a[i:ja], b[i:jb]
	if len(midA) == 0 && len(midB) == 0 {
		return nil
	}
	// Interior re-sync: greedy two-pointer match of identical leaves within
	// the middles, splitting one big range into several precise ones.
	var out []SeqRange
	ia, ib := 0, 0
	curA, curB := aPos, bPos
	startA, startB := curA, curB
	flush := func(endA, endB uint64) {
		if endA > startA || endB > startB {
			out = append(out, SeqRange{AStart: startA, AEnd: endA, BStart: startB, BEnd: endB})
		}
	}
	for ia < len(midA) || ib < len(midB) {
		// Look for the next matching pair from the current positions.
		matchA, matchB := -1, -1
	search:
		for da := 0; ia+da < len(midA); da++ {
			for db := 0; ib+db < len(midB); db++ {
				if midA[ia+da].id == midB[ib+db].id {
					matchA, matchB = ia+da, ib+db
					break search
				}
			}
		}
		if matchA < 0 {
			// No further sync: everything left is one range.
			endA, endB := curA, curB
			for ; ia < len(midA); ia++ {
				endA += midA[ia].count
			}
			for ; ib < len(midB); ib++ {
				endB += midB[ib].count
			}
			flush(endA, endB)
			return out
		}
		endA, endB := curA, curB
		for ; ia < matchA; ia++ {
			endA += midA[ia].count
		}
		for ; ib < matchB; ib++ {
			endB += midB[ib].count
		}
		flush(endA, endB)
		// Skip the matched leaf on both sides.
		endA += midA[ia].count
		endB += midB[ib].count
		ia++
		ib++
		curA, curB = endA, endB
		startA, startB = endA, endB
	}
	return out
}
