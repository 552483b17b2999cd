package pos

import (
	"bytes"
	"fmt"
	"slices"
	"sort"

	"forkbase/internal/chunk"
	"forkbase/internal/hash"
	"forkbase/internal/index"
)

// Op is a single mutation in an edit batch: a put (Delete=false) or a
// delete (Delete=true).  It is the shared mutation type of the
// versioned-index layer.
type Op = index.Op

// Put returns a put op; Del returns a delete op.
var (
	Put = index.Put
	Del = index.Del
)

// normalizeOps sorts ops by key keeping only the last op per key.
func normalizeOps(ops []Op) []Op {
	sorted := make([]Op, len(ops))
	copy(sorted, ops)
	sort.SliceStable(sorted, func(i, j int) bool {
		return bytes.Compare(sorted[i].Key, sorted[j].Key) < 0
	})
	out := sorted[:0]
	for i, o := range sorted {
		if i+1 < len(sorted) && bytes.Equal(o.Key, sorted[i+1].Key) {
			continue
		}
		out = append(out, o)
	}
	return out
}

// Edit applies a batch of mutations and returns the resulting tree.
//
// The edit is *incremental* and its cost follows the batch, not the table.
// The ops are grouped into clusters by the old leaves they fall in: for each
// cluster one root→leaf path is read, chunking restarts at that leaf's first
// entry and stops at the first old leaf boundary the chunker re-synchronises
// with once no further op falls in the leaf that follows (a tail that runs
// into the next op's leaf absorbs it, so a dense batch is one long splice).
// The resulting list of leaf splices is carried up by levelEditor.raise, which
// re-chunks only the index nodes above them; every node outside a splice — at
// every level — is reused verbatim without being read (SIRI property 2,
// "recursively identical").  Splices that reproduce their old leaves are
// dropped, so a batch of no-ops returns t itself and writes nothing.  The
// result is guaranteed byte-identical to rebuilding the tree from scratch
// over the edited record set; the property tests enforce this against
// EditRebuild.
func (t *Tree) Edit(ops []Op) (*Tree, error) {
	ops = normalizeOps(ops)
	if len(ops) == 0 {
		return t, nil
	}
	if t.root.IsZero() {
		var entries []Entry
		for _, o := range ops {
			if !o.Delete {
				entries = append(entries, Entry{Key: o.Key, Val: o.Val})
			}
		}
		return BuildMap(t.src.Store(), t.cfg, entries)
	}

	// Nodes whose bytes already exist (identity rewrites, shared subtrees)
	// ride in the sink's batch and the store's put turns them away.  The
	// deferred Close lands stray emissions on the no-new-tree return paths;
	// the path that returns a new tree flushes explicitly.
	sink := editSink(t.src)
	defer sink.Close()
	e, err := newLevelEditor(t.src, t.cfg, sink, true, childRef{id: t.root, count: t.count}, t.top)
	if err != nil {
		return nil, err
	}

	lb := newLevelBuilder(sink, t.cfg, 0, true)
	put := func(o Op) error {
		if o.Delete {
			return nil
		}
		return lb.addEntry(Entry{Key: o.Key, Val: o.Val})
	}
	var spl []splice
	var replaced [][]hash.Hash // replaced[k]: ids of the old leaves spl[k] covers
	for i := 0; i < len(ops); {
		key := ops[i].Key
		c, err := e.seek(e.height, func(n *node) int {
			return min(n.search(key), n.len()-1) // beyond the greatest key: the op lands in the last leaf
		})
		if err != nil {
			return nil, err
		}
		sp := splice{lo: c.clone(), from: len(lb.emitted)}
		var ids []hash.Hash
		for !c.end() {
			ref, last := c.ref(), c.isLast()
			if lb.atBoundary() && (i == len(ops) || !last && bytes.Compare(ops[i].Key, ref.splitKey) > 0) {
				break
			}
			n, err := e.load(ref)
			if err != nil {
				return nil, err
			}
			if n.typ != chunk.TypeMapLeaf {
				return nil, fmt.Errorf("pos: expected map leaf, got %s", n.typ)
			}
			ids = append(ids, ref.id)
			for j := 0; j < n.len(); j++ {
				old := n.entry(j)
				for ; i < len(ops) && bytes.Compare(ops[i].Key, old.Key) < 0; i++ {
					if err := put(ops[i]); err != nil {
						return nil, err
					}
				}
				if i < len(ops) && bytes.Equal(ops[i].Key, old.Key) {
					err = put(ops[i])
					i++
				} else {
					err = lb.addEntry(old)
				}
				if err != nil {
					return nil, err
				}
			}
			for ; last && i < len(ops); i++ {
				if err := put(ops[i]); err != nil {
					return nil, err
				}
			}
			if err := c.next(); err != nil {
				return nil, err
			}
		}
		sp.hi = c
		spl, replaced = append(spl, sp), append(replaced, ids)
	}
	emitted, err := lb.finish()
	if err != nil {
		return nil, err
	}
	e.buf = lb.buf
	resolveSplices(spl, emitted)
	changed := spl[:0]
	for k, sp := range spl {
		if !slices.EqualFunc(sp.refs, replaced[k], func(r childRef, id hash.Hash) bool { return r.id == id }) {
			changed = append(changed, sp)
		}
	}
	if len(changed) == 0 {
		return t, nil // every op was a no-op
	}
	root, err := e.raise(changed)
	if err != nil {
		return nil, err
	}
	if err := sink.Flush(); err != nil {
		return nil, err
	}
	return &Tree{src: t.src, cfg: t.cfg, root: root.id, count: root.count}, nil
}

// EditRebuild is the reference implementation of Edit: it streams the entire
// edited record set through a fresh build.  It must produce a byte-identical
// tree to Edit; it exists for the incremental-vs-rebuild ablation and as the
// oracle for property tests.
func (t *Tree) EditRebuild(ops []Op) (*Tree, error) {
	ops = normalizeOps(ops)
	if len(ops) == 0 {
		return t, nil
	}
	// The rebuild re-emits the entire record set, almost all of which chunks
	// identically to the existing tree; the store's put lands those as dedup
	// hits.
	sink := editSink(t.src)
	defer sink.Close()
	lb := newLevelBuilder(sink, t.cfg, 0, true)
	feed := func(e Entry) error {
		return lb.addEntry(e)
	}
	it, err := t.Iter()
	if err != nil {
		return nil, err
	}
	opIdx := 0
	advanced := it.Next()
	for advanced || opIdx < len(ops) {
		switch {
		case advanced && opIdx < len(ops):
			e, op := it.Entry(), ops[opIdx]
			cmp := bytes.Compare(e.Key, op.Key)
			switch {
			case cmp < 0:
				if err := feed(e); err != nil {
					return nil, err
				}
				advanced = it.Next()
			case cmp == 0:
				if !op.Delete {
					if err := feed(Entry{Key: op.Key, Val: op.Val}); err != nil {
						return nil, err
					}
				}
				advanced = it.Next()
				opIdx++
			default:
				if !op.Delete {
					if err := feed(Entry{Key: op.Key, Val: op.Val}); err != nil {
						return nil, err
					}
				}
				opIdx++
			}
		case advanced:
			if err := feed(it.Entry()); err != nil {
				return nil, err
			}
			advanced = it.Next()
		default:
			op := ops[opIdx]
			if !op.Delete {
				if err := feed(Entry{Key: op.Key, Val: op.Val}); err != nil {
					return nil, err
				}
			}
			opIdx++
		}
	}
	if err := it.Err(); err != nil {
		return nil, err
	}
	leaves, err := lb.finish()
	if err != nil {
		return nil, err
	}
	root, err := buildLevels(sink, t.cfg, leaves, 1, true, lb.buf)
	if err != nil {
		return nil, err
	}
	if err := sink.Flush(); err != nil {
		return nil, err
	}
	return &Tree{src: t.src, cfg: t.cfg, root: root.id, count: root.count}, nil
}

// Insert is a convenience single-key put.
func (t *Tree) Insert(key, val []byte) (*Tree, error) {
	return t.Edit([]Op{Put(key, val)})
}

// Remove is a convenience single-key delete.
func (t *Tree) Remove(key []byte) (*Tree, error) {
	return t.Edit([]Op{Del(key)})
}
