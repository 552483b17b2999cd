package pos

import (
	"bytes"
	"fmt"
	"slices"

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
	ops = lastPerKey(ops, opKey)
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
	e, err := newLevelEditor(t.src, t.cfg, sink, chunk.TypeMapLeaf, childRef{id: t.root, count: t.count}, t.top)
	if err != nil {
		return nil, err
	}

	lb := newLevelBuilder(sink, t.cfg, 0, chunk.TypeMapLeaf)
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
			run := 0 // the first old entry not yet fed
			for ; i < len(ops); i++ {
				j := n.search(ops[i].Key)
				if j == n.len() && !last {
					break // the op falls in a later leaf
				}
				if err := lb.appendRun(n, run, j); err != nil {
					return nil, err
				}
				if err := put(ops[i]); err != nil {
					return nil, err
				}
				if run = j; j < n.len() && bytes.Equal(n.key(j), ops[i].Key) {
					run++ // replaced or deleted
				}
			}
			if err := lb.appendRun(n, run, n.len()); err != nil {
				return nil, err
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
	ops = lastPerKey(ops, opKey)
	if len(ops) == 0 {
		return t, nil
	}
	// The rebuild re-emits the entire record set, almost all of which chunks
	// identically to the existing tree; the store's put lands those as dedup
	// hits.
	it, err := t.Iter()
	if err != nil {
		return nil, err
	}
	root, err := build(editSink(t.src), t.cfg, chunk.TypeMapLeaf, func(lb *levelBuilder) error {
		advanced := it.Next()
		for advanced || len(ops) > 0 {
			cmp := -1 // the old entry goes first
			if !advanced {
				cmp = 1
			} else if len(ops) > 0 {
				cmp = bytes.Compare(it.Entry().Key, ops[0].Key)
			}
			if cmp < 0 {
				if err := lb.addEntry(it.Entry()); err != nil {
					return err
				}
				advanced = it.Next()
				continue
			}
			if op := ops[0]; !op.Delete {
				if err := lb.addEntry(Entry{Key: op.Key, Val: op.Val}); err != nil {
					return err
				}
			}
			if ops = ops[1:]; cmp == 0 {
				advanced = it.Next()
			}
		}
		return it.Err()
	})
	if err != nil {
		return nil, err
	}
	return &Tree{src: t.src, cfg: t.cfg, root: root.id, count: root.count}, nil
}

// Insert is a convenience single-key put.
func (t *Tree) Insert(key, val []byte) (*Tree, error) {
	return t.Edit([]Op{Put(key, val)})
}
