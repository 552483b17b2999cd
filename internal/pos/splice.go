package pos

import (
	"fmt"

	"forkbase/internal/chunk"
	"forkbase/internal/chunker"
	"forkbase/internal/store"
)

// This file is the one incremental-update routine behind Tree.Edit,
// Seq.Splice and Blob.Splice.  Each of those re-chunks the leaves its edit
// touches and describes the outcome as a sorted list of splices — "old nodes
// [lo, hi) of this level become refs".  raise then carries the list up the
// tree: a level's touched nodes are the next level's edit clusters, so every
// level runs the same re-chunk-until-resync step over the parents of the
// spliced ranges.  Old nodes are addressed by cursors that load index nodes
// along the touched paths only; nothing outside a splice is read, re-encoded
// or re-hashed, so the cost is O(clusters · height), not O(table).

// cursor addresses one node of an old tree level by its path from the root:
// frames[0] is a virtual frame over the root ref alone, frames[k] the index
// node at depth k with the child slot the path takes.  A cursor of depth d
// (= len(frames)) therefore addresses a node height-d levels above the
// leaves.  The zero frames slice is the position past the level's last node.
type cursor struct {
	ed     *levelEditor
	frames []iterFrame
}

func (c cursor) end() bool { return c.frames == nil }

// ref returns the addressed node's ref in its parent.
func (c cursor) ref() childRef {
	f := c.frames[len(c.frames)-1]
	return f.n.ref(f.idx)
}

func (c cursor) clone() cursor {
	return cursor{ed: c.ed, frames: append([]iterFrame(nil), c.frames...)}
}

// parent returns the position of the addressed node's parent.
func (c cursor) parent() cursor {
	return cursor{ed: c.ed, frames: append([]iterFrame(nil), c.frames[:len(c.frames)-1]...)}
}

// atNodeStart reports whether the addressed node is its parent's first child.
func (c cursor) atNodeStart() bool { return c.frames[len(c.frames)-1].idx == 0 }

// isFirst and isLast report whether the addressed node is the first or the
// last of its whole level.
func (c cursor) isFirst() bool {
	for _, f := range c.frames {
		if f.idx != 0 {
			return false
		}
	}
	return true
}

func (c cursor) isLast() bool {
	for _, f := range c.frames {
		if f.idx != f.n.len()-1 {
			return false
		}
	}
	return true
}

// samePath reports whether the first n slots of two same-level positions
// agree.
func (c cursor) samePath(o cursor, n int) bool {
	for k := n - 1; k >= 0; k-- { // paths diverge at the bottom first
		if c.frames[k].idx != o.frames[k].idx {
			return false
		}
	}
	return true
}

func (c cursor) equal(o cursor) bool {
	return len(c.frames) == len(o.frames) && c.samePath(o, len(c.frames))
}

func (c cursor) sameParent(o cursor) bool { return c.samePath(o, len(c.frames)-1) }

// descend pushes the frame of the index node c addresses, taking child slot
// pick(n).
func (c *cursor) descend(pick func(n *node) int) error {
	e := c.ed
	n, err := e.load(c.ref())
	if err != nil {
		return err
	}
	if n.typ != e.indexType() || int(n.level) != e.height-len(c.frames) {
		return fmt.Errorf("pos: edit: unexpected %s (level %d, %d refs) at depth %d of a height-%d tree",
			n.typ, n.level, n.len(), len(c.frames), e.height)
	}
	c.frames = append(c.frames, iterFrame{n: n, idx: pick(n)})
	return nil
}

func firstChild(*node) int { return 0 }

// next moves to the following node of the same level, crossing into the
// next parent (loading it) when the current one is exhausted.
func (c *cursor) next() error {
	depth := len(c.frames)
	k := depth - 1
	for ; k >= 0; k-- {
		if c.frames[k].idx++; c.frames[k].idx < c.frames[k].n.len() {
			break
		}
	}
	if k < 0 {
		c.frames = nil
		return nil
	}
	c.frames = c.frames[:k+1]
	for len(c.frames) < depth {
		if err := c.descend(firstChild); err != nil {
			return err
		}
	}
	return nil
}

// splice replaces the old nodes [lo, hi) of one level by refs.  from is the
// index of refs[0] among the refs its level builder emitted; refs itself is
// filled once the level is finished and its last node closed.  The splices
// of a level are sorted and never touch: a re-chunk ends only where the next
// edit lies beyond the node that follows.
type splice struct {
	lo, hi cursor
	from   int
	refs   []childRef
}

// resolveSplices hands each splice its share of the level's emitted refs.
func resolveSplices(spl []splice, emitted []childRef) {
	for k := range spl {
		to := len(emitted)
		if k+1 < len(spl) {
			to = spl[k+1].from
		}
		spl[k].refs = emitted[spl[k].from:to]
	}
}

// levelEditor is the state shared by the levels of one incremental update.
type levelEditor struct {
	src      nodeSource
	cfg      chunker.Config
	sink     *store.ChunkSink
	isMap    bool
	root     childRef
	rootNode *node
	above    *node // the virtual node above the root: root is its one ref
	height   int
	buf      []byte // the scratch buffer every level builder of the update runs on
}

// newLevelEditor starts an update of the tree rooted at root; rootNode is
// its decoded root, or nil to load it.
func newLevelEditor(src nodeSource, cfg chunker.Config, sink *store.ChunkSink, isMap bool, root childRef, rootNode *node) (*levelEditor, error) {
	if rootNode == nil {
		n, err := src.Load(root.id)
		if err != nil {
			return nil, fmt.Errorf("pos: edit: %w", err)
		}
		rootNode = n
	}
	e := &levelEditor{src: src, cfg: cfg, sink: sink, isMap: isMap, root: root, rootNode: rootNode, height: int(rootNode.level) + 1}
	if !rootNode.isLeaf() && rootNode.typ != e.indexType() {
		return nil, fmt.Errorf("pos: edit: unexpected root chunk type %s", rootNode.typ)
	}
	e.above = refNode(root, e.indexType())
	return e, nil
}

func (e *levelEditor) indexType() chunk.Type {
	if e.isMap {
		return chunk.TypeMapIndex
	}
	return chunk.TypeSeqIndex
}

// load returns r's node; the root, which every seek starts from, is read once.
func (e *levelEditor) load(r childRef) (*node, error) {
	if r.id == e.root.id {
		return e.rootNode, nil
	}
	n, err := e.src.Load(r.id)
	if err != nil {
		return nil, fmt.Errorf("pos: edit: %w", err)
	}
	return n, nil
}

// seek returns a cursor of the given depth whose path takes slot pick(n) at
// every index node n; depth == height addresses a leaf without loading it.
func (e *levelEditor) seek(depth int, pick func(n *node) int) (cursor, error) {
	c := cursor{ed: e, frames: make([]iterFrame, 1, depth)}
	c.frames[0] = iterFrame{n: e.above}
	for len(c.frames) < depth {
		if err := c.descend(pick); err != nil {
			return cursor{}, err
		}
	}
	return c, nil
}

// raise applies the leaf-level splices spl level by level and returns the
// root of the resulting tree (the zero ref when nothing is left).  A level
// whose old nodes are all replaced is rebuilt from its new refs alone, which
// is also how the tree grows; a level left with a single node ends the climb
// with that node as the root, so a one-child root is never emitted.
func (e *levelEditor) raise(spl []splice) (childRef, error) {
	for level := uint8(1); ; level++ {
		if len(spl) == 1 && spl[0].lo.isFirst() && spl[0].hi.end() {
			return buildLevels(e.sink, e.cfg, spl[0].refs, level, e.isMap, e.buf)
		}
		added := 0
		for _, s := range spl {
			added += len(s.refs)
		}
		if added == 0 {
			if r, ok, err := e.loneSurvivor(spl); err != nil || ok {
				return r, err
			}
		}
		var err error
		if spl, err = e.lift(spl, level); err != nil {
			return childRef{}, err
		}
	}
}

// loneSurvivor reports whether exactly one old node of spl's level lies
// outside every splice, and returns it.
func (e *levelEditor) loneSurvivor(spl []splice) (childRef, bool, error) {
	c, err := e.seek(len(spl[0].lo.frames), firstChild)
	if err != nil {
		return childRef{}, false, err
	}
	var survivor childRef
	left := 0
	for i := 0; !c.end(); {
		if i < len(spl) && c.equal(spl[i].lo) {
			c = spl[i].hi.clone()
			i++
			continue
		}
		if left++; left > 1 {
			return childRef{}, false, nil
		}
		survivor = c.ref()
		if err := c.next(); err != nil {
			return childRef{}, false, err
		}
	}
	return survivor, left == 1, nil
}

// lift turns the splices of one level into the splices of the level above
// (index level `level`).  For every parent holding a spliced child range it
// re-chunks from that parent's first child and stops at the first old parent
// start where the chunker sits on a boundary and the next lower splice lies
// beyond that parent; a tail that runs into the next splice's parent simply
// absorbs it.  One level builder and one sink barrier serve the whole level.
func (e *levelEditor) lift(lower []splice, level uint8) ([]splice, error) {
	lb := levelBuilderOn(e.buf, e.sink, e.cfg, level, e.isMap)
	var out []splice
	for i := 0; i < len(lower); {
		c := lower[i].lo.clone()
		c.frames[len(c.frames)-1].idx = 0
		sp := splice{lo: c.parent(), from: len(lb.emitted)}
		for {
			if i < len(lower) && c.equal(lower[i].lo) {
				for _, r := range lower[i].refs {
					if err := lb.addRef(r); err != nil {
						return nil, err
					}
				}
				c = lower[i].hi
				i++
				continue
			}
			if c.end() {
				break
			}
			if c.atNodeStart() && lb.atBoundary() && !(i < len(lower) && c.sameParent(lower[i].lo)) {
				sp.hi = c.parent()
				break
			}
			if err := lb.addRef(c.ref()); err != nil {
				return nil, err
			}
			if err := c.next(); err != nil {
				return nil, err
			}
		}
		out = append(out, sp)
	}
	emitted, err := lb.finish()
	if err != nil {
		return nil, err
	}
	e.buf = lb.buf
	resolveSplices(out, emitted)
	return out, nil
}

// splicePositions is the leaf pass of the count-routed variants (Seq, Blob):
// units [at, at+del) of the value rooted at root are removed and the caller's
// insertion placed at `at`.  It walks the old leaves from the one holding
// `at` until the edit is applied and atBoundary reports the caller's leaf
// builder re-synchronised with an old leaf start.  feed receives each old
// leaf with the unit range [a, b) to drop from it and whether the insertion
// goes at a; finish returns the rebuilt leaf refs.  The one resulting splice
// is raised to a root and the sink flushed.
func splicePositions(src nodeSource, cfg chunker.Config, sink *store.ChunkSink, root childRef, at, del uint64,
	atBoundary func() bool, feed func(leaf *node, a, b uint64, insert bool) error, finish func() ([]childRef, error)) (childRef, error) {
	e, err := newLevelEditor(src, cfg, sink, false, root, nil)
	if err != nil {
		return childRef{}, err
	}
	rest := at
	c, err := e.seek(e.height, func(n *node) int {
		j := 0
		for ; j < n.len()-1 && rest >= n.count(j); j++ { // an append lands in the last leaf
			rest -= n.count(j)
		}
		return j
	})
	if err != nil {
		return childRef{}, err
	}
	sp := splice{lo: c.clone()}
	pos, end, inserted := at-rest, at+del, false // pos: absolute position of the leaf c addresses
	within := func(x, n uint64) uint64 {         // x as an offset into the n units from pos
		if x <= pos {
			return 0
		}
		return min(x-pos, n)
	}
	for !c.end() && !(inserted && pos >= end && atBoundary()) {
		ref := c.ref()
		leaf, err := e.load(ref)
		if err != nil {
			return childRef{}, err
		}
		a, b := within(at, ref.count), within(end, ref.count)
		insert := !inserted && pos+a == at
		if err := feed(leaf, a, b, insert); err != nil {
			return childRef{}, err
		}
		inserted = inserted || insert
		pos += ref.count
		if err := c.next(); err != nil {
			return childRef{}, err
		}
	}
	sp.hi = c
	if sp.refs, err = finish(); err != nil {
		return childRef{}, err
	}
	newRoot, err := e.raise([]splice{sp})
	if err != nil {
		return childRef{}, err
	}
	return newRoot, sink.Flush()
}
