package mpt

import (
	"fmt"

	"forkbase/internal/chunk"
	"forkbase/internal/hash"
	"forkbase/internal/index"
	"forkbase/internal/store"
)

// The edit path works on a partially expanded in-memory view of the trie:
// untouched subtrees stay collapsed as (hash, count) references and are
// reused verbatim by the commit, so an edit loads and rewrites only the
// nodes along the affected paths — O(changes · depth), with everything else
// shared with the previous version.  Canonical-form normalization after
// deletes (collapsing single-slot branches, merging extension chains) is
// what keeps the structure a pure function of the record set.

// mref is a reference to a subtree under edit: either a collapsed stored
// node (id + count) or an expanded mutable node.
type mref struct {
	id    hash.Hash
	count uint64
	mem   *mnode
}

// mnode is one mutable node of the expanded region.
type mnode struct {
	kind     byte
	path     []byte // nibbles (leaf, ext)
	val      []byte
	hasVal   bool      // branch value present (leaves always carry a value)
	children [16]*mref // branch
	child    *mref     // ext
}

// editor carries the node source through an edit.
type editor struct {
	src source
}

// expand loads a collapsed reference into its mutable form.
func (e *editor) expand(r *mref) (*mnode, error) {
	if r.mem != nil {
		return r.mem, nil
	}
	n, err := e.src.Load(r.id)
	if err != nil {
		return nil, err
	}
	m := &mnode{kind: n.kind, path: n.path, val: n.val, hasVal: n.hasVal}
	switch n.kind {
	case kindExt:
		m.child = &mref{id: n.childID, count: n.childCount}
	case kindBranch:
		for i := 0; i < 16; i++ {
			if n.childMask&(1<<i) != 0 {
				m.children[i] = &mref{id: n.childIDs[i], count: n.childCounts[i]}
			}
		}
	}
	r.mem = m
	r.id = hash.Hash{} // stale once mutable
	return m, nil
}

// insert puts (path → val) under r, returning the resulting reference and
// whether the key was newly added (false = replaced).
func (e *editor) insert(r *mref, path, val []byte) (*mref, bool, error) {
	if r == nil {
		return &mref{mem: &mnode{kind: kindLeaf, path: path, val: val, hasVal: true}}, true, nil
	}
	m, err := e.expand(r)
	if err != nil {
		return nil, false, err
	}
	switch m.kind {
	case kindLeaf:
		cp := commonPrefix(m.path, path)
		if cp == len(m.path) && cp == len(path) {
			m.val = val
			return r, false, nil
		}
		// Diverge: a branch at the shared prefix routing both terminals,
		// wrapped in an extension when the prefix is non-empty.
		br := &mnode{kind: kindBranch}
		setTerminal(br, m.path[cp:], &mref{mem: &mnode{kind: kindLeaf, path: tail(m.path, cp), val: m.val, hasVal: true}})
		setTerminal(br, path[cp:], &mref{mem: &mnode{kind: kindLeaf, path: tail(path, cp), val: val, hasVal: true}})
		return wrapExt(path[:cp], &mref{mem: br}), true, nil
	case kindExt:
		cp := commonPrefix(m.path, path)
		if cp == len(m.path) {
			child, added, err := e.insert(m.child, path[cp:], val)
			if err != nil {
				return nil, false, err
			}
			m.child = child
			nr, err := e.normalizeExt(r, m)
			return nr, added, err
		}
		// Split the extension at the divergence point.
		br := &mnode{kind: kindBranch}
		// The surviving tail of the old extension: its next nibble routes to
		// the remainder (a bare branch when nothing of the path is left).
		oldNib := m.path[cp]
		if cp+1 == len(m.path) {
			br.children[oldNib] = m.child
		} else {
			br.children[oldNib] = &mref{mem: &mnode{kind: kindExt, path: tail(m.path, cp), child: m.child}}
		}
		setTerminal(br, path[cp:], &mref{mem: &mnode{kind: kindLeaf, path: tail(path, cp), val: val, hasVal: true}})
		return wrapExt(path[:cp], &mref{mem: br}), true, nil
	default: // branch
		if len(path) == 0 {
			added := !m.hasVal
			m.val, m.hasVal = val, true
			return r, added, nil
		}
		child, added, err := e.insert(m.children[path[0]], path[1:], val)
		if err != nil {
			return nil, false, err
		}
		m.children[path[0]] = child
		return r, added, nil
	}
}

// setTerminal routes a (possibly empty) remaining path into a branch: an
// empty remainder becomes the branch's own value, otherwise the first
// nibble selects the child slot.  leafRef must be a leaf holding the path's
// tail past the first nibble (callers pass tail(path, cp) / tail(path, cp+1)
// consistently via the tail helper).
func setTerminal(br *mnode, rem []byte, leafRef *mref) {
	if len(rem) == 0 {
		l := leafRef.mem
		br.val, br.hasVal = l.val, true
		return
	}
	br.children[rem[0]] = leafRef
}

// tail returns path[cut+1:] when a nibble is consumed by a branch slot, or
// nil for an empty remainder — the leaf path under a branch child.
func tail(path []byte, cut int) []byte {
	if cut >= len(path) {
		return nil
	}
	return path[cut+1:]
}

// wrapExt wraps r in an extension over prefix (no-op for an empty prefix).
func wrapExt(prefix []byte, r *mref) *mref {
	if len(prefix) == 0 {
		return r
	}
	return &mref{mem: &mnode{kind: kindExt, path: append([]byte(nil), prefix...), child: r}}
}

// remove deletes path under r, returning the resulting reference (nil when
// the subtree empties) and whether the key existed.
func (e *editor) remove(r *mref, path []byte) (*mref, bool, error) {
	if r == nil {
		return nil, false, nil
	}
	m, err := e.expand(r)
	if err != nil {
		return nil, false, err
	}
	switch m.kind {
	case kindLeaf:
		if commonPrefix(m.path, path) == len(m.path) && len(m.path) == len(path) {
			return nil, true, nil
		}
		return r, false, nil
	case kindExt:
		if commonPrefix(m.path, path) != len(m.path) {
			return r, false, nil
		}
		child, removed, err := e.remove(m.child, path[len(m.path):])
		if err != nil {
			return nil, false, err
		}
		if !removed {
			return r, false, nil
		}
		if child == nil {
			return nil, true, nil
		}
		m.child = child
		nr, err := e.normalizeExt(r, m)
		return nr, true, err
	default: // branch
		if len(path) == 0 {
			if !m.hasVal {
				return r, false, nil
			}
			m.val, m.hasVal = nil, false
		} else {
			i := path[0]
			child, removed, err := e.remove(m.children[i], path[1:])
			if err != nil {
				return nil, false, err
			}
			if !removed {
				return r, false, nil
			}
			m.children[i] = child
		}
		nr, err := e.normalizeBranch(m)
		return nr, true, err
	}
}

// normalizeExt restores the canonical invariant that an extension always
// points at a branch: a child collapsed to an extension merges paths, a
// child collapsed to a leaf becomes a longer leaf.
func (e *editor) normalizeExt(r *mref, m *mnode) (*mref, error) {
	cm, err := e.expand(m.child)
	if err != nil {
		return nil, err
	}
	switch cm.kind {
	case kindBranch:
		return r, nil
	case kindExt:
		m.path = append(append([]byte(nil), m.path...), cm.path...)
		m.child = cm.child
		return r, nil
	default: // leaf
		return &mref{mem: &mnode{
			kind:   kindLeaf,
			path:   append(append([]byte(nil), m.path...), cm.path...),
			val:    cm.val,
			hasVal: true,
		}}, nil
	}
}

// normalizeBranch restores the >= 2 occupied slots invariant after a
// delete: a branch left with only its value becomes a leaf; a branch left
// with a single child merges into that child's path.
func (e *editor) normalizeBranch(m *mnode) (*mref, error) {
	slots := 0
	only := -1
	for i := 0; i < 16; i++ {
		if m.children[i] != nil {
			slots++
			only = i
		}
	}
	if m.hasVal {
		slots++
	}
	switch {
	case slots == 0:
		return nil, nil
	case slots >= 2:
		return &mref{mem: m}, nil
	case m.hasVal:
		return &mref{mem: &mnode{kind: kindLeaf, val: m.val, hasVal: true}}, nil
	}
	// Single child: pull it up, prepending its routing nibble.
	cr := m.children[only]
	cm, err := e.expand(cr)
	if err != nil {
		return nil, err
	}
	nib := []byte{byte(only)}
	switch cm.kind {
	case kindLeaf:
		return &mref{mem: &mnode{kind: kindLeaf, path: append(nib, cm.path...), val: cm.val, hasVal: true}}, nil
	case kindExt:
		return &mref{mem: &mnode{kind: kindExt, path: append(nib, cm.path...), child: cm.child}}, nil
	default:
		return &mref{mem: &mnode{kind: kindExt, path: nib, child: cr}}, nil
	}
}

// commit writes every expanded node under r bottom-up through the sink and
// returns its chunk id and entry count.  Collapsed references are reused
// verbatim — that is the structural sharing between versions.  Emit returns
// each child's id, so it is available when the parent encodes.
func (e *editor) commit(r *mref, sink *store.ChunkSink, scratch []byte) (hash.Hash, uint64, []byte, error) {
	if r.mem == nil {
		return r.id, r.count, scratch, nil
	}
	m := r.mem
	var ids [16]hash.Hash
	var counts [16]uint64
	var mask uint16
	var total uint64
	var err error
	switch m.kind {
	case kindLeaf:
		total = 1
	case kindExt:
		ids[0], counts[0], scratch, err = e.commit(m.child, sink, scratch)
		if err != nil {
			return hash.Hash{}, 0, scratch, err
		}
		total = counts[0]
	case kindBranch:
		for i := 0; i < 16; i++ {
			if m.children[i] == nil {
				continue
			}
			ids[i], counts[i], scratch, err = e.commit(m.children[i], sink, scratch)
			if err != nil {
				return hash.Hash{}, 0, scratch, err
			}
			mask |= 1 << i
			total += counts[i]
		}
		if m.hasVal {
			total++
		}
	}
	scratch = encodeNode(scratch[:0], m.kind, m.path, m.val, m.hasVal, mask, &ids, &counts)
	id, err := sink.Emit(chunk.Type(scratch[0]), scratch)
	if err != nil {
		return hash.Hash{}, 0, scratch, fmt.Errorf("mpt: storing node: %w", err)
	}
	r.id, r.count, r.mem = id, total, nil
	return r.id, total, scratch, nil
}

// Apply applies a batch of puts and deletes and returns the resulting trie.
// Later ops win over earlier ops on the same key, matching pos.Tree.Edit.
func (t *Trie) Apply(ops []index.Op) (index.VersionedIndex, error) {
	if len(ops) == 0 {
		return t, nil
	}
	e := &editor{src: t.src}
	var root *mref
	if !t.root.IsZero() {
		root = &mref{id: t.root, count: t.count}
	}
	count := int64(t.count)
	for _, op := range ops {
		path := keyNibbles(op.Key)
		if op.Delete {
			nr, removed, err := e.remove(root, path)
			if err != nil {
				return nil, err
			}
			root = nr
			if removed {
				count--
			}
			continue
		}
		nr, added, err := e.insert(root, path, op.Val)
		if err != nil {
			return nil, err
		}
		root = nr
		if added {
			count++
		}
	}
	if root == nil {
		return New(t.src.Store()), nil
	}
	sink := store.NewChunkSink(t.src.Store())
	defer sink.Close()
	id, total, _, err := e.commit(root, sink, make([]byte, 0, 1024))
	if err != nil {
		return nil, err
	}
	if err := sink.Flush(); err != nil {
		return nil, err
	}
	if total != uint64(count) {
		return nil, fmt.Errorf("mpt: count drift: tracked %d, committed %d", count, total)
	}
	return &Trie{src: t.src, root: id, count: total}, nil
}

// Build constructs a trie over entries (need not be sorted; duplicate keys
// keep the last value).  Because the trie is canonical, the result is
// byte-identical to any edit sequence producing the same record set.
func Build(st store.Store, entries []index.Entry) (*Trie, error) {
	ops := make([]index.Op, len(entries))
	for i, e := range entries {
		ops[i] = index.Put(e.Key, e.Val)
	}
	idx, err := New(st).Apply(ops)
	if err != nil {
		return nil, err
	}
	return idx.(*Trie), nil
}
