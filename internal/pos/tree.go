package pos

import (
	"bytes"
	"errors"
	"fmt"

	"forkbase/internal/chunk"
	"forkbase/internal/chunker"
	"forkbase/internal/hash"
	"forkbase/internal/index"
	"forkbase/internal/store"
)

// Tree is an immutable map POS-Tree rooted at a chunk hash.
//
// A Tree value is a lightweight handle (node source + root id + cached
// count); all operations that "modify" the tree return a new Tree sharing
// unchanged chunks with the old one.  All reads go through the tree's
// nodeSource, so a store with an attached decoded-node cache serves hot
// nodes without re-fetching or re-decoding them.  A handle from LoadTree
// also keeps the root node it read for the count, and every read starts
// from it.
type Tree struct {
	src   nodeSource
	cfg   chunker.Config
	root  hash.Hash
	top   *node // the decoded root, when LoadTree read it
	count uint64
}

// LoadTree attaches to an existing tree by root hash.  A zero root is the
// empty tree.  The root node is read to recover the entry count, and kept.
func LoadTree(st store.Store, cfg chunker.Config, root hash.Hash) (*Tree, error) {
	t := &Tree{src: sourceFor(st), cfg: cfg, root: root}
	if root.IsZero() {
		return t, nil
	}
	n, err := t.src.Load(root)
	if err != nil {
		return nil, fmt.Errorf("pos: loading root: %w", err)
	}
	switch n.typ {
	case chunk.TypeMapLeaf:
		t.count = uint64(n.len())
	case chunk.TypeMapIndex:
		for i := 0; i < n.len(); i++ {
			t.count += n.count(i)
		}
	default:
		return nil, fmt.Errorf("pos: root %s is a %s, not a map node", root.Short(), n.typ)
	}
	t.top = n
	return t, nil
}

// load returns the node id names, the kept root without a store read.
func (t *Tree) load(id hash.Hash) (*node, error) {
	if t.top != nil && id == t.root {
		return t.top, nil
	}
	return t.src.Load(id)
}

// Root returns the root hash; zero for the empty tree.  Because of SIRI
// structural invariance, two trees hold the same record set if and only if
// their roots are equal — this single comparison is what makes Diff prune
// and dedup share.
func (t *Tree) Root() hash.Hash { return t.root }

// Len returns the number of entries.
func (t *Tree) Len() uint64 { return t.count }

// Get returns the value stored under key, or index.ErrKeyNotFound.
//
// The returned slice aliases shared decoded node data (like Iter.Entry and
// chunk.Data): callers must not modify it, and should copy before holding
// it long-term.
func (t *Tree) Get(key []byte) ([]byte, error) {
	if t.root.IsZero() {
		return nil, index.ErrKeyNotFound
	}
	n, err := t.load(t.root)
	for err == nil {
		switch n.typ {
		case chunk.TypeMapLeaf:
			if i := n.search(key); i < n.len() {
				if e := n.entry(i); bytes.Equal(e.Key, key) {
					return e.Val, nil
				}
			}
			return nil, index.ErrKeyNotFound
		case chunk.TypeMapIndex:
			// Descend into the first child whose split key (greatest key in
			// subtree) is >= key — the B+-tree routing rule from the paper.
			i := n.search(key)
			if i == n.len() {
				return nil, index.ErrKeyNotFound
			}
			n, err = t.src.Load(n.ref(i).id)
		default:
			return nil, fmt.Errorf("pos: unexpected chunk type %s in map tree", n.typ)
		}
	}
	return nil, fmt.Errorf("pos: get: %w", err)
}

// Has reports whether key is present.
func (t *Tree) Has(key []byte) (bool, error) {
	_, err := t.Get(key)
	if errors.Is(err, index.ErrKeyNotFound) {
		return false, nil
	}
	if err != nil {
		return false, err
	}
	return true, nil
}

// Entries materialises every entry in key order.  Intended for small trees
// and tests; large trees should use Iter.
func (t *Tree) Entries() ([]Entry, error) {
	var out []Entry
	it, err := t.Iter()
	if err != nil {
		return nil, err
	}
	for it.Next() {
		e := it.Entry()
		out = append(out, Entry{
			Key: append([]byte(nil), e.Key...),
			Val: append([]byte(nil), e.Val...),
		})
	}
	return out, it.Err()
}

// ComputeStats walks the whole tree and reports its shape (index.Stats), the
// quantity behind the paper's Fig 2 (node structure) experiment.
func (t *Tree) ComputeStats() (index.Stats, error) {
	st := index.Stats{Entries: t.count, MinNode: 1 << 30}
	if t.root.IsZero() {
		st.MinNode = 0
		return st, nil
	}
	var walk func(id hash.Hash, depth int) error
	walk = func(id hash.Hash, depth int) error {
		n, err := t.src.Load(id)
		if err != nil {
			return err
		}
		st.Nodes++
		sz := n.encSize
		st.Bytes += int64(sz)
		if sz < st.MinNode {
			st.MinNode = sz
		}
		if sz > st.MaxNode {
			st.MaxNode = sz
		}
		if depth+1 > st.Height {
			st.Height = depth + 1
		}
		if n.isLeaf() {
			st.LeafNodes++
			st.LeafBytes += int64(sz)
			return nil
		}
		st.IndexNodes++
		for i := 0; i < n.len(); i++ {
			if err := walk(n.ref(i).id, depth+1); err != nil {
				return err
			}
		}
		return nil
	}
	if err := walk(t.root, 0); err != nil {
		return index.Stats{}, err
	}
	return st, nil
}

// ChunkIDs returns the ids of every chunk in the tree (root included).
// Used by merge-reuse accounting (Fig 3) and by tests picking chunks to
// corrupt; reachability walks go through fnode.Walk instead.
func (t *Tree) ChunkIDs() ([]hash.Hash, error) { return chunkIDs(t.src, t.root) }

// chunkIDs lists, in pre-order, the id of every node under root of a map,
// sequence or blob tree.  Only index nodes are read: a level-1 node's refs
// already are its leaves' ids.
func chunkIDs(src nodeSource, root hash.Hash) ([]hash.Hash, error) {
	if root.IsZero() {
		return nil, nil
	}
	out := []hash.Hash{root}
	var walk func(id hash.Hash) error
	walk = func(id hash.Hash) error {
		n, err := src.Load(id)
		if err != nil {
			return err
		}
		if n.isLeaf() {
			return nil
		}
		for i := 0; i < n.len(); i++ {
			id := n.ref(i).id
			out = append(out, id)
			if n.level > 1 {
				if err := walk(id); err != nil {
					return err
				}
			}
		}
		return nil
	}
	if err := walk(root); err != nil {
		return nil, err
	}
	return out, nil
}
