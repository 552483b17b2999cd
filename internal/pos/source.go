package pos

import (
	"forkbase/internal/chunk"
	"forkbase/internal/store"
)

// node is a fully decoded POS-Tree node.  It is immutable after decode:
// entries, items and refs alias the underlying chunk payload and must never
// be mutated, which is what makes a node safe to share between concurrent
// traversals and to keep in the decoded-node cache.
type node struct {
	typ   chunk.Type
	level uint8

	entries []Entry    // TypeMapLeaf
	items   [][]byte   // TypeSeqLeaf
	blob    []byte     // TypeBlobLeaf
	refs    []childRef // TypeMapIndex / TypeSeqIndex

	encSize int // encoded chunk size (header + payload), for tree stats
}

// isLeaf reports whether the node sits at level 0 of its tree.
func (n *node) isLeaf() bool {
	switch n.typ {
	case chunk.TypeMapLeaf, chunk.TypeSeqLeaf, chunk.TypeBlobLeaf:
		return true
	}
	return false
}

// decodeNode parses a chunk into its decoded node form and the approximate
// footprint the decoded-node cache charges for it.  Non-tree chunk types
// yield a bare node carrying only the type tag and a negative size (not
// cached), so call sites keep producing their contextual "unexpected chunk"
// errors.
func decodeNode(c *chunk.Chunk) (*node, int, error) {
	n := &node{typ: c.Type(), encSize: c.Size()}
	switch c.Type() {
	case chunk.TypeMapLeaf:
		entries, err := decodeMapLeaf(c.Data())
		if err != nil {
			return nil, 0, err
		}
		n.entries = entries
		// Entries alias the payload, so the marginal footprint is the
		// payload plus per-entry slice headers.
		return n, c.Size() + len(entries)*48, nil
	case chunk.TypeMapIndex:
		level, refs, err := decodeMapIndex(c.Data())
		if err != nil {
			return nil, 0, err
		}
		n.level = level
		n.refs = refs
		return n, c.Size() + len(refs)*72, nil
	case chunk.TypeSeqLeaf:
		items, err := decodeSeqLeaf(c.Data())
		if err != nil {
			return nil, 0, err
		}
		n.items = items
		return n, c.Size() + len(items)*24, nil
	case chunk.TypeSeqIndex:
		level, refs, err := decodeSeqIndex(c.Data())
		if err != nil {
			return nil, 0, err
		}
		n.level = level
		n.refs = refs
		return n, c.Size() + len(refs)*72, nil
	case chunk.TypeBlobLeaf:
		n.blob = c.Data()
		return n, c.Size(), nil
	}
	return n, -1, nil
}

// nodeSource is the single gateway through which all POS-Tree traversal code
// obtains decoded nodes: on a cache hit the store is not touched at all, and
// a node is decoded at most once per cache residency.  Correctness rests on
// chunk immutability — a hash.Hash can only ever denote one payload, so a
// cached decode can never be stale.
type nodeSource = store.Nodes[*node]

// sourceFor builds a nodeSource over st, discovering a decoded-node cache
// if the store carries one (store.WithNodeCache / core.Options).
func sourceFor(st store.Store) nodeSource {
	return store.NodesOf(st, decodeNode)
}
