package pos

import (
	"forkbase/internal/chunk"
	"forkbase/internal/hash"
	"forkbase/internal/nodecache"
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
	memSize int // approximate decoded footprint, for cache accounting
}

// isLeaf reports whether the node sits at level 0 of its tree.
func (n *node) isLeaf() bool {
	switch n.typ {
	case chunk.TypeMapLeaf, chunk.TypeSeqLeaf, chunk.TypeBlobLeaf:
		return true
	}
	return false
}

// cacheable reports whether the node type belongs in the decoded-node cache.
func (n *node) cacheable() bool {
	switch n.typ {
	case chunk.TypeMapLeaf, chunk.TypeMapIndex, chunk.TypeSeqLeaf,
		chunk.TypeSeqIndex, chunk.TypeBlobLeaf:
		return true
	}
	return false
}

// decodeNode parses a chunk into its decoded node form.  Non-tree chunk
// types yield a bare node carrying only the type tag, so call sites keep
// producing their contextual "unexpected chunk" errors.
func decodeNode(c *chunk.Chunk) (*node, error) {
	n := &node{typ: c.Type(), encSize: c.Size()}
	switch c.Type() {
	case chunk.TypeMapLeaf:
		entries, err := decodeMapLeaf(c.Data())
		if err != nil {
			return nil, err
		}
		n.entries = entries
		// Entries alias the payload, so the marginal footprint is the
		// payload plus per-entry slice headers.
		n.memSize = c.Size() + len(entries)*48
	case chunk.TypeMapIndex:
		level, refs, err := decodeMapIndex(c.Data())
		if err != nil {
			return nil, err
		}
		n.level = level
		n.refs = refs
		n.memSize = c.Size() + len(refs)*72
	case chunk.TypeSeqLeaf:
		items, err := decodeSeqLeaf(c.Data())
		if err != nil {
			return nil, err
		}
		n.items = items
		n.memSize = c.Size() + len(items)*24
	case chunk.TypeSeqIndex:
		level, refs, err := decodeSeqIndex(c.Data())
		if err != nil {
			return nil, err
		}
		n.level = level
		n.refs = refs
		n.memSize = c.Size() + len(refs)*72
	case chunk.TypeBlobLeaf:
		n.blob = c.Data()
		n.memSize = c.Size()
	default:
		n.memSize = c.Size()
	}
	return n, nil
}

// nodeSource is the single gateway through which all POS-Tree traversal code
// obtains decoded nodes.  It couples a chunk store with an optional decoded-
// node cache: on a hit the store is not touched at all, and a node is
// decoded at most once per cache residency.  Correctness rests on chunk
// immutability — a hash.Hash can only ever denote one payload, so a cached
// decode can never be stale.
type nodeSource struct {
	st    store.Store
	cache *nodecache.Cache
}

// sourceFor builds a nodeSource over st, discovering a decoded-node cache
// if the store carries one (store.WithNodeCache / core.Options).
func sourceFor(st store.Store) nodeSource {
	return nodeSource{st: st, cache: store.NodeCacheOf(st)}
}

// load returns the decoded node identified by id, consulting the cache
// first.  The cache is shared with MPT nodes and FNodes, so a hit of another
// kind (a ref naming a foreign object) falls through to the store, whose
// chunk type the caller then rejects.
func (ns nodeSource) load(id hash.Hash) (*node, error) {
	if ns.cache != nil {
		if v, ok := ns.cache.Get(id); ok {
			if n, ok := v.(*node); ok {
				return n, nil
			}
		}
	}
	c, err := ns.st.Get(id)
	if err != nil {
		return nil, err
	}
	n, err := decodeNode(c)
	if err != nil {
		return nil, err
	}
	if ns.cache != nil && n.cacheable() {
		ns.cache.Put(id, n, n.memSize)
		// GC may have deleted the chunk (and purged the cache) between our
		// store Get and the Put above, which would leave a swept node
		// resident forever.  The GC purge strictly follows its store
		// delete, so re-checking the store after our insert closes the
		// window: if the chunk is gone now, our entry is the stale one.
		if ok, herr := ns.st.Has(id); herr != nil || !ok {
			ns.cache.Remove(id)
		}
	}
	return n, nil
}

// cacheFill is the store an edit writes through when its source has a
// decoded-node cache.  An edit reads only the paths it touches, so nothing
// else would bring the nodes it has just built into the cache before their
// first read — the next commit's descent from the new root, a diff against
// the new version — and that read would fetch (on a remote store: a round
// trip) and decode bytes this process produced a moment ago.  Every batch
// is therefore decoded into the cache *before* it is put, so the put itself
// revalidates the inserts: once it succeeds the store held each chunk after
// its insert, and a GC sweep deleting one later purges it after the delete.
// A failed put evicts the whole batch.
type cacheFill struct {
	store.Store
	cache *nodecache.Cache
}

func (f cacheFill) Unwrap() store.Store { return f.Store }

func (f cacheFill) PutBatch(cs []*chunk.Chunk) ([]bool, error) {
	for _, c := range cs {
		if f.cache.Contains(c.ID()) {
			continue // a re-emitted node: its decode is already resident
		}
		if n, err := decodeNode(c); err == nil && n.cacheable() {
			f.cache.Put(c.ID(), n, n.memSize)
		}
	}
	fresh, err := f.Store.PutBatch(cs)
	if err != nil {
		for _, c := range cs {
			f.cache.Remove(c.ID())
		}
	}
	return fresh, err
}
