package store

import (
	"forkbase/internal/chunk"
	"forkbase/internal/hash"
	"forkbase/internal/nodecache"
)

// NodeCacheProvider is the optional capability by which a store advertises a
// decoded-node cache to higher layers: packages pos and mpt cache their index
// nodes in it and package fnode its version objects (FNodes), all through
// Nodes.  The cache is keyed by chunk id, and because chunks are immutable and
// content-addressed the cache never needs invalidation — only GC deletion
// and scrub quarantine, which retire the bytes decodes alias, purge it.  One
// id space holds every kind, so Nodes checks the type of each hit and treats
// a hit of another kind as a miss.
//
// Attaching the cache to the store handle (rather than threading it through
// every tree constructor) means every POS-Tree, trie, sequence, blob and
// version read over the same store shares one cache and one byte budget,
// which is exactly the sharing the paper's structural invariance promises:
// hot nodes common to many versions and branches are decoded once.
type NodeCacheProvider interface {
	NodeCache() *nodecache.Cache
}

// nodeCachedStore attaches a decoded-node cache to an inner store: a value
// plus Unwrap, every Store method is the embedded store's.
type nodeCachedStore struct {
	Store
	cache *nodecache.Cache
}

// WithNodeCache returns a store that carries cache for the read path to
// discover.  A nil cache returns inner unchanged.  core.Open attaches the
// cache *above* the verifying layer — WithNodeCache(NewVerifyingStore(raw),
// c) — so nodes enter it only after passing verification.
func WithNodeCache(inner Store, cache *nodecache.Cache) Store {
	if cache == nil {
		return inner
	}
	return &nodeCachedStore{Store: inner, cache: cache}
}

// NodeCache implements NodeCacheProvider.
func (s *nodeCachedStore) NodeCache() *nodecache.Cache { return s.cache }

// Unwrap exposes the inner store to As.
func (s *nodeCachedStore) Unwrap() Store { return s.Store }

// NodeCacheOf returns the decoded-node cache attached anywhere in st's
// stack, or nil (nodecache methods are nil-safe).
func NodeCacheOf(st Store) *nodecache.Cache {
	if p, ok := As[NodeCacheProvider](st); ok {
		return p.NodeCache()
	}
	return nil
}

// Nodes is the one gateway through which decoded nodes of type T — a POS or
// MPT node, an FNode — are read from and written to a store and the
// decoded-node cache attached to it.  decode turns a verified chunk into its
// node and the bytes it costs the cache; a negative size means "do not
// cache".  With no cache in st's stack every call goes straight to the store.
//
// The one hard part is staying coherent with GC, whose sweep deletes a chunk
// from the store first and purges it from the cache second.  Two rules keep a
// swept id from staying resident:
//   - a read inserts its decode and then asks the store, once, whether the
//     chunk is still there (a sweep between its Get and its insert would
//     otherwise leave the decode behind);
//   - a write inserts before the put that lands the chunk and evicts if the
//     put fails, so a successful put is the moment the store held the chunk
//     after the insert, and a sweep that deletes it later purges it later.
type Nodes[T any] struct {
	st     Store
	cache  *nodecache.Cache
	decode func(*chunk.Chunk) (T, int, error)
}

// NodesOf returns the gateway over st (and the cache attached to it, if any)
// for nodes that decode decodes.
func NodesOf[T any](st Store, decode func(*chunk.Chunk) (T, int, error)) Nodes[T] {
	return Nodes[T]{st: st, cache: NodeCacheOf(st), decode: decode}
}

// Store returns the store the gateway reads and writes.
func (ns Nodes[T]) Store() Store { return ns.st }

// Load returns the node identified by id.  A cache hit of type T touches no
// store; a hit of another kind (a ref naming a foreign object) falls through
// to the store, and decode reports the mismatch.  A miss reads and verifies
// the chunk, decodes it, and caches the decode under the read rule.
func (ns Nodes[T]) Load(id hash.Hash) (T, error) {
	if v, ok := ns.cache.Get(id); ok {
		if n, ok := v.(T); ok {
			return n, nil
		}
	}
	var zero T
	c, err := ns.st.Get(id)
	if err != nil {
		return zero, err
	}
	if err := c.Verify(id); err != nil {
		return zero, err
	}
	n, size, err := ns.decode(c)
	if err != nil {
		return zero, err
	}
	if ns.cache != nil && size >= 0 {
		ns.cache.Put(id, n, size)
		if ok, herr := ns.st.Has(id); herr != nil || !ok {
			ns.cache.Remove(id)
		}
	}
	return n, nil
}

// PutBatch stores cs with one PutBatch under the write rule.  decoded(i) is
// the caller's own decode of cs[i] and its size, so a node just encoded is not
// decoded again; with decoded nil, each chunk
// not yet resident (a re-emitted node's decode usually is) is decoded here,
// and one that fails to decode goes uncached.
func (ns Nodes[T]) PutBatch(cs []*chunk.Chunk, decoded func(i int) (T, int)) ([]bool, error) {
	for i, c := range cs {
		if ns.cache == nil {
			break
		} else if decoded != nil {
			n, size := decoded(i)
			ns.cache.Put(c.ID(), n, size)
		} else if !ns.cache.Contains(c.ID()) {
			if n, size, err := ns.decode(c); err == nil && size >= 0 {
				ns.cache.Put(c.ID(), n, size)
			}
		}
	}
	fresh, err := ns.st.PutBatch(cs)
	if err != nil {
		for _, c := range cs {
			ns.cache.Remove(c.ID())
		}
	}
	return fresh, err
}

// WriteThrough returns a store whose PutBatch is ns.PutBatch(cs, nil): the
// write side for a producer, such as an edit's ChunkSink, that emits encodings
// and never holds their decodes.  Without a cache it is ns's store itself.
func (ns Nodes[T]) WriteThrough() Store {
	if ns.cache == nil {
		return ns.st
	}
	return writeThrough[T]{Store: ns.st, ns: ns}
}

type writeThrough[T any] struct {
	Store
	ns Nodes[T]
}

func (w writeThrough[T]) Unwrap() Store { return w.Store }

func (w writeThrough[T]) PutBatch(cs []*chunk.Chunk) ([]bool, error) {
	return w.ns.PutBatch(cs, nil)
}
