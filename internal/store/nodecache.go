package store

import "forkbase/internal/nodecache"

// NodeCacheProvider is the optional capability by which a store advertises a
// decoded-node cache to higher layers: packages pos and mpt cache their index
// nodes in it and package fnode its version objects (FNodes).  The cache is
// keyed by chunk id, and because chunks are immutable and content-addressed
// the cache never needs invalidation — only GC deletion needs to call Remove.
// One id space holds every kind, so a reader checks the type of each hit and
// treats a hit of another kind as a miss.
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
