package index

import (
	"fmt"
	"sync"

	"forkbase/internal/chunk"
	"forkbase/internal/chunker"
	"forkbase/internal/hash"
	"forkbase/internal/store"
)

// Factory constructs indexes of one Kind.  Implementations register
// themselves from their package's init; nothing above the index layer ever
// constructs a concrete structure directly.
type Factory interface {
	// Kind identifies the structure this factory builds.
	Kind() Kind
	// Empty returns the empty index (zero root).
	Empty(st store.Store, cfg chunker.Config) VersionedIndex
	// Load attaches to an existing index by root hash.  A zero root is the
	// empty index.
	Load(st store.Store, cfg chunker.Config, root hash.Hash) (VersionedIndex, error)
	// Build constructs an index over entries (need not be sorted; duplicate
	// keys keep the last value).
	Build(st store.Store, cfg chunker.Config, entries []Entry) (VersionedIndex, error)
}

// ChildrenFunc returns the child chunk hashes an index node references
// (nil for leaves).
type ChildrenFunc func(c *chunk.Chunk) ([]hash.Hash, error)

var registry struct {
	mu       sync.RWMutex
	kinds    map[Kind]Factory
	children map[chunk.Type]ChildrenFunc
	roots    map[chunk.Type]Kind
}

// Register installs a structure's factory; called from the implementing
// package's init.  Registering the same kind twice panics — it means two
// packages claim one kind byte.
func Register(f Factory) {
	registry.mu.Lock()
	defer registry.mu.Unlock()
	if registry.kinds == nil {
		registry.kinds = map[Kind]Factory{}
	}
	if _, dup := registry.kinds[f.Kind()]; dup {
		panic(fmt.Sprintf("index: kind %s registered twice", f.Kind()))
	}
	registry.kinds[f.Kind()] = f
}

// RegisterChildren installs the child-hash decoder for one node chunk type.
// The object-graph edge rule (fnode.Refs) dispatches through Children
// instead of naming a structure.
func RegisterChildren(t chunk.Type, fn ChildrenFunc) {
	registry.mu.Lock()
	defer registry.mu.Unlock()
	if registry.children == nil {
		registry.children = map[chunk.Type]ChildrenFunc{}
	}
	if _, dup := registry.children[t]; dup {
		panic(fmt.Sprintf("index: children decoder for chunk type %s registered twice", t))
	}
	registry.children[t] = fn
}

// RegisterRoot declares that a chunk of type t can be the root of a Kind k
// index, letting Load sniff the structure from stored data.
func RegisterRoot(t chunk.Type, k Kind) {
	registry.mu.Lock()
	defer registry.mu.Unlock()
	if registry.roots == nil {
		registry.roots = map[chunk.Type]Kind{}
	}
	if prev, dup := registry.roots[t]; dup && prev != k {
		panic(fmt.Sprintf("index: root chunk type %s claimed by kinds %s and %s", t, prev, k))
	}
	registry.roots[t] = k
}

// For returns the factory for kind k, or an error when no package
// implementing k is linked in.
func For(k Kind) (Factory, error) {
	registry.mu.RLock()
	defer registry.mu.RUnlock()
	f, ok := registry.kinds[k]
	if !ok {
		return nil, fmt.Errorf("index: no factory registered for kind %s", k)
	}
	return f, nil
}

// Registered reports whether kind k has a linked-in implementation.
func Registered(k Kind) bool {
	registry.mu.RLock()
	defer registry.mu.RUnlock()
	_, ok := registry.kinds[k]
	return ok
}

// Children returns the chunk ids a node chunk references, dispatching on
// the chunk's type.  Chunk types with no registered decoder — leaves,
// FNodes, tags — reference nothing *as index nodes* and return (nil, nil).
// fnode.Refs is the one caller: it adds the FNode's own edges, and CI fails
// on a second call site.
func Children(c *chunk.Chunk) ([]hash.Hash, error) {
	registry.mu.RLock()
	fn := registry.children[c.Type()]
	registry.mu.RUnlock()
	if fn == nil {
		return nil, nil
	}
	return fn(c)
}

// KindOfRoot identifies the index structure rooted at root by reading the
// root chunk's type tag — stored data is self-describing, so a descriptor
// with no recorded kind needs no out-of-band metadata.  The sniff is a full
// st.Get of the root chunk (fetched and verified, not served by a decoded-
// node cache), so callers that already know the kind must not come here.
func KindOfRoot(st store.Store, root hash.Hash) (Kind, error) {
	c, err := st.Get(root)
	if err != nil {
		return 0, fmt.Errorf("index: sniffing root %s: %w", root.Short(), err)
	}
	registry.mu.RLock()
	k, ok := registry.roots[c.Type()]
	registry.mu.RUnlock()
	if !ok {
		return 0, fmt.Errorf("index: chunk %s (type %s) is not a known index root", root.Short(), c.Type())
	}
	return k, nil
}

// Load attaches to the index rooted at root, sniffing the structure from
// the root chunk.  A zero root loads as the empty index of hint's kind (an
// empty index has no chunk to sniff).  A caller that holds an authoritative
// kind uses LoadKind and saves the sniff.
func Load(st store.Store, cfg chunker.Config, root hash.Hash, hint Kind) (VersionedIndex, error) {
	k := hint
	if !root.IsZero() {
		var err error
		if k, err = KindOfRoot(st, root); err != nil {
			return nil, err
		}
	}
	return LoadKind(st, cfg, root, k)
}

// LoadKind attaches to the index rooted at root, of a structure the caller
// knows authoritatively — recorded on the hashed FNode, or by the
// constructor that built the value.  It does not touch the store itself: the
// factory's root load goes through the node cache, and fails with a typed
// error on a root of another family.
func LoadKind(st store.Store, cfg chunker.Config, root hash.Hash, k Kind) (VersionedIndex, error) {
	f, err := For(k)
	if err != nil {
		return nil, err
	}
	return f.Load(st, cfg, root)
}
