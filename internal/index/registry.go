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

// LoadKind attaches to the index of kind k rooted at root (a zero root is the
// empty index).  Stored data is not sniffed: the kind is recorded on the
// hashed FNode, known to the constructor that built the value, or else the
// caller's default.  It does not touch the store itself: the factory's root
// load goes through the node cache, and fails with a typed error on a root of
// another family.
func LoadKind(st store.Store, cfg chunker.Config, root hash.Hash, k Kind) (VersionedIndex, error) {
	f, err := For(k)
	if err != nil {
		return nil, err
	}
	return f.Load(st, cfg, root)
}
