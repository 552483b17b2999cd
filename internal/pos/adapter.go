package pos

import "forkbase/internal/index"

// This file ports the map POS-Tree behind the structure-agnostic
// index.VersionedIndex contract.  Tree already satisfies most of the
// interface directly (Get, Has, Root, Len, ChunkIDs, ComputeStats, Store);
// the methods below bridge the tree-typed signatures (Edit, Iter, Diff) to
// the interface-typed ones.  The value layer builds and loads trees by kind
// (value.LoadIndex), and the reachability walks (GC mark, verify,
// replication prune) reach IndexChildren through fnode.Refs.  Chunk encodings are untouched by this port: a DB
// written before the index layer existed reopens with byte-identical roots.

// Kind identifies the structure (index.KindPOS).
func (t *Tree) Kind() index.Kind { return index.KindPOS }

// Apply applies a batch of puts and deletes via the incremental Edit and
// returns the resulting tree as a VersionedIndex.
func (t *Tree) Apply(ops []index.Op) (index.VersionedIndex, error) {
	nt, err := t.Edit(ops)
	if err != nil {
		return nil, err
	}
	return nt, nil
}

// Iterate returns a key-ordered iterator (interface-typed Iter).
func (t *Tree) Iterate() (index.Iterator, error) {
	it, err := t.Iter()
	if err != nil {
		return nil, err
	}
	return it, nil
}

// IterateFrom returns an iterator positioned before the first key >= key.
func (t *Tree) IterateFrom(key []byte) (index.Iterator, error) {
	it, err := t.IterFrom(key)
	if err != nil {
		return nil, err
	}
	return it, nil
}

// DiffWith diffs against another index: the structural, subtree-pruning
// diff when o is also a POS-Tree, the generic iterator diff otherwise.
func (t *Tree) DiffWith(o index.VersionedIndex) ([]index.Delta, index.DiffStats, error) {
	if ot, ok := o.(*Tree); ok {
		return t.Diff(ot)
	}
	return index.GenericDiff(t, o)
}

var _ index.VersionedIndex = (*Tree)(nil)
var _ index.Iterator = (*Iter)(nil)
