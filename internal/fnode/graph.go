package fnode

import (
	"fmt"

	"forkbase/internal/chunk"
	"forkbase/internal/hash"
	"forkbase/internal/index"
)

// This file is the only definition of the object graph a uid is the Merkle
// root of: FNode → bases + value root → index nodes → leaves.  Refs is the
// edge rule and Walk the traversal; garbage collection, verification, heal
// and replica sync differ only in the fetch function they hand to Walk, so
// they cannot disagree about what a version keeps reachable.

// WalkBatch is the most ids Walk hands to fetch in one call — which bounds
// the chunks a walk holds at once, and the size of a request when fetch goes
// over the wire.
const WalkBatch = 512

// Refs returns the ids c points at: an FNode links its base versions and the
// root of a composite value; an index node — of whatever structure, through
// the index layer's node-type registry — links its children; a leaf links
// nothing.  Heal and replica sync call it on bytes that have not been
// hash-checked yet, so it must reject, never trust, a malformed payload.
func Refs(c *chunk.Chunk) ([]hash.Hash, error) {
	if c.Type() != chunk.TypeFNode {
		return index.Children(c)
	}
	f, err := Decode(c.Data())
	if err != nil {
		return nil, fmt.Errorf("fnode: decoding %s: %w", c.ID().Short(), err)
	}
	v, err := f.DecodedValue()
	if err != nil {
		return nil, fmt.Errorf("fnode: value of %s: %w", c.ID().Short(), err)
	}
	refs := f.Bases
	if v.Kind().Composite() && !v.Root().IsZero() {
		refs = append(refs, v.Root())
	}
	return refs, nil
}

// Walk visits the graph under roots level by level.  Ids already in seen are
// skipped and every id handed to fetch is added to it first, so after a
// complete walk seen holds roots' closure; a caller that shares one seen
// across calls visits shared subgraphs once.  fetch receives at most
// WalkBatch ids and returns one slot per id: a chunk, whose Refs form the
// next level, or nil, which prunes the walk below that id.  Walk keeps ids,
// never chunks, past the call that returned them.
func Walk(roots []hash.Hash, seen map[hash.Hash]bool, fetch func(ids []hash.Hash) ([]*chunk.Chunk, error)) error {
	var next []hash.Hash
	enqueue := func(ids []hash.Hash) {
		for _, id := range ids {
			if !id.IsZero() && !seen[id] {
				seen[id] = true
				next = append(next, id)
			}
		}
	}
	enqueue(roots)
	for len(next) > 0 {
		level := next
		next = nil
		for len(level) > 0 {
			batch := level[:min(len(level), WalkBatch)]
			level = level[len(batch):]
			chunks, err := fetch(batch)
			if err != nil {
				return err
			}
			if len(chunks) != len(batch) {
				return fmt.Errorf("fnode: walk fetched %d chunks for %d ids", len(chunks), len(batch))
			}
			for _, c := range chunks {
				if c == nil {
					continue
				}
				refs, err := Refs(c)
				if err != nil {
					return err
				}
				enqueue(refs)
			}
		}
	}
	return nil
}
