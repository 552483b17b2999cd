package fnode

import (
	"fmt"
	"slices"

	"forkbase/internal/chunk"
	"forkbase/internal/hash"
	"forkbase/internal/mpt"
	"forkbase/internal/pos"
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
// root of a composite value; an index node — of either structure, told apart
// by its chunk type — links its children; a leaf links nothing.  Heal and
// replica sync call it on bytes that have not been hash-checked yet, so it
// must reject, never trust, a malformed payload.
func Refs(c *chunk.Chunk) ([]hash.Hash, error) {
	switch c.Type() {
	case chunk.TypeFNode: // decoded below
	case chunk.TypeMPTNode:
		return mpt.Children(c)
	default:
		return pos.IndexChildren(c)
	}
	f, err := Decode(c.Data())
	if err != nil {
		return nil, fmt.Errorf("fnode: decoding %s: %w", c.ID().Short(), err)
	}
	v := f.Value
	refs := f.Bases
	if v.Kind().Composite() && !v.Root().IsZero() {
		refs = append(refs, v.Root())
	}
	return refs, nil
}

// Walk visits the graph under roots depth-first and post-order: done (nil
// for none) gets a chunk once everything it points at is done, so children
// come strictly before parents on every path.  The ids to fetch form one
// stack; fetch gets the top WalkBatch of them, whatever their depth, and
// returns one slot per id: a chunk, whose refs go on top, or nil, which
// prunes the walk there.  So fetch rounds follow the graph's depth, a walk
// holds about depth × WalkBatch chunks (none past its batch without done),
// not the closure, and Refs runs once per chunk.  An id handed to fetch is
// added to seen, which callers may share across walks, and not fetched
// again; with done, it is false there while in flight and true once done.
func Walk(roots []hash.Hash, seen map[hash.Hash]bool, fetch func(ids []hash.Hash) ([]*chunk.Chunk, error), done func(*chunk.Chunk) error) error {
	w := walker{seen: seen, done: done}
	w.push(-1, roots)
	for len(w.ids) > 0 {
		at := max(0, len(w.ids)-WalkBatch)
		ids, parents := slices.Clone(w.ids[at:]), slices.Clone(w.parents[at:])
		w.ids, w.parents = w.ids[:at], w.parents[:at]
		chunks, err := fetch(ids)
		if err == nil && len(chunks) != len(ids) {
			err = fmt.Errorf("fnode: walk fetched %d chunks for %d ids", len(chunks), len(ids))
		}
		for i := 0; err == nil && i < len(ids); i++ {
			if chunks[i] != nil {
				err = w.expand(chunks[i], parents[i])
			} else if w.done != nil {
				w.finish(ids[i], parents[i])
				err = w.release()
			}
		}
		if err != nil {
			return err
		}
	}
	if w.held > 0 {
		return fmt.Errorf("fnode: walk ended with %d chunks waiting on each other", w.held)
	}
	return nil
}

// walker is Walk's state besides seen: the stack (ids, each with the slot
// of the chunk that pushed it), a slot per chunk fetched but not done, the
// slots waiting on each id in flight that another slot pushed (allocated
// when the first is found), and the slots with a ref just done.
type walker struct {
	seen        map[hash.Hash]bool
	done        func(*chunk.Chunk) error
	ids         []hash.Hash
	parents     []int32
	slots       []slot
	free, ready []int32
	waiting     map[hash.Hash][]int32
	held        int
}

// slot is a fetched chunk: pending counts its refs not done yet.
type slot struct {
	c       *chunk.Chunk
	parent  int32
	pending int32
}

// push puts the ids not yet seen on the stack for slot parent, records it
// as waiting on those in flight, and returns how many refs it now awaits.
func (w *walker) push(parent int32, ids []hash.Hash) (n int32) {
	for _, id := range ids {
		switch d, ok := w.seen[id]; {
		case id.IsZero() || d:
			continue
		case !ok:
			w.seen[id] = w.done == nil // without done nothing waits on it
			w.ids, w.parents = append(w.ids, id), append(w.parents, parent)
		case parent < 0:
			continue
		case w.waiting == nil:
			w.waiting = map[hash.Hash][]int32{id: {parent}}
		default:
			w.waiting[id] = append(w.waiting[id], parent)
		}
		n++
	}
	return n
}

// expand gives c a slot and pushes its refs; without done it only pushes
// them, as no one waits for c to be done.
func (w *walker) expand(c *chunk.Chunk, parent int32) error {
	refs, err := Refs(c)
	if err != nil || w.done == nil {
		w.push(-1, refs)
		return err
	}
	s := int32(len(w.slots))
	if n := len(w.free); n > 0 {
		s, w.free = w.free[n-1], w.free[:n-1]
	} else {
		w.slots = append(w.slots, slot{})
	}
	w.slots[s], w.held = slot{c: c, parent: parent}, w.held+1
	w.slots[s].pending = w.push(s, refs) + 1 // one for itself, released now
	w.ready = append(w.ready, s)
	return w.release()
}

// finish marks id done and queues a release for the slot that pushed it and
// each slot waiting on it.
func (w *walker) finish(id hash.Hash, parent int32) {
	w.seen[id] = true
	if parent >= 0 {
		w.ready = append(w.ready, parent)
	}
	if len(w.waiting) > 0 {
		w.ready = append(w.ready, w.waiting[id]...)
		delete(w.waiting, id)
	}
}

// release takes one pending ref off each queued slot; a slot left with none
// goes to done and finishes, queueing its own releases — a work list, so a
// deep history does not recurse.
func (w *walker) release() error {
	for n := len(w.ready); n > 0; n = len(w.ready) {
		s := w.ready[n-1]
		w.ready = w.ready[:n-1]
		sl := &w.slots[s]
		if sl.pending--; sl.pending > 0 {
			continue
		}
		if err := w.done(sl.c); err != nil {
			return err
		}
		w.finish(sl.c.ID(), sl.parent)
		sl.c = nil
		w.free, w.held = append(w.free, s), w.held-1
	}
	return nil
}

// FetchMissing completes a fetch step that answered ids locally where it
// could — out holds one slot per id and have marks the ids answered — by
// asking remote for the rest in one call.  Heal and replica sync share it.
func FetchMissing(ids []hash.Hash, have []bool, out []*chunk.Chunk, remote func(missing []hash.Hash) ([]*chunk.Chunk, error)) ([]*chunk.Chunk, error) {
	var missing []hash.Hash
	for i, id := range ids {
		if !have[i] {
			missing = append(missing, id)
		}
	}
	if len(missing) == 0 {
		return out, nil
	}
	got, err := remote(missing)
	if err == nil && len(got) != len(missing) {
		err = fmt.Errorf("fnode: source returned %d chunks for %d ids", len(got), len(missing))
	}
	if err != nil {
		return nil, err
	}
	for i := range out {
		if !have[i] {
			out[i], got = got[0], got[1:]
		}
	}
	return out, nil
}
