package pos

import (
	"fmt"

	"forkbase/internal/chunk"
	"forkbase/internal/chunker"
	"forkbase/internal/hash"
	"forkbase/internal/index"
	"forkbase/internal/store"
)

// Seq is an immutable positional POS-Tree over variable-length items; it
// backs the List data type.  Index nodes route by cumulative item counts
// instead of split keys; everything else (pattern-split boundaries, Merkle
// hashing, structural invariance) matches the map variant.
type Seq struct {
	src   nodeSource
	cfg   chunker.Config
	root  hash.Hash
	count uint64
}

// ErrOutOfRange is returned for positions past the end of a sequence.  It
// is the index layer's shared sentinel.
var ErrOutOfRange = index.ErrOutOfRange

// NewEmptySeq returns the empty sequence.
func NewEmptySeq(st store.Store, cfg chunker.Config) *Seq {
	return &Seq{src: sourceFor(st), cfg: cfg}
}

// LoadSeq attaches to an existing sequence by root hash.
func LoadSeq(st store.Store, cfg chunker.Config, root hash.Hash) (*Seq, error) {
	s := &Seq{src: sourceFor(st), cfg: cfg, root: root}
	if root.IsZero() {
		return s, nil
	}
	n, err := s.src.Load(root)
	if err != nil {
		return nil, fmt.Errorf("pos: loading seq root: %w", err)
	}
	switch n.typ {
	case chunk.TypeSeqLeaf:
		s.count = uint64(n.len())
	case chunk.TypeSeqIndex:
		for i := 0; i < n.len(); i++ {
			s.count += n.count(i)
		}
	default:
		return nil, fmt.Errorf("pos: seq root %s is a %s", root.Short(), n.typ)
	}
	return s, nil
}

// BuildSeq constructs a sequence over items.
func BuildSeq(st store.Store, cfg chunker.Config, items [][]byte) (*Seq, error) {
	sink := store.NewChunkSink(st)
	defer sink.Close()
	lb := newLevelBuilder(sink, cfg, 0, false)
	for _, it := range items {
		if err := lb.addItem(it); err != nil {
			return nil, err
		}
	}
	leaves, err := lb.finish()
	if err != nil {
		return nil, err
	}
	root, err := buildLevels(sink, cfg, leaves, 1, false, lb.buf)
	if err != nil {
		return nil, err
	}
	if err := sink.Flush(); err != nil {
		return nil, err
	}
	return &Seq{src: sourceFor(st), cfg: cfg, root: root.id, count: root.count}, nil
}

// Root returns the root hash (zero for empty).
func (s *Seq) Root() hash.Hash { return s.root }

// Len returns the number of items.
func (s *Seq) Len() uint64 { return s.count }

// Get returns item i.  The returned slice aliases shared decoded node data;
// callers must not modify it.
func (s *Seq) Get(i uint64) ([]byte, error) {
	if i >= s.count {
		return nil, ErrOutOfRange
	}
	id := s.root
	for {
		n, err := s.src.Load(id)
		if err != nil {
			return nil, fmt.Errorf("pos: seq get: %w", err)
		}
		switch n.typ {
		case chunk.TypeSeqLeaf:
			if i >= uint64(n.len()) {
				return nil, ErrOutOfRange
			}
			return n.item(int(i)), nil
		case chunk.TypeSeqIndex:
			found := false
			for j := 0; j < n.len(); j++ {
				if i < n.count(j) {
					id = n.ref(j).id
					found = true
					break
				}
				i -= n.count(j)
			}
			if !found {
				return nil, ErrOutOfRange
			}
		default:
			return nil, fmt.Errorf("pos: unexpected chunk %s in seq", n.typ)
		}
	}
}

// Items materialises all items in order.
func (s *Seq) Items() ([][]byte, error) {
	out := make([][]byte, 0, s.count)
	err := s.walkLeaves(func(leaf *node) {
		for i := 0; i < leaf.len(); i++ {
			out = append(out, append([]byte(nil), leaf.item(i)...))
		}
	})
	return out, err
}

func (s *Seq) walkLeaves(fn func(leaf *node)) error {
	if s.root.IsZero() {
		return nil
	}
	var walk func(id hash.Hash) error
	walk = func(id hash.Hash) error {
		n, err := s.src.Load(id)
		if err != nil {
			return err
		}
		switch n.typ {
		case chunk.TypeSeqLeaf:
			fn(n)
			return nil
		case chunk.TypeSeqIndex:
			for i := 0; i < n.len(); i++ {
				if err := walk(n.ref(i).id); err != nil {
					return err
				}
			}
			return nil
		default:
			return fmt.Errorf("pos: unexpected chunk %s in seq", n.typ)
		}
	}
	return walk(s.root)
}

// Splice returns a sequence with items [at, at+del) removed and ins inserted
// at position at.  Like Tree.Edit it is incremental: one root→leaf path is
// read, chunking restarts at the leaf holding `at` and stops at
// re-synchronisation, only the index nodes above that splice are rebuilt
// (splicePositions, levelEditor.raise), and the result is byte-identical to a
// from-scratch build of the edited item list.
func (s *Seq) Splice(at, del uint64, ins [][]byte) (*Seq, error) {
	if at > s.count {
		return nil, ErrOutOfRange
	}
	if del > s.count-at {
		del = s.count - at
	}
	if del == 0 && len(ins) == 0 {
		return s, nil
	}
	if s.root.IsZero() {
		return BuildSeq(s.src.Store(), s.cfg, ins)
	}
	sink := editSink(s.src)
	defer sink.Close()
	lb := newLevelBuilder(sink, s.cfg, 0, false)
	feed := func(leaf *node, a, b uint64, insert bool) error {
		if leaf.typ != chunk.TypeSeqLeaf || b > uint64(leaf.len()) {
			return fmt.Errorf("pos: seq splice: %s with %d items where a leaf of at least %d was expected", leaf.typ, leaf.len(), b)
		}
		keep := func(lo, hi int) error {
			for i := lo; i < hi; i++ {
				if err := lb.addItem(leaf.item(i)); err != nil {
					return err
				}
			}
			return nil
		}
		if err := keep(0, int(a)); err != nil {
			return err
		}
		for i := 0; insert && i < len(ins); i++ {
			if err := lb.addItem(ins[i]); err != nil {
				return err
			}
		}
		return keep(int(b), leaf.len())
	}
	root, err := splicePositions(s.src, s.cfg, sink, childRef{id: s.root, count: s.count}, at, del, lb.atBoundary, feed, lb.finish)
	if err != nil {
		return nil, err
	}
	return &Seq{src: s.src, cfg: s.cfg, root: root.id, count: root.count}, nil
}

// Append returns the sequence with items added at the end.
func (s *Seq) Append(items ...[]byte) (*Seq, error) {
	return s.Splice(s.count, 0, items)
}

// ChunkIDs returns every chunk id reachable from the sequence root.
func (s *Seq) ChunkIDs() ([]hash.Hash, error) { return chunkIDs(s.src, s.root) }
