package pos

import (
	"fmt"

	"forkbase/internal/chunk"
	"forkbase/internal/chunker"
	"forkbase/internal/hash"
	"forkbase/internal/index"
	"forkbase/internal/store"
)

// Blob is an immutable byte sequence stored as a POS-Tree whose leaves are
// content-defined byte segments (TypeBlobLeaf) and whose index levels are
// count-routed sequence nodes.  A blob leaf is a level-0 node of one-byte
// elements with no header, cut by the level builder every variant shares.
// Blobs give ForkBase file-like values with chunk-level dedup between
// near-identical versions — the mechanism behind the Fig 4 experiment.
type Blob struct {
	src  nodeSource
	cfg  chunker.Config
	root hash.Hash
	size uint64
}

// LoadBlob attaches to an existing blob by root hash.
func LoadBlob(st store.Store, cfg chunker.Config, root hash.Hash) (*Blob, error) {
	b := &Blob{src: sourceFor(st), cfg: cfg, root: root}
	if root.IsZero() {
		return b, nil
	}
	n, err := b.src.Load(root)
	if err != nil {
		return nil, fmt.Errorf("pos: loading blob root: %w", err)
	}
	switch n.typ {
	case chunk.TypeBlobLeaf:
		b.size = uint64(len(n.data))
	case chunk.TypeSeqIndex:
		for i := 0; i < n.len(); i++ {
			b.size += n.count(i)
		}
	default:
		return nil, fmt.Errorf("pos: blob root %s is a %s", root.Short(), n.typ)
	}
	return b, nil
}

// BuildBlob constructs a blob over data.
func BuildBlob(st store.Store, cfg chunker.Config, data []byte) (*Blob, error) {
	src := sourceFor(st)
	root, err := build(editSink(src), cfg, chunk.TypeBlobLeaf, func(lb *levelBuilder) error {
		return lb.addBytes(data)
	})
	if err != nil {
		return nil, err
	}
	return &Blob{src: src, cfg: cfg, root: root.id, size: root.count}, nil
}

// Root returns the root hash.
func (b *Blob) Root() hash.Hash { return b.root }

// Size returns the blob length in bytes.
func (b *Blob) Size() uint64 { return b.size }

// Bytes materialises the full content.
func (b *Blob) Bytes() ([]byte, error) {
	out := make([]byte, 0, b.size)
	if b.root.IsZero() {
		return out, nil
	}
	var walk func(id hash.Hash) error
	walk = func(id hash.Hash) error {
		n, err := b.src.Load(id)
		if err != nil {
			return err
		}
		switch n.typ {
		case chunk.TypeBlobLeaf:
			out = append(out, n.data...)
			return nil
		case chunk.TypeSeqIndex:
			for i := 0; i < n.len(); i++ {
				if err := walk(n.ref(i).id); err != nil {
					return err
				}
			}
			return nil
		default:
			return fmt.Errorf("pos: unexpected chunk %s in blob", n.typ)
		}
	}
	if err := walk(b.root); err != nil {
		return nil, err
	}
	return out, nil
}

// ReadAt fills p from offset off, returning the bytes copied.
func (b *Blob) ReadAt(p []byte, off uint64) (int, error) {
	if off >= b.size {
		return 0, index.ErrOutOfRange
	}
	// Walk down by counts collecting only the needed leaves.
	n := 0
	var walk func(id hash.Hash, skip uint64) error
	walk = func(id hash.Hash, skip uint64) error {
		if n >= len(p) {
			return nil
		}
		nd, err := b.src.Load(id)
		if err != nil {
			return err
		}
		switch nd.typ {
		case chunk.TypeBlobLeaf:
			data := nd.data
			if skip < uint64(len(data)) {
				n += copy(p[n:], data[skip:])
			}
			return nil
		case chunk.TypeSeqIndex:
			for i := 0; i < nd.len(); i++ {
				if c := nd.count(i); skip >= c {
					skip -= c
					continue
				}
				if err := walk(nd.ref(i).id, skip); err != nil {
					return err
				}
				skip = 0
				if n >= len(p) {
					return nil
				}
			}
			return nil
		default:
			return fmt.Errorf("pos: unexpected chunk %s in blob", nd.typ)
		}
	}
	if err := walk(b.root, off); err != nil {
		return n, err
	}
	return n, nil
}

// Splice returns a blob with bytes [at, at+del) replaced by ins, re-chunking
// incrementally from the leaf holding `at` until boundary re-synchronisation;
// like Seq.Splice it reads one root→leaf path plus the spliced leaves, and
// copies the bytes it keeps of each through appendRun.
func (b *Blob) Splice(at, del uint64, ins []byte) (*Blob, error) {
	if at > b.size {
		return nil, index.ErrOutOfRange
	}
	if del > b.size-at {
		del = b.size - at
	}
	if del == 0 && len(ins) == 0 {
		return b, nil
	}
	if b.root.IsZero() {
		return BuildBlob(b.src.Store(), b.cfg, ins)
	}
	sink := editSink(b.src)
	defer sink.Close()
	lb := newLevelBuilder(sink, b.cfg, 0, chunk.TypeBlobLeaf)
	root, err := splicePositions(b.src, lb, childRef{id: b.root, count: b.size}, at, del, func() error {
		return lb.addBytes(ins)
	})
	if err != nil {
		return nil, err
	}
	return &Blob{src: b.src, cfg: b.cfg, root: root.id, size: root.count}, nil
}

// ChunkIDs returns every chunk reachable from the blob root; the leaves'
// bytes are not read.
func (b *Blob) ChunkIDs() ([]hash.Hash, error) { return chunkIDs(b.src, b.root) }
