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
// count-routed sequence nodes.  Blobs give ForkBase file-like values with
// chunk-level dedup between near-identical versions — the mechanism behind
// the Fig 4 experiment.
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

// blobBuilder assembles blob leaves from a byte stream.  Bytes accumulate in
// a contiguous [type][bytes...] buffer scanned in bulk for split patterns
// (the byte-granular semantics of chunker.ByteChunker, without per-byte
// calls); finished leaves are emitted into the write sink.
type blobBuilder struct {
	sink *store.ChunkSink
	cfg  chunker.Config
	levelScan

	// buf is the builder's single scratch buffer, [1B chunk type][bytes...];
	// Emit borrows it per call, so it is reused across leaves.
	buf      []byte
	emitted  []childRef
	boundary bool
	one      [1]byte // scratch for single-byte adds
}

func newBlobBuilder(sink *store.ChunkSink, cfg chunker.Config) *blobBuilder {
	cfg = cfg.Normalized()
	b := &blobBuilder{sink: sink, cfg: cfg, levelScan: newLevelScan(cfg, 0), boundary: true}
	est := 2 << cfg.Q
	if est > cfg.MaxSize {
		est = cfg.MaxSize
	}
	b.buf = make([]byte, 1, 1+est)
	b.buf[0] = byte(chunk.TypeBlobLeaf)
	return b
}

func (b *blobBuilder) add(by byte) error {
	b.one[0] = by
	return b.addAll(b.one[:])
}

// addAll feeds p, closing leaves at every content-defined or max-size
// boundary exactly where the byte-wise chunker would have.
func (b *blobBuilder) addAll(p []byte) error {
	for {
		node := b.buf[1:]
		if len(node) < b.cfg.MaxSize && len(p) > 0 {
			take := b.cfg.MaxSize - len(node)
			if take > len(p) {
				take = len(p)
			}
			b.buf = append(b.buf, p[:take]...)
			p = p[take:]
			node = b.buf[1:]
		}
		if len(node) == 0 {
			return nil
		}
		b.boundary = false
		if hit, _ := b.find(node); hit >= 0 {
			if err := b.closeLeafAt(hit + 1); err != nil {
				return err
			}
			continue
		}
		if len(node) >= b.cfg.MaxSize {
			if err := b.closeLeafAt(len(node)); err != nil {
				return err
			}
			continue
		}
		if len(p) == 0 {
			return nil
		}
	}
}

// closeLeafAt emits the first cut bytes of the open leaf and shifts the
// remainder (bytes past a mid-buffer pattern) to the front of the scratch,
// where the next chunk's scan restarts from zero state — the determinism
// ByteChunker gets from resetting its hasher at each boundary.
func (b *blobBuilder) closeLeafAt(cut int) error {
	region := b.buf[:1+cut]
	id, err := b.sink.Emit(chunk.TypeBlobLeaf, region)
	if err != nil {
		return err
	}
	b.emitted = append(b.emitted, childRef{id: id, count: uint64(cut)})
	rem := copy(b.buf[1:], b.buf[1+cut:])
	b.buf = b.buf[:1+rem]
	b.restart()
	b.boundary = rem == 0
	return nil
}

func (b *blobBuilder) finish() ([]childRef, error) {
	if n := len(b.buf) - 1; n > 0 {
		if err := b.closeLeafAt(n); err != nil {
			return nil, err
		}
	}
	b.tally()
	return b.emitted, nil
}

// BuildBlob constructs a blob over data.
func BuildBlob(st store.Store, cfg chunker.Config, data []byte) (*Blob, error) {
	sink := store.NewChunkSink(st)
	defer sink.Close()
	bb := newBlobBuilder(sink, cfg)
	if err := bb.addAll(data); err != nil {
		return nil, err
	}
	leaves, err := bb.finish()
	if err != nil {
		return nil, err
	}
	root, err := buildLevels(sink, cfg, leaves, 1, false, nil)
	if err != nil {
		return nil, err
	}
	if err := sink.Flush(); err != nil {
		return nil, err
	}
	return &Blob{src: sourceFor(st), cfg: cfg, root: root.id, size: root.count}, nil
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
// like Seq.Splice it reads one root→leaf path plus the spliced leaves.
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
	bb := newBlobBuilder(sink, b.cfg)
	feed := func(leaf *node, lo, hi uint64, insert bool) error {
		if leaf.typ != chunk.TypeBlobLeaf || hi > uint64(len(leaf.data)) {
			return fmt.Errorf("pos: blob splice: %s of %d bytes where a leaf of at least %d was expected", leaf.typ, len(leaf.data), hi)
		}
		runs := [3][]byte{leaf.data[:lo], nil, leaf.data[hi:]}
		if insert {
			runs[1] = ins
		}
		for _, run := range runs {
			if err := bb.addAll(run); err != nil {
				return err
			}
		}
		return nil
	}
	root, err := splicePositions(b.src, b.cfg, sink, childRef{id: b.root, count: b.size}, at, del,
		func() bool { return bb.boundary }, feed, bb.finish)
	if err != nil {
		return nil, err
	}
	return &Blob{src: b.src, cfg: b.cfg, root: root.id, size: root.count}, nil
}

// ChunkIDs returns every chunk reachable from the blob root; the leaves'
// bytes are not read.
func (b *Blob) ChunkIDs() ([]hash.Hash, error) { return chunkIDs(b.src, b.root) }
