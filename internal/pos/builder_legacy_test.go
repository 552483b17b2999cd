package pos

import (
	"bytes"
	"sort"

	"forkbase/internal/chunk"
	"forkbase/internal/chunker"
	"forkbase/internal/rolling"
	"forkbase/internal/store"
)

// This file preserves the pre-sink write path — one chunk.New and one
// synchronous store.Put per node, boundary detection through the byte-wise
// chunker and rolling.Hasher — as the oracle for the batched sink path: the
// two must produce byte-identical trees, and the differential tests in
// builder_test.go compare roots against this implementation over randomized
// inputs.
//
// It intentionally mirrors builder.go's structure; do not "fix" it to share
// code with the new path, or the comparison stops checking anything.

// boundary is the legacy path's cut decision: Add feeds one encoded entry
// and reports whether the node closes after it; Reset restarts at a boundary.
type boundary interface {
	Add(encoded []byte) bool
	Reset()
}

// leafChunker cuts leaves through the byte-wise chunker: a pattern at or
// past MinSize, or reaching MaxSize, anywhere inside an entry closes the node
// at the entry's end.
type leafChunker struct{ c *chunker.ByteChunker }

func (l leafChunker) Add(encoded []byte) bool {
	if len(l.c.Write(encoded)) == 0 {
		return false
	}
	l.c.Reset()
	return true
}

func (l leafChunker) Reset() { l.c.Reset() }

// indexChunker cuts index levels through the byte-wise rolling.Hasher: after
// the n-th entry, n at least half the expected fanout, the low fanout bits of
// the hash decide below the expected fanout and two bits fewer from it on,
// and indexMaxEntries caps the node.  It is the oracle for levelBuilder's
// index rule, which makes the same decision from the bulk scan's state.
type indexChunker struct {
	h                 *rolling.Hasher
	mask, easy        uint64
	minFan, normalFan int
	entries           int
}

func newIndexChunker(cfg chunker.Config) *indexChunker {
	cfg = cfg.Normalized()
	bits := indexFanoutBits(cfg.Q)
	return &indexChunker{
		h:         rolling.New(cfg.Q, cfg.Window),
		mask:      uint64(1)<<bits - 1,
		easy:      uint64(1)<<rolling.EasyBits(bits) - 1,
		minFan:    max(2, 1<<(bits-1)),
		normalFan: 1 << bits,
	}
}

func (c *indexChunker) Add(encoded []byte) bool {
	sum := c.h.Write(encoded)
	c.entries++
	mask := c.mask
	if c.entries >= c.normalFan {
		mask = c.easy
	}
	hit := c.entries >= c.minFan && sum&mask == 0 || c.entries >= indexMaxEntries
	if hit {
		c.Reset()
	}
	return hit
}

func (c *indexChunker) Reset() {
	c.h.Reset()
	c.entries = 0
}

// legacyLevelBuilder assembles one level of a POS-Tree with a synchronous
// Put per finished node.
type legacyLevelBuilder struct {
	st    store.Store
	cfg   chunker.Config
	chk   boundary
	level uint8
	leaf  chunk.Type

	buf      []byte
	n        int
	lastKey  []byte
	count    uint64
	emitted  []childRef
	boundary bool
}

func newLegacyLevelBuilder(st store.Store, cfg chunker.Config, level uint8, leaf chunk.Type) *legacyLevelBuilder {
	var chk boundary
	if level == 0 {
		chk = leafChunker{chunker.NewByteChunker(cfg)}
	} else {
		chk = newIndexChunker(cfg)
	}
	return &legacyLevelBuilder{
		st:       st,
		cfg:      cfg,
		chk:      chk,
		level:    level,
		leaf:     leaf,
		boundary: true,
	}
}

func (b *legacyLevelBuilder) add(encoded []byte, key []byte, below uint64) error {
	b.buf = append(b.buf, encoded...)
	b.n++
	b.lastKey = key
	b.count += below
	b.boundary = false
	if b.chk.Add(encoded) {
		return b.closeNode()
	}
	return nil
}

func (b *legacyLevelBuilder) closeNode() error {
	if b.n == 0 {
		b.boundary = true
		return nil
	}
	t := b.leaf
	if b.level > 0 {
		t = chunk.TypeSeqIndex
		if b.leaf == chunk.TypeMapLeaf {
			t = chunk.TypeMapIndex
		}
	}
	c := chunk.New(t, encodeNodePayload(b.level, b.n, b.buf))
	if _, err := b.st.Put(c); err != nil {
		return err
	}
	ref := childRef{id: c.ID(), count: b.count}
	if b.leaf == chunk.TypeMapLeaf {
		ref.splitKey = append([]byte(nil), b.lastKey...)
	}
	b.emitted = append(b.emitted, ref)
	b.buf = b.buf[:0]
	b.n = 0
	b.lastKey = nil
	b.count = 0
	b.chk.Reset()
	b.boundary = true
	return nil
}

func (b *legacyLevelBuilder) finish() ([]childRef, error) {
	if err := b.closeNode(); err != nil {
		return nil, err
	}
	return b.emitted, nil
}

func legacyBuildLevels(st store.Store, cfg chunker.Config, refs []childRef, level uint8, leaf chunk.Type) (childRef, error) {
	for len(refs) > 1 {
		lb := newLegacyLevelBuilder(st, cfg, level, leaf)
		var enc []byte
		for _, r := range refs {
			enc = enc[:0]
			if leaf == chunk.TypeMapLeaf {
				enc = encodeChildRef(enc, r)
			} else {
				enc = encodeSeqChildRef(enc, r)
			}
			if err := lb.add(enc, r.splitKey, r.count); err != nil {
				return childRef{}, err
			}
		}
		var err error
		refs, err = lb.finish()
		if err != nil {
			return childRef{}, err
		}
		level++
	}
	if len(refs) == 0 {
		return childRef{}, nil
	}
	return refs[0], nil
}

// legacyNormalizeEntries is the pre-sink normalization: unconditional copy
// plus reflective stable sort.
func legacyNormalizeEntries(entries []Entry) []Entry {
	sorted := make([]Entry, len(entries))
	copy(sorted, entries)
	sort.SliceStable(sorted, func(i, j int) bool {
		return bytes.Compare(sorted[i].Key, sorted[j].Key) < 0
	})
	out := sorted[:0]
	for i, e := range sorted {
		if i+1 < len(sorted) && bytes.Equal(e.Key, sorted[i+1].Key) {
			continue
		}
		out = append(out, e)
	}
	return out
}

// buildMapPerChunk builds a map POS-Tree through the pre-sink write path:
// every node is materialised with an individual synchronous store.Put.  It
// must produce a tree byte-identical to BuildMap — structural invariance is a
// property of the record set, not of the write path that stored it.
func buildMapPerChunk(st store.Store, cfg chunker.Config, entries []Entry) (*Tree, error) {
	sorted := legacyNormalizeEntries(entries)
	lb := newLegacyLevelBuilder(st, cfg, 0, chunk.TypeMapLeaf)
	var enc []byte
	for _, e := range sorted {
		enc = enc[:0]
		enc = encodeEntry(enc, e)
		if err := lb.add(enc, e.Key, 1); err != nil {
			return nil, err
		}
	}
	leaves, err := lb.finish()
	if err != nil {
		return nil, err
	}
	root, err := legacyBuildLevels(st, cfg, leaves, 1, chunk.TypeMapLeaf)
	if err != nil {
		return nil, err
	}
	return &Tree{src: sourceFor(st), cfg: cfg, root: root.id, count: root.count}, nil
}

// encodeNodePayload renders the canonical node payload; kept here with the
// legacy path (the sink path assembles the same layout in place).
func encodeNodePayload(level uint8, n int, entries []byte) []byte {
	out := make([]byte, 0, 1+10+len(entries))
	out = append(out, level)
	out = appendUvarint(out, uint64(n))
	out = append(out, entries...)
	return out
}
