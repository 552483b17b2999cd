package pos

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"slices"

	"forkbase/internal/chunk"
	"forkbase/internal/chunker"
	"forkbase/internal/rolling"
	"forkbase/internal/store"
)

// nodeHeadroom reserves space at the front of a node buffer for the chunk
// type byte, the node level byte and the entry-count varint, so the finished
// node is a contiguous [type][level][uvarint n][entries] run that can be
// hashed and stored in place — no per-node payload copy.
const nodeHeadroom = 2 + binary.MaxVarintLen64

// levelBuilder assembles one level of a POS-Tree.  Entries are encoded
// directly into the open node's buffer; the chunker decides boundaries; each
// finished node is emitted into the write sink, which hashes it in place and
// lands it in a batched store write.  A childRef is complete — id included —
// the moment closeNode returns, whether or not its batch has been flushed.
type levelBuilder struct {
	sink  *store.ChunkSink
	cfg   chunker.Config
	level uint8
	isMap bool

	// Leaf levels (0) detect boundaries with a contiguous bulk scan over the
	// node buffer — the same byte-granular pattern as chunker.EntryChunker,
	// minus the per-byte call and ring-buffer bookkeeping, plus the min-size
	// skip (bytes that no checkable window can reach are never hashed).
	// Index levels keep the entry-granular IndexChunker.
	scan         *rolling.Scan
	begin, check int // scan constants: hash start index, first checkable index
	scanPos      int
	scanHash     uint64
	idx          *chunker.IndexChunker

	// buf is the builder's single scratch buffer, [nodeHeadroom][entries...].
	// Emit borrows it only for the duration of the call (the sink copies the
	// surviving payload), so one buffer serves every node of the level.
	buf      []byte
	n        int    // entries in the open node
	lastKey  []byte // greatest key seen in the open node (map only)
	count    uint64 // leaf entries below the open node
	emitted  []childRef
	boundary bool // true when positioned exactly at a node boundary
}

// newLeafScan returns the leaf boundary scanner for a normalized config and
// its constants: the index hashing starts at (the min-size skip) and the
// first index a pattern may fire at.  Map and list leaves and blob leaves
// all cut with it, so they cannot disagree.
func newLeafScan(cfg chunker.Config) (scan *rolling.Scan, begin, check int) {
	scan = rolling.NewScan(cfg.Q, cfg.Window)
	return scan, scan.SkipStart(cfg.MinSize), cfg.MinSize - 1
}

func newLevelBuilder(sink *store.ChunkSink, cfg chunker.Config, level uint8, isMap bool) *levelBuilder {
	cfg = cfg.Normalized()
	b := &levelBuilder{
		sink:     sink,
		cfg:      cfg,
		level:    level,
		isMap:    isMap,
		boundary: true,
	}
	if level == 0 {
		b.scan, b.begin, b.check = newLeafScan(cfg)
	} else {
		b.idx = chunker.NewIndexChunker(cfg)
	}
	est := 2 << cfg.Q
	if est > cfg.MaxSize {
		est = cfg.MaxSize
	}
	b.buf = make([]byte, nodeHeadroom, nodeHeadroom+est)
	return b
}

// afterAppend runs the boundary decision for the entry just encoded at
// b.buf[encStart:].
func (b *levelBuilder) afterAppend(encStart int, key []byte, below uint64) error {
	b.n++
	b.lastKey = key
	b.count += below
	b.boundary = false
	if b.level == 0 {
		node := b.buf[nodeHeadroom:]
		hit, h := b.scan.Find(node, b.scanPos, b.scanHash, b.begin, b.check)
		b.scanHash = h
		b.scanPos = len(node)
		if hit >= 0 || len(node) >= b.cfg.MaxSize {
			return b.closeNode()
		}
		return nil
	}
	if b.idx.Add(b.buf[encStart:]) {
		return b.closeNode()
	}
	return nil
}

// addEntry feeds one map entry (leaf level of the map variant).
func (b *levelBuilder) addEntry(e Entry) error {
	s := len(b.buf)
	b.buf = encodeEntry(b.buf, e)
	return b.afterAppend(s, e.Key, 1)
}

// addItem feeds one sequence item (leaf level of the seq variant).
func (b *levelBuilder) addItem(item []byte) error {
	s := len(b.buf)
	b.buf = encodeSeqItem(b.buf, item)
	return b.afterAppend(s, nil, 1)
}

// addRef feeds one child reference (index levels).
func (b *levelBuilder) addRef(r childRef) error {
	s := len(b.buf)
	if b.isMap {
		b.buf = encodeChildRef(b.buf, r)
	} else {
		b.buf = encodeSeqChildRef(b.buf, r)
	}
	return b.afterAppend(s, r.splitKey, r.count)
}

// atBoundary reports whether the builder sits exactly at a node boundary
// (nothing buffered).  Used by incremental edits to detect re-synchronisation
// with the old chunking.
func (b *levelBuilder) atBoundary() bool { return b.boundary }

// closeNode finalises the open node in place and emits it into the sink.
func (b *levelBuilder) closeNode() error {
	if b.n == 0 {
		b.boundary = true
		return nil
	}
	var t chunk.Type
	if b.isMap {
		t = chunk.TypeMapLeaf
		if b.level > 0 {
			t = chunk.TypeMapIndex
		}
	} else {
		t = chunk.TypeSeqLeaf
		if b.level > 0 {
			t = chunk.TypeSeqIndex
		}
	}
	var tmp [binary.MaxVarintLen64]byte
	nlen := binary.PutUvarint(tmp[:], uint64(b.n))
	rs := nodeHeadroom - 2 - nlen
	region := b.buf[rs:]
	region[0] = byte(t)
	region[1] = b.level
	copy(region[2:], tmp[:nlen])
	id, err := b.sink.Emit(t, region)
	if err != nil {
		return fmt.Errorf("pos: storing node: %w", err)
	}
	ref := childRef{id: id, count: b.count}
	if b.isMap {
		ref.splitKey = append([]byte(nil), b.lastKey...)
	}
	b.emitted = append(b.emitted, ref)
	b.buf = b.buf[:nodeHeadroom]
	b.n = 0
	b.lastKey = nil
	b.count = 0
	b.scanPos, b.scanHash = 0, 0
	if b.idx != nil {
		b.idx.Reset()
	}
	b.boundary = true
	return nil
}

// finish closes any trailing node (the "last node of a level", which the
// paper allows to end without a pattern) and returns the refs of this level.
func (b *levelBuilder) finish() ([]childRef, error) {
	if err := b.closeNode(); err != nil {
		return nil, err
	}
	return b.emitted, nil
}

// buildLevels stacks index levels over refs until a single root remains.
// Used both by from-scratch builds and to cap incremental edits whose top
// level ended up with more than one node.
func buildLevels(sink *store.ChunkSink, cfg chunker.Config, refs []childRef, level uint8, isMap bool) (childRef, error) {
	for len(refs) > 1 {
		lb := newLevelBuilder(sink, cfg, level, isMap)
		for _, r := range refs {
			if err := lb.addRef(r); err != nil {
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

// editSink returns the write sink for incremental edits and merges: on a
// store with a decoded-node cache the nodes the edit lands enter the cache
// under the gateway's write rule (store.Nodes.WriteThrough).  Re-emitted
// shared subtrees go to the store like new nodes; its put turns them away as
// dedup hits.
func editSink(src nodeSource) *store.ChunkSink {
	return store.NewChunkSink(src.WriteThrough())
}

// BuildMap constructs a map POS-Tree over entries (which need not be sorted;
// duplicate keys keep the last value) and returns the tree.  The build is a
// pure function of the final record set — the SIRI structural-invariance
// property — because node boundaries depend only on the sorted entry stream.
// Nodes flow to the store through a batched sink; the tree is fully landed
// when BuildMap returns.  One level builder feeds one sink, on the caller's
// goroutine.
func BuildMap(st store.Store, cfg chunker.Config, entries []Entry) (*Tree, error) {
	sink := store.NewChunkSink(st)
	defer sink.Close()
	lb := newLevelBuilder(sink, cfg, 0, true)
	for _, e := range normalizeEntries(entries) {
		if err := lb.addEntry(e); err != nil {
			return nil, err
		}
	}
	leaves, err := lb.finish()
	if err != nil {
		return nil, err
	}
	root, err := buildLevels(sink, cfg, leaves, 1, true)
	if err != nil {
		return nil, err
	}
	if err := sink.Flush(); err != nil {
		return nil, err
	}
	return &Tree{src: sourceFor(st), cfg: cfg, root: root.id, count: root.count}, nil
}

// normalizeEntries sorts entries by key, keeping the last occurrence of
// duplicate keys.  Bulk ingest commonly arrives already sorted and unique
// (CSV keyed by primary key, export/import round-trips), so that case is
// detected with one linear scan and returns the input slice untouched — no
// copy, no sort.
func normalizeEntries(entries []Entry) []Entry {
	presorted := true
	for i := 1; i < len(entries); i++ {
		if bytes.Compare(entries[i-1].Key, entries[i].Key) >= 0 {
			presorted = false
			break
		}
	}
	if presorted {
		return entries
	}
	sorted := make([]Entry, len(entries))
	copy(sorted, entries)
	slices.SortStableFunc(sorted, func(a, b Entry) int {
		return bytes.Compare(a.Key, b.Key)
	})
	out := sorted[:0]
	for i, e := range sorted {
		if i+1 < len(sorted) && bytes.Equal(e.Key, sorted[i+1].Key) {
			continue // superseded by a later duplicate
		}
		out = append(out, e)
	}
	return out
}
