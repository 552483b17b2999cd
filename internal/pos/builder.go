package pos

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
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

	// Every level detects boundaries with one contiguous bulk scan over the
	// node buffer; see levelScan for the leaf and index rules.
	levelScan

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

// indexMaxEntries bounds index-node width regardless of pattern luck.
const indexMaxEntries = 1 << 10

// levelScan is a level's boundary rule: the rolling-hash scanner, its
// constants (the index hashing starts at, i.e. the min-size skip, and the
// first index a pattern may fire at) and its state over the open node.  Map,
// list and blob leaves and every index level get it from newLevelScan, so
// they cannot disagree.
//
// A leaf cuts byte-granularly: a pattern anywhere in an entry, at or past
// MinSize, closes the node at that entry's end (the paper's "extend the
// boundary to cover the whole entry"), and so does reaching MaxSize.  An
// index level cuts entry-granularly: after each entry the low fanout bits of
// the rolling hash decide, so the cut probability does not depend on entry
// size, and with a two-entry minimum every index level at least halves the
// node count — byte-granular patterns cannot promise that when entries are
// longer than the pattern distance.  Its scan has no checkable index; Find
// only advances the hash to the end of the entry.
type levelScan struct {
	scan         rolling.Scan
	begin, check int
	fanout       uint64 // index levels: the hash bits that must be zero
	pos          int    // bytes of the open node scanned so far
	h            uint64 // the hash state after them
}

// find resumes the scan over node, the open node's bytes, and returns Find's
// hit and hash state.
func (ls *levelScan) find(node []byte) (int, uint64) {
	hit, h := ls.scan.Find(node, ls.pos, ls.h, ls.begin, ls.check)
	ls.pos, ls.h = len(node), h
	return hit, h
}

// restart resets the scan state at a node boundary.
func (ls *levelScan) restart() { ls.pos, ls.h = 0, 0 }

func newLevelScan(cfg chunker.Config, level uint8) levelScan {
	ls := levelScan{scan: rolling.NewScan(cfg.Q, cfg.Window)}
	if level == 0 {
		ls.begin, ls.check = ls.scan.SkipStart(cfg.MinSize), cfg.MinSize-1
	} else {
		ls.check = math.MaxInt
		ls.fanout = uint64(1)<<indexFanoutBits(cfg.Q) - 1
	}
	return ls
}

// indexFanoutBits chooses the expected children per index node (2^bits) so
// that index nodes stay size-proportionate to leaves: an index entry is
// ~48 bytes (split key + 32-byte hash + count), so matching the 2^Q leaf
// target gives bits ≈ Q-6, clamped to [2, 8] so reduction stays geometric
// (≥4× per level) and nodes stay bounded (≤256 children on average), and
// never more bits than the hash has.
func indexFanoutBits(q uint) uint {
	return min(max(q, 8)-6, 8, q)
}

func newLevelBuilder(sink *store.ChunkSink, cfg chunker.Config, level uint8, isMap bool) *levelBuilder {
	return levelBuilderOn(nil, sink, cfg, level, isMap)
}

// levelBuilderOn is newLevelBuilder over buf, the scratch buffer a finished
// builder of the same build or edit leaves behind (nil: a fresh one), so the
// levels of one edit share one buffer instead of allocating one each.
func levelBuilderOn(buf []byte, sink *store.ChunkSink, cfg chunker.Config, level uint8, isMap bool) *levelBuilder {
	cfg = cfg.Normalized()
	if buf == nil {
		buf = make([]byte, 0, nodeHeadroom+min(2<<cfg.Q, cfg.MaxSize))
	}
	return &levelBuilder{
		sink:      sink,
		cfg:       cfg,
		level:     level,
		isMap:     isMap,
		boundary:  true,
		levelScan: newLevelScan(cfg, level),
		buf:       buf[:nodeHeadroom],
	}
}

// afterAppend runs the boundary decision for the entry just encoded at the
// end of the open node.
func (b *levelBuilder) afterAppend(key []byte, below uint64) error {
	b.n++
	b.lastKey = key
	b.count += below
	b.boundary = false
	node := b.buf[nodeHeadroom:]
	hit, h := b.find(node)
	var cut bool
	if b.level == 0 {
		cut = hit >= 0 || len(node) >= b.cfg.MaxSize
	} else {
		cut = b.n >= 2 && h&b.fanout == 0 || b.n >= indexMaxEntries
	}
	if cut {
		return b.closeNode()
	}
	return nil
}

// addEntry feeds one map entry (leaf level of the map variant).
func (b *levelBuilder) addEntry(e Entry) error {
	b.buf = encodeEntry(b.buf, e)
	return b.afterAppend(e.Key, 1)
}

// addItem feeds one sequence item (leaf level of the seq variant).
func (b *levelBuilder) addItem(item []byte) error {
	b.buf = encodeSeqItem(b.buf, item)
	return b.afterAppend(nil, 1)
}

// addRef feeds one child reference (index levels).
func (b *levelBuilder) addRef(r childRef) error {
	if b.isMap {
		b.buf = encodeChildRef(b.buf, r)
	} else {
		b.buf = encodeSeqChildRef(b.buf, r)
	}
	return b.afterAppend(r.splitKey, r.count)
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
	b.restart()
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

// buildLevels stacks index levels over refs until a single root remains,
// every level on the scratch buffer buf (nil: a fresh one).  Used both by
// from-scratch builds and to cap incremental edits whose top level ended up
// with more than one node.
func buildLevels(sink *store.ChunkSink, cfg chunker.Config, refs []childRef, level uint8, isMap bool, buf []byte) (childRef, error) {
	for len(refs) > 1 {
		lb := levelBuilderOn(buf, sink, cfg, level, isMap)
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
		buf = lb.buf
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
	for _, e := range lastPerKey(entries, entryKey) {
		if err := lb.addEntry(e); err != nil {
			return nil, err
		}
	}
	leaves, err := lb.finish()
	if err != nil {
		return nil, err
	}
	root, err := buildLevels(sink, cfg, leaves, 1, true, lb.buf)
	if err != nil {
		return nil, err
	}
	if err := sink.Flush(); err != nil {
		return nil, err
	}
	return &Tree{src: sourceFor(st), cfg: cfg, root: root.id, count: root.count}, nil
}

// lastPerKey returns xs sorted by key, keeping the last of each run of
// equal keys: the normal form of a build's entries and of an edit's ops.
// Bulk ingest commonly arrives already sorted and unique (CSV keyed by
// primary key, export/import round-trips), so that case is detected with one
// linear scan and returns xs itself, with no copy and no sort.  Otherwise
// the result is a sorted copy; xs is never mutated.
func lastPerKey[T any](xs []T, key func(T) []byte) []T {
	presorted := true
	for i := 1; i < len(xs); i++ {
		if bytes.Compare(key(xs[i-1]), key(xs[i])) >= 0 {
			presorted = false
			break
		}
	}
	if presorted {
		return xs
	}
	sorted := slices.Clone(xs)
	slices.SortStableFunc(sorted, func(a, b T) int { return bytes.Compare(key(a), key(b)) })
	out := sorted[:0]
	for i, x := range sorted {
		if i+1 < len(sorted) && bytes.Equal(key(x), key(sorted[i+1])) {
			continue // superseded by a later duplicate
		}
		out = append(out, x)
	}
	return out
}

func entryKey(e Entry) []byte { return e.Key }

func opKey(o Op) []byte { return o.Key }
