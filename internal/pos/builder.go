package pos

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync/atomic"

	"forkbase/internal/chunk"
	"forkbase/internal/chunker"
	"forkbase/internal/rolling"
	"forkbase/internal/store"
)

// nodeHeadroom reserves space at the front of a node buffer for the chunk
// type byte, the node level byte and the entry-count varint, so the finished
// node is a contiguous [type][level][uvarint n][entries] run that can be
// hashed and stored in place — no per-node payload copy.  A blob leaf uses
// only the type byte: it is [type][bytes].
const nodeHeadroom = 2 + binary.MaxVarintLen64

// levelBuilder assembles one level of a POS-Tree, of any variant.  Entries
// are encoded directly into the open node's buffer; the chunker decides
// boundaries; each finished node is emitted into the write sink, which hashes
// it in place and lands it in a batched store write.  A childRef is complete
// — id included — the moment closeNode returns, whether or not its batch has
// been flushed.
//
// A blob leaf is a level-0 node whose elements are single bytes and which
// has no header: a byte can cut only at its own end, so the byte-granular
// blob cut is the leaf rule of every other variant.
type levelBuilder struct {
	sink  *store.ChunkSink
	cfg   chunker.Config
	level uint8
	leaf  chunk.Type // the variant: TypeMapLeaf, TypeSeqLeaf or TypeBlobLeaf
	typ   chunk.Type // the type of the nodes this level emits

	// Every level detects boundaries with one contiguous bulk scan over the
	// node buffer; see levelScan for the leaf and index rules.
	levelScan

	// buf is the builder's single scratch buffer, [nodeHeadroom][entries...].
	// Emit borrows it only for the duration of the call (the sink copies the
	// surviving payload), so one buffer serves every node of the level.
	buf      []byte
	n        int    // entries (a blob leaf's bytes) in the open node
	lastKey  []byte // greatest key seen in the open node (map only)
	count    uint64 // leaf entries (blob bytes) below the open node
	emitted  []childRef
	boundary bool // true when positioned exactly at a node boundary
}

// indexMaxEntries bounds index-node width regardless of pattern luck.
const indexMaxEntries = 1 << 10

// levelScan is a level's boundary rule: the rolling-hash scanner, its
// constants (the index hashing starts at, i.e. the min-size skip, the first
// index a pattern may fire at and the normal point) and its state over the
// open node.  Map, list and blob leaves and every index level get it from
// newLevelScan, so they cannot disagree.
//
// A leaf cuts byte-granularly: a pattern anywhere in an entry, at or past
// MinSize, closes the node at that entry's end (the paper's "extend the
// boundary to cover the whole entry"), and so does reaching MaxSize.  Below
// node offset 2^Q a pattern needs all Q hash bits zero, from there only the
// low rolling.EasyBits(Q): the normalized cut, under which leaf sizes bunch
// around 2^Q.  An index level cuts entry-granularly: after each entry the low
// fanout bits of the rolling hash decide, so the cut probability does not
// depend on entry size, with the same two regions counted in entries: no cut
// below half the expected fanout, all fanout bits below it, two bits fewer
// from it on.  Its scan has no checkable index; Find only advances the hash
// to the end of the entry.
type levelScan struct {
	scan                 rolling.Scan
	begin, check, normal int
	window               int
	first                int // leaves: the first offset at which a pattern can count
	// Index levels: a cut after the n-th entry needs n >= minFan, and then
	// the hash bits fanout zero while n < normalFan, the bits easyFanout
	// from there.
	fanout, easyFanout uint64
	minFan, normalFan  int
	pos                int    // bytes of the open node scanned so far
	h                  uint64 // the hash state after them, unless stale
	stale              bool   // a copied run moved pos without computing h
	scanned            int    // bytes Find hashed since the last tally
}

// findBytes counts the bytes every level scan has had Find hash, one add per
// finished level, so tests pin a re-chunk's hashing cost with before/after
// deltas as hash.Digests pins its digests.
var findBytes atomic.Int64

// hashed counts the bytes a Find from lo over node[:hi] hashed: up to its
// hit, where it stops, or to hi.
func (ls *levelScan) hashed(lo, hi, hit int) {
	if hit >= 0 {
		hi = hit + 1
	}
	ls.scanned += max(hi-max(lo, ls.begin), 0)
}

// find resumes the scan over node, the open node's bytes, and returns Find's
// hit and hash state.
func (ls *levelScan) find(node []byte) (int, uint64) {
	if ls.stale {
		ls.h, ls.stale = ls.seed(node, ls.pos), false
	}
	hit, h := ls.scan.Find(node, ls.pos, ls.h, ls.begin, ls.check, ls.normal)
	ls.hashed(ls.pos, len(node), hit)
	ls.pos, ls.h = len(node), h
	return hit, h
}

// seed returns the scan state at offset p of node: the hash of the at most
// window hashed bytes before p, which is all the state a scan carries.
func (ls *levelScan) seed(node []byte, p int) uint64 {
	if p == ls.pos && !ls.stale {
		return ls.h
	}
	s := max(ls.begin, p-ls.window)
	if s >= p {
		return 0
	}
	ls.scanned += p - s
	_, h := ls.scan.Find(node[:p], s, 0, s, math.MaxInt, math.MaxInt)
	return h
}

// scanRange returns the first counted pattern of a leaf at node offsets
// [lo, hi), or -1, scanning from the seeded state at lo; without a hit it
// leaves the scan state at hi.
func (ls *levelScan) scanRange(node []byte, lo, hi int) int {
	if lo = max(lo, ls.first); lo >= hi {
		return -1
	}
	h := ls.seed(node, lo)
	hit, h := ls.scan.Find(node[:hi], lo, h, ls.begin, ls.check, ls.normal)
	ls.hashed(lo, hi, hit)
	if hit < 0 {
		ls.pos, ls.h, ls.stale = hi, h, false
	}
	return hit
}

// restart resets the scan state at a node boundary.
func (ls *levelScan) restart() { ls.pos, ls.h, ls.stale = 0, 0, false }

// tally hands the bytes scanned so far to findBytes.
func (ls *levelScan) tally() {
	findBytes.Add(int64(ls.scanned))
	ls.scanned = 0
}

func newLevelScan(cfg chunker.Config, level uint8) levelScan {
	ls := levelScan{scan: rolling.NewScan(cfg.Q, cfg.Window), window: cfg.Window}
	if level == 0 {
		ls.begin, ls.check = ls.scan.SkipStart(cfg.MinSize), cfg.MinSize-1
		ls.first = ls.begin + cfg.Window - 1
		ls.normal = cfg.NormalSize()
	} else {
		bits := indexFanoutBits(cfg.Q)
		ls.check, ls.normal = math.MaxInt, math.MaxInt
		ls.fanout, ls.easyFanout = uint64(1)<<bits-1, uint64(1)<<rolling.EasyBits(bits)-1
		ls.minFan, ls.normalFan = max(2, 1<<(bits-1)), 1<<bits
	}
	return ls
}

// indexCut reports whether an index node cuts after its n-th entry, whose
// end leaves the hash h: the two-region rule, or the entry bound.
func (ls *levelScan) indexCut(n int, h uint64) bool {
	mask := ls.fanout
	if n >= ls.normalFan {
		mask = ls.easyFanout
	}
	return n >= ls.minFan && h&mask == 0 || n >= indexMaxEntries
}

// indexFanoutBits chooses the expected children per index node (about
// 2^bits) so that index nodes stay size-proportionate to leaves: an index
// entry is ~48 bytes (split key + 32-byte hash + count), so matching the 2^Q
// leaf target gives bits ≈ Q-6, clamped to [2, 8] so reduction stays
// geometric (≥2× per level, the cut's minimum) and nodes stay bounded (≤256
// children on average), and never more bits than the hash has.
func indexFanoutBits(q uint) uint {
	return min(max(q, 8)-6, 8, q)
}

// indexType returns the index node type of the variant whose leaves are
// leaf: lists and blobs both route by count.
func indexType(leaf chunk.Type) chunk.Type {
	if leaf == chunk.TypeMapLeaf {
		return chunk.TypeMapIndex
	}
	return chunk.TypeSeqIndex
}

// newLevelBuilder returns a builder of the given level of the variant whose
// leaves are leaf.
func newLevelBuilder(sink *store.ChunkSink, cfg chunker.Config, level uint8, leaf chunk.Type) *levelBuilder {
	return levelBuilderOn(nil, sink, cfg, level, leaf)
}

// levelBuilderOn is newLevelBuilder over buf, the scratch buffer a finished
// builder of the same build or edit leaves behind (nil: a fresh one), so the
// levels of one edit share one buffer instead of allocating one each.
func levelBuilderOn(buf []byte, sink *store.ChunkSink, cfg chunker.Config, level uint8, leaf chunk.Type) *levelBuilder {
	cfg = cfg.Normalized()
	if buf == nil {
		buf = make([]byte, 0, nodeHeadroom+min(2<<cfg.Q, cfg.MaxSize))
	}
	typ := leaf
	if level > 0 {
		typ = indexType(leaf)
	}
	return &levelBuilder{
		sink:      sink,
		cfg:       cfg,
		level:     level,
		leaf:      leaf,
		typ:       typ,
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
		cut = b.indexCut(b.n, h)
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

// addBytes feeds p, new bytes of a blob leaf level, cutting where feeding
// them one by one through afterAppend would: after the first counted
// pattern, or at MaxSize.  It takes at most twice the expected leaf size per
// scan, so a cut wastes at most that much copying; bytes past a cut are
// taken again into the next node, whose scan starts afresh.  The scratch
// buffer grows once, to the largest node p can fill.
func (b *levelBuilder) addBytes(p []byte) error {
	b.buf = slices.Grow(b.buf, min(len(p), b.cfg.MaxSize-(len(b.buf)-nodeHeadroom)))
	for len(p) > 0 {
		held := len(b.buf) - nodeHeadroom
		take := min(len(p), b.cfg.MaxSize-held, 2<<b.cfg.Q)
		b.buf = append(b.buf, p[:take]...)
		hit, _ := b.find(b.buf[nodeHeadroom:])
		if hit >= 0 {
			take = hit + 1 - held
			b.buf = b.buf[:nodeHeadroom+hit+1]
		}
		b.n += take
		b.count += uint64(take)
		b.boundary = false
		p = p[take:]
		if hit >= 0 || b.n >= b.cfg.MaxSize {
			if err := b.closeNode(); err != nil {
				return err
			}
		}
	}
	return nil
}

// addRef feeds one child reference (index levels).
func (b *levelBuilder) addRef(r childRef) error {
	if b.typ == chunk.TypeMapIndex {
		b.buf = encodeChildRef(b.buf, r)
	} else {
		b.buf = encodeSeqChildRef(b.buf, r)
	}
	return b.afterAppend(r.splitKey, r.count)
}

// appendRun appends the entries [a, z) of o, an old node of this level,
// with the cuts, bytes and scan state that feeding them one by one through
// addEntry, addItem, addBytes or addRef would give, but as one copy of their
// encoded bytes per node they land in, hashing only where o's own cuts prove
// nothing; a blob leaf's entries are its bytes.  The proof needs o cut
// canonically under b's config, as every node of a tree built under that
// config is:
//
//   - Leaf.  A pattern at byte i depends only on bytes [i-W+1, i] and counts
//     only at node offset >= first (the min-size rule), under the full mask
//     below the normal point and the easy mask from it.  o's non-last
//     entries hold no counted pattern, or o would have been cut there.  So a
//     copied byte needs no hash when its offset in o is >= first, it lies
//     outside o's last entry, the run also copied the W-1 bytes before it,
//     and it does not move from below o's normal point to at or past the
//     open node's: no full pattern does not rule out an easy one.  The
//     rest, at most the run's head, the bytes that cross the normal point
//     and o's last entry, is scanned.
//   - Index.  The cut after an entry reads its count in the node and the
//     hash of the W bytes before its end.  Entry j of o with count j+1 at
//     least the minimum, j < len-1, did not cut, so the mask of its region
//     does not clear its hash wherever the same W bytes end it, and an easy
//     mask that does not clear it rules out the full one; any other entry,
//     and one whose count moves into the easy region, is tested from those
//     W bytes.
//
// MaxSize and the entry bound are arithmetic on entry ends.
func (b *levelBuilder) appendRun(o *node, a, z int) error {
	for a < z {
		k, cut := b.copyRun(o, a, z)
		if cut {
			if err := b.closeNode(); err != nil {
				return err
			}
		}
		a = k + 1
	}
	return nil
}

// copyRun appends o's entries [a, k], where k is the first entry of [a, z)
// after which the open node cuts, or z-1 when none does, and reports
// whether it cuts.  A pattern in the run's unproven bytes truncates the copy
// to its entry; the remainder is copied again from there.
func (b *levelBuilder) copyRun(o *node, a, z int) (k int, cut bool) {
	from, last := o.end(a-1), o.elems()-1
	shift := len(b.buf) - nodeHeadroom - from // o's payload offset + shift = open-node offset
	k = z - 1
	if b.level == 0 {
		if j := a + sort.Search(z-a, func(i int) bool { return o.end(a+i)+shift >= b.cfg.MaxSize }); j < z {
			k, cut = j, true
		}
	} else if room := indexMaxEntries - b.n; z-a >= room {
		k, cut = a+room-1, true
	}
	b.buf = append(b.buf, o.data[from:o.end(k)]...)
	node := b.buf[nodeHeadroom:]
	if b.level == 0 {
		if hit := b.scanUnproven(node, o, from, shift, k == last, o.end(k)+shift); hit >= 0 {
			k = a + sort.Search(k-a, func(i int) bool { return o.end(a+i)+shift > hit })
			cut = true
		}
	} else {
		for j := a; j <= k; j++ {
			// o tested entry j, under a mask at least as strict as the open
			// node's count n needs, over the same W bytes.
			n := b.n + j - a + 1
			proven := j+1 >= b.minFan && j < last && o.end(j)-b.window >= from && (n < b.normalFan || j+1 >= b.normalFan)
			if n < b.minFan || proven {
				continue
			}
			if b.indexCut(n, b.seed(node, o.end(j)+shift)) {
				k, cut = j, true
				break
			}
		}
	}
	b.buf = b.buf[:nodeHeadroom+o.end(k)+shift]
	if b.level == 0 {
		b.count += uint64(k - a + 1)
	} else {
		for j := a; j <= k; j++ {
			b.count += o.count(j)
		}
	}
	if b.leaf == chunk.TypeMapLeaf {
		b.lastKey = o.key(k)
	}
	b.n += k - a + 1
	b.boundary = false
	// The scan state moves to the end of the open node; its hash is seeded
	// only if an appended entry needs it, not when another run follows.
	if end := len(b.buf) - nodeHeadroom; !cut && b.pos != end {
		b.pos, b.stale = end, true
	}
	return k, cut
}

// scanUnproven returns the first counted pattern among the leaf bytes a run
// copied from o at o.data[from:] to open-node offsets up to end, or -1,
// scanning in offset order only the bytes o does not vouch for: the run's
// head up to proven, those that cross from below o's normal point to at or
// past the open node's, and, when the run reaches it, o's last entry.
func (b *levelBuilder) scanUnproven(node []byte, o *node, from, shift int, toLast bool, end int) int {
	proven := max(o.end(-1)+b.first, from+b.window-1) + shift
	spans := [3][2]int{{from + shift, proven}}
	if d := o.end(-1) + shift; d > 0 { // o's offset 0 lands at d
		spans[1] = [2]int{max(b.normal, proven), b.normal + d}
	}
	if toLast {
		spans[2] = [2]int{max(proven, o.end(o.elems()-2)+shift), end}
		if spans[2][0] < spans[1][0] {
			spans[1], spans[2] = spans[2], spans[1]
		}
	}
	lo := 0 // offsets below lo are settled
	for _, sp := range spans {
		if a, z := max(sp[0], lo), min(sp[1], end); a < z {
			if hit := b.scanRange(node, a, z); hit >= 0 {
				return hit
			}
			lo = z
		}
	}
	return -1
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
	rs := nodeHeadroom - 1 // a blob leaf: [type][bytes]
	if b.typ != chunk.TypeBlobLeaf {
		var tmp [binary.MaxVarintLen64]byte
		nlen := binary.PutUvarint(tmp[:], uint64(b.n))
		rs -= 1 + nlen
		b.buf[rs+1] = b.level
		copy(b.buf[rs+2:], tmp[:nlen])
	}
	b.buf[rs] = byte(b.typ)
	id, err := b.sink.Emit(b.typ, b.buf[rs:])
	if err != nil {
		return fmt.Errorf("pos: storing node: %w", err)
	}
	ref := childRef{id: id, count: b.count}
	if b.leaf == chunk.TypeMapLeaf {
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
	b.tally()
	return b.emitted, nil
}

// buildLevels stacks index levels over refs until a single root remains,
// every level on the scratch buffer buf (nil: a fresh one).  Used both by
// from-scratch builds and to cap incremental edits whose top level ended up
// with more than one node.
func buildLevels(sink *store.ChunkSink, cfg chunker.Config, refs []childRef, level uint8, leaf chunk.Type, buf []byte) (childRef, error) {
	for len(refs) > 1 {
		lb := levelBuilderOn(buf, sink, cfg, level, leaf)
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

// editSink returns the write sink for builds, incremental edits and merges:
// on a store with a decoded-node cache the nodes a write lands enter the
// cache under the gateway's write rule (store.Nodes.WriteThrough), so a
// remote engine reads back what it built without a round trip.  Re-emitted
// shared subtrees go to the store like new nodes; its put turns them away as
// dedup hits.
func editSink(src nodeSource) *store.ChunkSink {
	return store.NewChunkSink(src.WriteThrough())
}

// build is the from-scratch build of every variant: feed adds the leaf
// elements to a leaf builder of the variant whose leaves are leaf, index
// levels are stacked over the leaves until one root remains, and sink, which
// build closes, is flushed.  One level builder feeds one sink, on the
// caller's goroutine.
func build(sink *store.ChunkSink, cfg chunker.Config, leaf chunk.Type, feed func(lb *levelBuilder) error) (childRef, error) {
	defer sink.Close()
	lb := newLevelBuilder(sink, cfg, 0, leaf)
	if err := feed(lb); err != nil {
		return childRef{}, err
	}
	leaves, err := lb.finish()
	if err != nil {
		return childRef{}, err
	}
	root, err := buildLevels(sink, cfg, leaves, 1, leaf, lb.buf)
	if err != nil {
		return childRef{}, err
	}
	return root, sink.Flush()
}

// BuildMap constructs a map POS-Tree over entries (which need not be sorted;
// duplicate keys keep the last value) and returns the tree.  The build is a
// pure function of the final record set — the SIRI structural-invariance
// property — because node boundaries depend only on the sorted entry stream.
// Nodes flow to the store through a batched sink; the tree is fully landed
// when BuildMap returns.
func BuildMap(st store.Store, cfg chunker.Config, entries []Entry) (*Tree, error) {
	src := sourceFor(st)
	root, err := build(editSink(src), cfg, chunk.TypeMapLeaf, func(lb *levelBuilder) error {
		for _, e := range lastPerKey(entries, entryKey) {
			if err := lb.addEntry(e); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return &Tree{src: src, cfg: cfg, root: root.id, count: root.count}, nil
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
