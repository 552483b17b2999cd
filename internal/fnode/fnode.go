// Package fnode implements ForkBase version objects and the version
// derivation graph (paper §II-D).
//
// Every Put creates an FNode: a commit-like structure holding the object's
// key, its value descriptor, links to the versions it derives from (bases),
// and user metadata.  The FNode is stored as a chunk; its content hash is
// the version's uid.  Because the value is a structurally invariant Merkle
// tree and the bases form a hash chain, a uid uniquely and tamper-evidently
// identifies both the object value and its entire derivation history: two
// FNodes are equivalent iff they have the same value and the same history.
package fnode

import (
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"maps"
	"slices"
	"sort"

	"forkbase/internal/chunk"
	"forkbase/internal/codec"
	"forkbase/internal/hash"
	"forkbase/internal/index"
	"forkbase/internal/store"
	"forkbase/internal/value"
)

// FNode is one node of the version derivation graph.
type FNode struct {
	// Key is the object key this version belongs to.
	Key []byte
	// Seq is the generation number, 1 + max(Seq of bases): Latest orders
	// versions by it, and MergeBase walks ancestry in its order, so that
	// walk and deep verification check each base's Seq is below its child's.
	Seq uint64
	// Bases are the uids of the parent versions: none for an initial
	// version, one for a normal update, two for a merge.
	Bases []hash.Hash
	// Value is the version's value.  It is encoded as its descriptor
	// (value.Value.Encode) and, for a map or set, its index structure
	// (Value.IndexKind): the one record of that structure, so readers
	// self-describe without engine configuration.
	Value value.Value
	// Meta carries user annotations (author, message, ...).  Keys are
	// encoded sorted, keeping the uid deterministic.
	Meta map[string]string
}

// ErrNotFNode is returned when a uid resolves to a non-FNode chunk.
var ErrNotFNode = errors.New("fnode: chunk is not an FNode")

var errMalformed = errors.New("fnode: malformed encoding")

// New assembles an FNode for a fresh value deriving from bases.  It copies
// key, bases and meta, so a saved FNode shares nothing with its caller.
func New(key []byte, val value.Value, bases []hash.Hash, seq uint64, meta map[string]string) *FNode {
	f := &FNode{
		Key:   append([]byte(nil), key...),
		Seq:   seq,
		Bases: append([]hash.Hash(nil), bases...),
		Value: val,
	}
	if len(meta) > 0 {
		f.Meta = maps.Clone(meta)
	}
	return f
}

// Encode renders the canonical byte form.  Every field participates, and
// map keys are sorted, so the encoding — and therefore the uid — is a pure
// function of the version's content and history.
func (f *FNode) Encode() []byte {
	out := append(binary.AppendUvarint(nil, uint64(len(f.Key))), f.Key...)
	out = binary.AppendUvarint(out, f.Seq)
	out = binary.AppendUvarint(out, uint64(len(f.Bases)))
	for _, b := range f.Bases {
		out = append(out, b[:]...)
	}
	desc := f.Value.Encode()
	out = append(binary.AppendUvarint(out, uint64(len(desc))), desc...)
	keys := make([]string, 0, len(f.Meta))
	for k := range f.Meta {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out = binary.AppendUvarint(out, uint64(len(keys)))
	for _, k := range keys {
		v := f.Meta[k]
		out = append(binary.AppendUvarint(out, uint64(len(k))), k...)
		out = append(binary.AppendUvarint(out, uint64(len(v))), v...)
	}
	// Index kind: a single trailing byte, present only for a map or set
	// over a non-default structure.  Omitting the POS default keeps every
	// POS-backed encoding (and therefore uid) byte-identical with
	// pre-index-layer versions.
	if k := f.Value.IndexKind(); k != index.KindPOS {
		out = append(out, byte(k))
	}
	return out
}

// Decode parses the canonical byte form and refuses any other: a
// non-minimal varint, meta keys out of order, a malformed value descriptor,
// a redundant or unknown index kind byte, one on a value that is not a map
// or set, or bytes left over.
func Decode(data []byte) (*FNode, error) {
	r := codec.NewReader(data)
	f := &FNode{Key: clone(r.Bytes()), Seq: r.Uvarint()}
	f.Bases = make([]hash.Hash, r.Count(hash.Size, -1))
	for i := range f.Bases {
		f.Bases[i] = r.ID()
	}
	desc := r.Bytes()
	if n := r.Count(2, -1); n > 0 { // an entry is at least its two length bytes
		f.Meta = make(map[string]string, n)
		prev := ""
		for i := 0; i < n; i++ {
			k, v := string(r.Bytes()), string(r.Bytes())
			r.Check(i == 0 || k > prev) // Encode sorts the keys
			f.Meta[k], prev = v, k
		}
	}
	k := index.KindPOS
	if r.Len() == 1 {
		k = index.Kind(r.Byte())
		if k == index.KindPOS || !k.Known() {
			return nil, fmt.Errorf("fnode: bad index kind byte %d (POS is encoded as absence)", k)
		}
	}
	if !r.Done() {
		return nil, errMalformed
	}
	v, err := value.Decode(desc, k)
	if err != nil {
		return nil, err
	}
	f.Value = v
	return f, nil
}

// clone copies b out of the encoding, so a decoded FNode holds none of it.
func clone(b []byte) []byte { return append([]byte(nil), b...) }

// cacheCost approximates the memory a decoded FNode holds, for the
// decoded-node cache's budget: Decode copies every field out of the c.Size()
// encoded bytes, and each Meta entry adds its map slot.
func (f *FNode) cacheCost(c *chunk.Chunk) int { return c.Size() + 48*len(f.Meta) }

// nodesOf is the decoded-node gateway for FNodes over st, the store.Nodes the
// POS-Tree and MPT nodes share a cache through.
func nodesOf(st store.Store) store.Nodes[*FNode] {
	return store.NodesOf(st, func(c *chunk.Chunk) (*FNode, int, error) {
		if c.Type() != chunk.TypeFNode {
			return nil, 0, fmt.Errorf("%w (a %s)", ErrNotFNode, c.Type())
		}
		f, err := Decode(c.Data())
		if err != nil {
			return nil, 0, err
		}
		return f, f.cacheCost(c), nil
	})
}

// Save is SaveAll of f alone: it returns f's uid, and f is frozen from then
// on.
func (f *FNode) Save(st store.Store) (hash.Hash, error) {
	uids, err := SaveAll(st, []*FNode{f})
	if err != nil {
		return hash.Hash{}, err
	}
	return uids[0], nil
}

// SaveAll stores FNodes in one batched store round and returns their uids in
// order: every write of a version object, one or many, is one PutBatch.
// Over a store with a decoded-node cache it also caches each FNode itself,
// under the gateway's write rule (resident before the put, evicted if the
// put fails), so the next Load of its uid touches no store: from here on
// each FNode is frozen — shared with every later Load, never to be mutated.
func SaveAll(st store.Store, fs []*FNode) ([]hash.Hash, error) {
	cs := make([]*chunk.Chunk, len(fs))
	uids := make([]hash.Hash, len(fs))
	for i, f := range fs {
		cs[i] = chunk.New(chunk.TypeFNode, f.Encode())
		uids[i] = cs[i].ID()
	}
	decoded := func(i int) (*FNode, int) { return fs[i], fs[i].cacheCost(cs[i]) }
	if _, err := nodesOf(st).PutBatch(cs, decoded); err != nil {
		return nil, fmt.Errorf("fnode: save: %w", err)
	}
	return uids, nil
}

// UID computes the uid without storing.
func (f *FNode) UID() hash.Hash {
	return chunk.New(chunk.TypeFNode, f.Encode()).ID()
}

// Load fetches and decodes the FNode identified by uid through the
// decoded-node gateway: a cached FNode serves it without touching the store,
// and a miss reads, verifies, decodes and caches it.  The result is shared
// and read-only: callers copy what they hand on (core's versionOf does).
// Reads whose point is the bytes — deep verify, GC mark, heal — go through
// Walk instead and never consult the cache.
func Load(st store.Store, uid hash.Hash) (*FNode, error) {
	f, err := nodesOf(st).Load(uid)
	if err != nil {
		return nil, fmt.Errorf("fnode: load %s: %w", uid.Short(), err)
	}
	return f, nil
}

// HistoryNodes walks the first-parent chain from uid, returning up to limit
// (<= 0: all) uids and their loaded FNodes as parallel slices, most recent
// first, so a caller needing the contents does not load each one twice.
func HistoryNodes(st store.Store, uid hash.Hash, limit int) ([]hash.Hash, []*FNode, error) {
	var uids []hash.Hash
	var nodes []*FNode
	cur := uid
	for !cur.IsZero() {
		if limit > 0 && len(uids) >= limit {
			break
		}
		f, err := Load(st, cur)
		if err != nil {
			return uids, nodes, err
		}
		uids = append(uids, cur)
		nodes = append(nodes, f)
		if len(f.Bases) == 0 {
			break
		}
		cur = f.Bases[0]
	}
	return uids, nodes, nil
}

// ErrSeqOrder reports a version whose Seq is not above one of its bases',
// which no honest writer produces and which a Seq-ordered walk cannot trust.
var ErrSeqOrder = errors.New("fnode: base Seq not below its child's")

// CheckSeq returns ErrSeqOrder, naming both ends of the edge, unless base's
// Seq is strictly below that of child, a version listing it as a base.
func CheckSeq(child hash.Hash, childSeq uint64, base hash.Hash, baseSeq uint64) error {
	if baseSeq < childSeq {
		return nil
	}
	return fmt.Errorf("%w: %s (Seq %d) is a base of %s (Seq %d)", ErrSeqOrder, base.Short(), baseSeq, child.Short(), childSeq)
}

// Ancestry is what MergeBase learns about versions a and b: their FNodes,
// the merge base and its FNode (both zero for unrelated histories), and how
// many FNodes the walk loaded, each once.
type Ancestry struct {
	A, B     *FNode
	Base     hash.Hash
	BaseNode *FNode
	Loaded   int
}

// painted is a version the ancestry walk has reached; bit i of paint is set
// once the walk's i-th starting version reaches it.
type painted struct {
	uid   hash.Hash
	f     *FNode
	paint uint8
}

// popLater orders the walk's queue so that its last element is the next to
// pop: the highest Seq, and among equals the smaller uid.
func popLater(x, y *painted) int {
	if c := cmp.Compare(x.f.Seq, y.f.Seq); c != 0 {
		return c
	}
	return y.uid.Compare(x.uid)
}

// MergeBase finds the merge base of versions a and b: of their common
// ancestors (a version is its own ancestor), the one with the highest Seq,
// the smaller uid among equals.  Base == a means b descends from a (a
// fast-forward), Base == b that a already contains b, and a zero Base that
// the histories are unrelated.
//
// The walk paints a and b each a colour and pops versions in (Seq desc, uid
// asc) order, handing the popped version's paint to its bases.  Descendants
// have higher Seqs and pop first, so the first version popped with both
// colours is the base; the walk stops there, or once one colour has nothing
// queued, and so loads the versions down to the base (and their bases), not
// the history below.  Each FNode is loaded and verified once, and each edge
// followed is held to CheckSeq.  On error only Loaded is meaningful.
func MergeBase(st store.Store, a, b hash.Hash) (Ancestry, error) {
	const both = 3
	var anc Ancestry
	reached := map[hash.Hash]*painted{}
	var queue []*painted // sorted by popLater
	reach := func(uid hash.Hash, paint uint8, child *painted) error {
		p := reached[uid]
		if p == nil {
			f, err := Load(st, uid)
			if err != nil {
				return err
			}
			anc.Loaded++
			p = &painted{uid: uid, f: f}
			reached[uid] = p
			i, _ := slices.BinarySearchFunc(queue, p, popLater)
			queue = slices.Insert(queue, i, p)
		}
		// Everything popped so far has a Seq at least child's, so an edge
		// that checks out leads to a version still queued.
		if child != nil {
			if err := CheckSeq(child.uid, child.f.Seq, uid, p.f.Seq); err != nil {
				return err
			}
		}
		p.paint |= paint
		return nil
	}
	for i, uid := range []hash.Hash{a, b} {
		if err := reach(uid, 1<<i, nil); err != nil {
			return anc, err
		}
	}
	anc.A, anc.B = reached[a].f, reached[b].f
	for {
		var queuedPaint uint8
		for _, p := range queue {
			queuedPaint |= p.paint
		}
		if queuedPaint != both {
			return anc, nil
		}
		p := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		if p.paint == both {
			anc.Base, anc.BaseNode = p.uid, p.f
			return anc, nil
		}
		for _, base := range p.f.Bases {
			if err := reach(base, p.paint, p); err != nil {
				return anc, err
			}
		}
	}
}
