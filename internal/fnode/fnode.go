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
	"encoding/binary"
	"errors"
	"fmt"
	"sort"

	"forkbase/internal/chunk"
	"forkbase/internal/hash"
	"forkbase/internal/index"
	"forkbase/internal/store"
	"forkbase/internal/value"
)

// FNode is one node of the version derivation graph.
type FNode struct {
	// Key is the object key this version belongs to.
	Key []byte
	// Seq is a logical clock: 1 + max(Seq of bases); used by Latest to
	// order versions across branches deterministically and offline.
	Seq uint64
	// Bases are the uids of the parent versions: none for an initial
	// version, one for a normal update, two for a merge.
	Bases []hash.Hash
	// Value is the encoded value descriptor (value.Value.Encode).
	Value []byte
	// Meta carries user annotations (author, message, ...).  Keys are
	// encoded sorted, keeping the uid deterministic.
	Meta map[string]string
	// Index records which index structure backs composite values of this
	// version, so readers self-describe without engine configuration.  The
	// default (index.KindPOS, the zero value) is encoded as *absence* —
	// POS-backed FNodes stay byte-identical to those written before the
	// index layer existed, and old chunks decode as POS-backed.
	Index index.Kind
}

// ErrNotFNode is returned when a uid resolves to a non-FNode chunk.
var ErrNotFNode = errors.New("fnode: chunk is not an FNode")

// New assembles an FNode for a fresh value deriving from bases.
func New(key []byte, val value.Value, bases []hash.Hash, seq uint64, meta map[string]string) *FNode {
	return &FNode{
		Key:   append([]byte(nil), key...),
		Seq:   seq,
		Bases: append([]hash.Hash(nil), bases...),
		Value: val.Encode(),
		Meta:  meta,
	}
}

// DecodedValue parses the embedded value descriptor.
func (f *FNode) DecodedValue() (value.Value, error) {
	return value.Decode(f.Value)
}

func appendUvarint(dst []byte, x uint64) []byte {
	var tmp [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(tmp[:], x)
	return append(dst, tmp[:n]...)
}

func appendBytes(dst, b []byte) []byte {
	dst = appendUvarint(dst, uint64(len(b)))
	return append(dst, b...)
}

// Encode renders the canonical byte form.  Every field participates, and
// map keys are sorted, so the encoding — and therefore the uid — is a pure
// function of the version's content and history.
func (f *FNode) Encode() []byte {
	var out []byte
	out = appendBytes(out, f.Key)
	out = appendUvarint(out, f.Seq)
	out = appendUvarint(out, uint64(len(f.Bases)))
	for _, b := range f.Bases {
		out = append(out, b[:]...)
	}
	out = appendBytes(out, f.Value)
	keys := make([]string, 0, len(f.Meta))
	for k := range f.Meta {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out = appendUvarint(out, uint64(len(keys)))
	for _, k := range keys {
		out = appendBytes(out, []byte(k))
		out = appendBytes(out, []byte(f.Meta[k]))
	}
	// Index kind: a single trailing byte, present only for non-default
	// structures.  Omitting the POS default keeps every POS-backed encoding
	// (and therefore uid) byte-identical with pre-index-layer versions.
	if f.Index != index.KindPOS {
		out = append(out, byte(f.Index))
	}
	return out
}

// Decode parses the canonical byte form.
func Decode(data []byte) (*FNode, error) {
	f := &FNode{}
	p := data
	var err error
	if f.Key, p, err = readBytes(p); err != nil {
		return nil, fmt.Errorf("fnode: key: %w", err)
	}
	var n uint64
	if f.Seq, p, err = readUvarint(p); err != nil {
		return nil, fmt.Errorf("fnode: seq: %w", err)
	}
	if n, p, err = readUvarint(p); err != nil {
		return nil, fmt.Errorf("fnode: base count: %w", err)
	}
	if n > uint64(len(p))/hash.Size {
		return nil, errors.New("fnode: base count exceeds payload")
	}
	f.Bases = make([]hash.Hash, n)
	for i := range f.Bases {
		copy(f.Bases[i][:], p[:hash.Size])
		p = p[hash.Size:]
	}
	if f.Value, p, err = readBytes(p); err != nil {
		return nil, fmt.Errorf("fnode: value: %w", err)
	}
	if n, p, err = readUvarint(p); err != nil {
		return nil, fmt.Errorf("fnode: meta count: %w", err)
	}
	if n > uint64(len(p))/2 { // an entry is at least its two length bytes
		return nil, errors.New("fnode: meta count exceeds payload")
	}
	if n > 0 {
		f.Meta = make(map[string]string, n)
		for i := uint64(0); i < n; i++ {
			var k, v []byte
			if k, p, err = readBytes(p); err != nil {
				return nil, fmt.Errorf("fnode: meta key: %w", err)
			}
			if v, p, err = readBytes(p); err != nil {
				return nil, fmt.Errorf("fnode: meta value: %w", err)
			}
			f.Meta[string(k)] = string(v)
		}
	}
	if len(p) > 0 {
		f.Index = index.Kind(p[0])
		if f.Index == index.KindPOS {
			return nil, errors.New("fnode: redundant index kind byte (POS is encoded as absence)")
		}
		if !f.Index.Known() {
			return nil, fmt.Errorf("fnode: unknown index kind %d", p[0])
		}
		p = p[1:]
	}
	if len(p) != 0 {
		return nil, fmt.Errorf("fnode: %d trailing bytes", len(p))
	}
	return f, nil
}

func readUvarint(p []byte) (uint64, []byte, error) {
	v, n := binary.Uvarint(p)
	if n <= 0 {
		return 0, nil, errors.New("truncated uvarint")
	}
	return v, p[n:], nil
}

func readBytes(p []byte) ([]byte, []byte, error) {
	l, rest, err := readUvarint(p)
	if err != nil {
		return nil, nil, err
	}
	if uint64(len(rest)) < l {
		return nil, nil, errors.New("truncated bytes")
	}
	return append([]byte(nil), rest[:l]...), rest[l:], nil
}

// Save stores the FNode and returns its uid.
func (f *FNode) Save(st store.Store) (hash.Hash, error) {
	c := chunk.New(chunk.TypeFNode, f.Encode())
	if _, err := st.Put(c); err != nil {
		return hash.Hash{}, fmt.Errorf("fnode: save: %w", err)
	}
	return c.ID(), nil
}

// SaveAll stores many FNodes in one batched store round and returns their
// uids in order.  Multi-key ingest (core.DB.WriteBatch) commits all its
// version objects with a single lock acquisition — and, on a FileStore, a
// single group-commit flush — instead of one synchronous Put per version.
func SaveAll(st store.Store, fs []*FNode) ([]hash.Hash, error) {
	cs := make([]*chunk.Chunk, len(fs))
	uids := make([]hash.Hash, len(fs))
	for i, f := range fs {
		cs[i] = chunk.New(chunk.TypeFNode, f.Encode())
		uids[i] = cs[i].ID()
	}
	if _, err := st.PutBatch(cs); err != nil {
		return nil, fmt.Errorf("fnode: save batch: %w", err)
	}
	return uids, nil
}

// UID computes the uid without storing.
func (f *FNode) UID() hash.Hash {
	return chunk.New(chunk.TypeFNode, f.Encode()).ID()
}

// Load fetches and decodes the FNode identified by uid.
func Load(st store.Store, uid hash.Hash) (*FNode, error) {
	c, err := st.Get(uid)
	if err != nil {
		return nil, fmt.Errorf("fnode: load %s: %w", uid.Short(), err)
	}
	if c.Type() != chunk.TypeFNode {
		return nil, fmt.Errorf("%w: %s is a %s", ErrNotFNode, uid.Short(), c.Type())
	}
	if err := c.Verify(uid); err != nil {
		return nil, err
	}
	return Decode(c.Data())
}

// History walks the first-parent chain from uid, returning up to limit uids
// (most recent first).  limit <= 0 walks the full chain.
func History(st store.Store, uid hash.Hash, limit int) ([]hash.Hash, error) {
	uids, _, err := HistoryNodes(st, uid, limit)
	return uids, err
}

// HistoryNodes walks the first-parent chain from uid and returns both the
// uids and the loaded FNodes (parallel slices, most recent first).  The walk
// has to load and decode every FNode anyway to follow its parent link, so
// callers that also need the versions' contents (core.DB.History) take the
// nodes from here instead of fetching and decoding each one a second time.
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

// LCA returns the lowest common ancestor of two versions in the derivation
// DAG (the merge base), or the zero hash if the histories are unrelated.
// Ties are broken deterministically by preferring the ancestor with the
// highest Seq, then the smaller uid.
func LCA(st store.Store, a, b hash.Hash) (hash.Hash, error) {
	ancestorsA, err := allAncestors(st, a)
	if err != nil {
		return hash.Hash{}, err
	}
	// BFS from b; the first node found in ancestorsA with maximal Seq wins.
	type cand struct {
		uid hash.Hash
		seq uint64
	}
	var best *cand
	seen := map[hash.Hash]bool{}
	queue := []hash.Hash{b}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		if seen[cur] || cur.IsZero() {
			continue
		}
		seen[cur] = true
		f, err := Load(st, cur)
		if err != nil {
			return hash.Hash{}, err
		}
		if ancestorsA[cur] {
			if best == nil || f.Seq > best.seq || (f.Seq == best.seq && cur.Compare(best.uid) < 0) {
				best = &cand{uid: cur, seq: f.Seq}
			}
			continue // ancestors of a common ancestor cannot be lower
		}
		queue = append(queue, f.Bases...)
	}
	if best == nil {
		return hash.Hash{}, nil
	}
	return best.uid, nil
}

func allAncestors(st store.Store, uid hash.Hash) (map[hash.Hash]bool, error) {
	out := map[hash.Hash]bool{}
	queue := []hash.Hash{uid}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		if cur.IsZero() || out[cur] {
			continue
		}
		out[cur] = true
		f, err := Load(st, cur)
		if err != nil {
			return nil, err
		}
		queue = append(queue, f.Bases...)
	}
	return out, nil
}

// IsAncestor reports whether anc is reachable from uid (inclusive).
func IsAncestor(st store.Store, anc, uid hash.Hash) (bool, error) {
	if anc.IsZero() {
		return false, nil
	}
	seen := map[hash.Hash]bool{}
	queue := []hash.Hash{uid}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		if cur.IsZero() || seen[cur] {
			continue
		}
		if cur == anc {
			return true, nil
		}
		seen[cur] = true
		f, err := Load(st, cur)
		if err != nil {
			return false, err
		}
		queue = append(queue, f.Bases...)
	}
	return false, nil
}
