// Package mpt implements a content-addressed Merkle Patricia Trie — the
// main comparison structure of the ForkBase paper's SIRI evaluation
// (§II-A): like the POS-Tree it is a Merkle DAG whose root hash
// authenticates the whole record set and whose layout is a pure function of
// that set (structural invariance), but node boundaries follow key-prefix
// structure instead of content-defined chunking.
//
// The trie is nibble-keyed (two nibbles per key byte) with path
// compression, in the classic three-node-kind form:
//
//   - leaf: a compressed terminal path plus the value;
//   - extension: a compressed shared path plus one child (always a branch);
//   - branch: up to 16 children indexed by next nibble, plus an optional
//     value for a key ending at the branch.
//
// Child pointers are chunk hashes, every node is one TypeMPTNode chunk, and
// each child pointer carries the entry count of its subtree: Load reads
// Len off the root, and Apply checks the count it tracked against the one
// it committed.  The counts are part of the node format, so every root
// hash depends on them.
// Canonical-form invariants (a branch always has >= 2 occupied slots, an
// extension always points at a branch, paths are maximally compressed) make
// the structure — and therefore the root hash — independent of operation
// history, which the cross-structure differential oracle enforces.
//
// Writes land through the batched store.ChunkSink, one PutBatch per commit;
// the store's put turns away a recreated shared node as a dedup hit.
// Reachability walks (fnode.Walk: GC, verify, heal, replication pruning)
// decode its children through Children, which fnode.Refs calls for every
// TypeMPTNode chunk.
package mpt

import (
	"encoding/binary"
	"errors"
	"fmt"

	"forkbase/internal/chunk"
	"forkbase/internal/codec"
	"forkbase/internal/hash"
	"forkbase/internal/index"
	"forkbase/internal/store"
)

// Node kinds within a TypeMPTNode chunk payload.
const (
	kindLeaf   = 0
	kindExt    = 1
	kindBranch = 2
)

// node is a fully decoded MPT node.  It is immutable after decode: slices
// alias the underlying chunk payload, which is what makes a node safe to
// share between concurrent traversals and to keep in the decoded-node
// cache.
type node struct {
	kind byte
	path []byte // unpacked nibbles (leaf, ext)
	val  []byte // leaf value, or branch value when hasVal

	hasVal      bool
	childMask   uint16 // branch: bit i set = child at nibble i
	childIDs    [16]hash.Hash
	childCounts [16]uint64

	childID    hash.Hash // ext: the single child (a branch)
	childCount uint64

	encSize int // encoded chunk size, for stats
	memSize int // approximate decoded footprint, for cache accounting
}

// count returns the number of entries under the node.
func (n *node) count() uint64 {
	switch n.kind {
	case kindLeaf:
		return 1
	case kindExt:
		return n.childCount
	default:
		var c uint64
		for i := 0; i < 16; i++ {
			c += n.childCounts[i]
		}
		if n.hasVal {
			c++
		}
		return c
	}
}

// packNibbles appends the packed form of a nibble path: high nibble first,
// odd lengths padded with a zero low nibble (the length travels separately,
// so the pad is unambiguous).
func packNibbles(dst, nibs []byte) []byte {
	for i := 0; i+1 < len(nibs); i += 2 {
		dst = append(dst, nibs[i]<<4|nibs[i+1])
	}
	if len(nibs)%2 == 1 {
		dst = append(dst, nibs[len(nibs)-1]<<4)
	}
	return dst
}

// readNibbles reads uvarint(count) | packed nibbles.
func readNibbles(r *codec.Reader) []byte {
	n := r.Uvarint()
	r.Check(n <= 2*uint64(r.Len()))
	packed := r.Take(int(n+1) / 2)
	// An odd path's pad nibble is zero.
	if r.Check(n%2 == 0 || len(packed) > 0 && packed[len(packed)-1]&0x0f == 0); r.Bad() {
		return nil
	}
	nibs := make([]byte, n)
	for i := range nibs { // high nibble first
		nibs[i] = packed[i/2] >> (4 - 4*(i%2)) & 0x0f
	}
	return nibs
}

// encodeNode renders the canonical [type][payload] chunk encoding of a
// node assembled from parts.  Used by the commit path; decode is the
// inverse over the payload (without the leading chunk type byte).
func encodeNode(dst []byte, kind byte, path, val []byte, hasVal bool, mask uint16, ids *[16]hash.Hash, counts *[16]uint64) []byte {
	dst = append(dst, byte(chunk.TypeMPTNode), kind)
	switch kind {
	case kindLeaf:
		dst = binary.AppendUvarint(dst, uint64(len(path)))
		dst = packNibbles(dst, path)
		dst = binary.AppendUvarint(dst, uint64(len(val)))
		dst = append(dst, val...)
	case kindExt:
		dst = binary.AppendUvarint(dst, uint64(len(path)))
		dst = packNibbles(dst, path)
		dst = append(dst, ids[0][:]...)
		dst = binary.AppendUvarint(dst, counts[0])
	case kindBranch:
		dst = append(dst, byte(mask>>8), byte(mask))
		for i := 0; i < 16; i++ {
			if mask&(1<<i) == 0 {
				continue
			}
			dst = append(dst, ids[i][:]...)
			dst = binary.AppendUvarint(dst, counts[i])
		}
		if hasVal {
			dst = append(dst, 1)
			dst = binary.AppendUvarint(dst, uint64(len(val)))
			dst = append(dst, val...)
		} else {
			dst = append(dst, 0)
		}
	}
	return dst
}

// decodeNode parses a TypeMPTNode chunk payload.
func decodeNode(c *chunk.Chunk) (*node, error) {
	r := codec.NewReader(c.Data())
	n := &node{kind: r.Byte(), encSize: c.Size()}
	switch n.kind {
	case kindLeaf:
		n.path = readNibbles(&r)
		n.val, n.hasVal = r.Bytes(), true
	case kindExt:
		n.path = readNibbles(&r)
		n.childID, n.childCount = r.ID(), r.Uvarint()
		r.Check(len(n.path) > 0)
	case kindBranch:
		n.childMask = uint16(r.Byte())<<8 | uint16(r.Byte())
		for i := 0; i < 16; i++ {
			if n.childMask&(1<<i) != 0 {
				n.childIDs[i], n.childCounts[i] = r.ID(), r.Uvarint()
			}
		}
		switch r.Byte() { // the value flag
		case 0:
		case 1:
			n.val, n.hasVal = r.Bytes(), true
		default:
			r.Check(false)
		}
	default:
		return nil, fmt.Errorf("mpt: unknown node kind %d", n.kind)
	}
	if !r.Done() {
		return nil, errors.New("mpt: malformed node")
	}
	n.memSize = c.Size() + len(n.path) + 16*48
	return n, nil
}

// Children returns the child chunk hashes of an MPT node chunk — the edge
// rule fnode.Refs applies to a TypeMPTNode chunk.
func Children(c *chunk.Chunk) ([]hash.Hash, error) {
	if c.Type() != chunk.TypeMPTNode {
		return nil, nil
	}
	n, err := decodeNode(c)
	if err != nil {
		return nil, err
	}
	switch n.kind {
	case kindExt:
		return []hash.Hash{n.childID}, nil
	case kindBranch:
		out := make([]hash.Hash, 0, 16)
		for i := 0; i < 16; i++ {
			if n.childMask&(1<<i) != 0 {
				out = append(out, n.childIDs[i])
			}
		}
		return out, nil
	default:
		return nil, nil
	}
}

// source is the gateway through which traversals obtain decoded nodes, the
// same store.Nodes the POS-Tree reads through: a hit of another kind (a POS
// node or an FNode under the id) falls through to the store, and
// decodeSourced reports it.
type source = store.Nodes[*node]

func sourceFor(st store.Store) source {
	return store.NodesOf(st, decodeSourced)
}

// decodeSourced decodes a chunk a trie ref names, which must be an MPT node.
func decodeSourced(c *chunk.Chunk) (*node, int, error) {
	if c.Type() != chunk.TypeMPTNode {
		return nil, 0, fmt.Errorf("mpt: chunk %s is a %s, not an mpt node", c.ID().Short(), c.Type())
	}
	n, err := decodeNode(c)
	if err != nil {
		return nil, 0, err
	}
	return n, n.memSize, nil
}

// Trie is an immutable Merkle Patricia Trie rooted at a chunk hash.  Like
// pos.Tree it is a lightweight handle; operations that "modify" it return a
// new Trie sharing unchanged chunks with the old one.
type Trie struct {
	src   source
	root  hash.Hash
	count uint64
}

// New returns the empty trie (zero root).
func New(st store.Store) *Trie {
	return &Trie{src: sourceFor(st)}
}

// Load attaches to an existing trie by root hash.  A zero root is the
// empty trie.  The root node is read to recover the entry count.
func Load(st store.Store, root hash.Hash) (*Trie, error) {
	t := &Trie{src: sourceFor(st), root: root}
	if root.IsZero() {
		return t, nil
	}
	n, err := t.src.Load(root)
	if err != nil {
		return nil, fmt.Errorf("mpt: loading root: %w", err)
	}
	t.count = n.count()
	return t, nil
}

// Kind identifies the structure (index.KindMPT).
func (t *Trie) Kind() index.Kind { return index.KindMPT }

// Root returns the root hash; zero for the empty trie.
func (t *Trie) Root() hash.Hash { return t.root }

// Len returns the number of entries.
func (t *Trie) Len() uint64 { return t.count }

// keyNibbles expands a key into its nibble path, high nibble first.
func keyNibbles(key []byte) []byte {
	out := make([]byte, 0, len(key)*2)
	for _, b := range key {
		out = append(out, b>>4, b&0x0f)
	}
	return out
}

// nibblesToKey packs an (even-length) nibble path back into key bytes.
func nibblesToKey(nibs []byte) []byte {
	out := make([]byte, len(nibs)/2)
	for i := range out {
		out[i] = nibs[2*i]<<4 | nibs[2*i+1]
	}
	return out
}

// commonPrefix returns the length of the shared prefix of two nibble paths.
func commonPrefix(a, b []byte) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return n
}

// Get returns the value stored under key, or index.ErrKeyNotFound.
//
// The returned slice aliases shared decoded node data: callers must not
// modify it, and should copy before holding it long-term.
func (t *Trie) Get(key []byte) ([]byte, error) {
	if t.root.IsZero() {
		return nil, index.ErrKeyNotFound
	}
	rem := keyNibbles(key)
	id := t.root
	for {
		n, err := t.src.Load(id)
		if err != nil {
			return nil, fmt.Errorf("mpt: get: %w", err)
		}
		switch n.kind {
		case kindLeaf:
			if commonPrefix(n.path, rem) == len(n.path) && len(n.path) == len(rem) {
				return n.val, nil
			}
			return nil, index.ErrKeyNotFound
		case kindExt:
			if commonPrefix(n.path, rem) != len(n.path) {
				return nil, index.ErrKeyNotFound
			}
			rem = rem[len(n.path):]
			id = n.childID
		case kindBranch:
			if len(rem) == 0 {
				if n.hasVal {
					return n.val, nil
				}
				return nil, index.ErrKeyNotFound
			}
			i := rem[0]
			if n.childMask&(1<<i) == 0 {
				return nil, index.ErrKeyNotFound
			}
			id = n.childIDs[i]
			rem = rem[1:]
		}
	}
}

// Has reports whether key is present.
func (t *Trie) Has(key []byte) (bool, error) {
	_, err := t.Get(key)
	if errors.Is(err, index.ErrKeyNotFound) {
		return false, nil
	}
	if err != nil {
		return false, err
	}
	return true, nil
}

// ChunkIDs returns the ids of every chunk in the trie (root included).
func (t *Trie) ChunkIDs() ([]hash.Hash, error) {
	var out []hash.Hash
	if t.root.IsZero() {
		return nil, nil
	}
	var walk func(id hash.Hash) error
	walk = func(id hash.Hash) error {
		out = append(out, id)
		n, err := t.src.Load(id)
		if err != nil {
			return err
		}
		switch n.kind {
		case kindExt:
			return walk(n.childID)
		case kindBranch:
			for i := 0; i < 16; i++ {
				if n.childMask&(1<<i) == 0 {
					continue
				}
				if err := walk(n.childIDs[i]); err != nil {
					return err
				}
			}
		}
		return nil
	}
	if err := walk(t.root); err != nil {
		return nil, err
	}
	return out, nil
}

// ComputeStats walks the whole trie and reports its physical shape in the
// index layer's structure-comparable form: leaves are the value-carrying
// terminal nodes; extensions and branches count as interior nodes.
func (t *Trie) ComputeStats() (index.Stats, error) {
	st := index.Stats{Entries: t.count, MinNode: 1 << 30}
	if t.root.IsZero() {
		st.MinNode = 0
		return st, nil
	}
	var walk func(id hash.Hash, depth int) error
	walk = func(id hash.Hash, depth int) error {
		n, err := t.src.Load(id)
		if err != nil {
			return err
		}
		st.Nodes++
		st.Bytes += int64(n.encSize)
		if n.encSize < st.MinNode {
			st.MinNode = n.encSize
		}
		if n.encSize > st.MaxNode {
			st.MaxNode = n.encSize
		}
		if depth+1 > st.Height {
			st.Height = depth + 1
		}
		switch n.kind {
		case kindLeaf:
			st.LeafNodes++
			st.LeafBytes += int64(n.encSize)
			return nil
		case kindExt:
			st.IndexNodes++
			return walk(n.childID, depth+1)
		default:
			st.IndexNodes++
			for i := 0; i < 16; i++ {
				if n.childMask&(1<<i) == 0 {
					continue
				}
				if err := walk(n.childIDs[i], depth+1); err != nil {
					return err
				}
			}
			return nil
		}
	}
	if err := walk(t.root, 0); err != nil {
		return index.Stats{}, err
	}
	return st, nil
}

var _ index.VersionedIndex = (*Trie)(nil)
