package pos

import (
	"bytes"
	"fmt"
	"math"

	"forkbase/internal/chunk"
	"forkbase/internal/hash"
	"forkbase/internal/store"
)

// node is a decoded POS-Tree node: the chunk's verified payload plus one
// pointer-free span table that locates each entry, item or child ref in it.
// A node is its bytes — the decode copies no key, value or id — and it is
// immutable: the accessors slice the payload, which must never be mutated,
// so a node is safe to share between concurrent traversals and to keep in
// the decoded-node cache, which charges it its chunk plus its span table.
//
// Every accessor is O(1) and allocation-free: len counts the elements, key
// is a map node's i-th key (an index node's split key), entry a map leaf's
// i-th record, item a sequence leaf's i-th item, ref and count an index
// node's i-th child.  A blob leaf has no spans; its bytes are data.
type node struct {
	typ   chunk.Type
	level uint8

	data  []byte // the payload: [level][uvarint n][n elements], or a blob leaf's bytes
	spans []span // one per element, in payload order

	encSize int // encoded chunk size (header + payload), for tree stats
}

// span locates one element in its node's payload.  data[lo:hi] is a map key
// or split key, or a sequence item; an index ref's 32-byte child id follows
// at hi (a sequence index ref has an empty key, lo == hi).  aux is a map
// leaf entry's value bounds (start in the low word, end in the high word),
// or an index ref's subtree count.
type span struct {
	lo, hi uint32
	aux    uint64
}

// spanBytes is one span's charge against the decoded-node cache.
const spanBytes = 16

func (n *node) len() int { return len(n.spans) }

func (n *node) key(i int) []byte {
	s := &n.spans[i]
	return n.data[s.lo:s.hi:s.hi]
}

func (n *node) item(i int) []byte { return n.key(i) }

func (n *node) entry(i int) Entry {
	s := &n.spans[i]
	vlo, vhi := uint32(s.aux), uint32(s.aux>>32)
	return Entry{Key: n.data[s.lo:s.hi:s.hi], Val: n.data[vlo:vhi:vhi]}
}

func (n *node) ref(i int) childRef {
	s := &n.spans[i]
	return childRef{
		splitKey: n.data[s.lo:s.hi:s.hi],
		id:       hash.Hash(n.data[s.hi : s.hi+hash.Size]),
		count:    s.aux,
	}
}

func (n *node) count(i int) uint64 { return n.spans[i].aux }

// search returns the first i whose key is >= key (n.len() if none): the
// leaf probe and, over split keys, the B+-tree routing rule.
func (n *node) search(key []byte) int {
	data, spans := n.data, n.spans
	lo, hi := 0, len(spans)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if s := spans[m]; bytes.Compare(data[s.lo:s.hi], key) < 0 {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}

// refNode returns a node whose one child is r: the parent a traversal
// holding only a root reference starts from.
func refNode(r childRef, typ chunk.Type) *node {
	id := r.id
	return &node{typ: typ, data: id[:], spans: []span{{aux: r.count}}}
}

// isLeaf reports whether the node sits at level 0 of its tree.
func (n *node) isLeaf() bool {
	switch n.typ {
	case chunk.TypeMapLeaf, chunk.TypeSeqLeaf, chunk.TypeBlobLeaf:
		return true
	}
	return false
}

// nodeFormat is what one element of a node type holds, in payload order: a
// length-prefixed key or item (named for the truncation error) and then
// either a length-prefixed value or a child id and count.
type nodeFormat struct {
	what    string // the node type, for errors
	key     string // the key's noun for errors; "" when elements have none
	val     string // the value's noun for errors; "" when elements have none
	ref     bool   // elements end in a child id and a count (index nodes)
	minSize int    // fewest payload bytes an element takes, for capHint
}

var nodeFormats = [...]nodeFormat{
	chunk.TypeMapLeaf:  {what: "map leaf", key: "map leaf entry key", val: "map leaf entry value", minSize: 2},
	chunk.TypeMapIndex: {what: "map index", key: "map index split key", ref: true, minSize: hash.Size + 2},
	chunk.TypeSeqLeaf:  {what: "seq leaf", key: "seq leaf item", minSize: 1},
	chunk.TypeSeqIndex: {what: "seq index", ref: true, minSize: hash.Size + 1},
}

// decodeNode turns a chunk into its node form and the footprint the
// decoded-node cache charges for it: one validating pass over the payload
// and one allocation, the span table.  It rejects what no writer emits — a
// truncated or padded element, trailing bytes, a level that contradicts the
// type, a node without elements, a non-minimal varint — so an accepted
// payload is exactly the encoding of its elements.  Non-tree chunk types
// yield a bare node carrying only the type tag and a negative size (not
// cached), so call sites keep producing their contextual "unexpected chunk"
// errors.
func decodeNode(c *chunk.Chunk) (*node, int, error) {
	n := &node{typ: c.Type(), data: c.Data(), encSize: c.Size()}
	switch n.typ {
	case chunk.TypeBlobLeaf:
		if len(n.data) == 0 {
			return nil, 0, fmt.Errorf("pos: empty blob leaf")
		}
		return n, c.Size(), nil
	case chunk.TypeMapLeaf, chunk.TypeMapIndex, chunk.TypeSeqLeaf, chunk.TypeSeqIndex:
		if err := n.parse(&nodeFormats[n.typ]); err != nil {
			return nil, 0, err
		}
		return n, c.Size() + len(n.spans)*spanBytes, nil
	}
	return n, -1, nil
}

// parse validates n.data as a node of format f and builds its span table.
func (n *node) parse(f *nodeFormat) error {
	data := n.data
	if len(data) < 1 {
		return errTrunc(f.what)
	}
	n.level = data[0]
	switch {
	case !f.ref && n.level != 0:
		return fmt.Errorf("pos: %s with level %d", f.what, n.level)
	case f.ref && n.level == 0:
		return fmt.Errorf("pos: %s with level 0", f.what)
	case uint64(len(data)) > math.MaxUint32:
		return fmt.Errorf("pos: %d-byte %s is past the span table's 4 GiB reach", len(data), f.what)
	}
	cnt, sz := uvarint(data[1:])
	if sz <= 0 {
		return errTrunc(f.what)
	}
	if cnt == 0 {
		return fmt.Errorf("pos: empty %s", f.what)
	}
	p := 1 + sz // the next unparsed byte
	spans := make([]span, 0, capHint(cnt, len(data)-p, f.minSize))
	for i := uint64(0); i < cnt; i++ {
		s := span{lo: uint32(p), hi: uint32(p)}
		if f.key != "" {
			lo, hi, ok := prefixed(data, p)
			if !ok {
				return errTrunc(f.key)
			}
			s.lo, s.hi, p = uint32(lo), uint32(hi), hi
		}
		if f.val != "" {
			lo, hi, ok := prefixed(data, p)
			if !ok {
				return errTrunc(f.val)
			}
			s.aux, p = uint64(lo)|uint64(hi)<<32, hi
		}
		if f.ref {
			if len(data)-p < hash.Size {
				return errTrunc(f.what + " child hash")
			}
			p += hash.Size
			if s.aux, sz = uvarint(data[p:]); sz <= 0 {
				return errTrunc(f.what + " count")
			}
			p += sz
		}
		spans = append(spans, s)
	}
	if p != len(data) {
		return fmt.Errorf("pos: %d trailing bytes in %s", len(data)-p, f.what)
	}
	n.spans = spans
	return nil
}

// prefixed bounds the length-prefixed run at data[p:]; ok is false when its
// length is malformed or runs past the payload.
func prefixed(data []byte, p int) (lo, hi int, ok bool) {
	l, sz := uvarint(data[p:])
	if sz <= 0 || uint64(len(data)-p-sz) < l {
		return 0, 0, false
	}
	return p + sz, p + sz + int(l), true
}

// nodeSource is the single gateway through which all POS-Tree traversal code
// obtains decoded nodes: on a cache hit the store is not touched at all, and
// a node is decoded at most once per cache residency.  Correctness rests on
// chunk immutability — a hash.Hash can only ever denote one payload, so a
// cached decode can never be stale.
type nodeSource = store.Nodes[*node]

// sourceFor builds a nodeSource over st, discovering a decoded-node cache
// if the store carries one (store.WithNodeCache / core.Options).
func sourceFor(st store.Store) nodeSource {
	return store.NodesOf(st, decodeNode)
}
