package pos

import (
	"encoding/binary"
	"fmt"

	"forkbase/internal/hash"
)

// The four per-type decoders below are the node form's oracle.  They were
// the product's decoders until a node became its payload plus a span table
// (source.go); they materialise entries, items and child refs as structs,
// and every accessor of a decoded node must agree with them
// (TestNodeFormMatchesOracle, FuzzNodeDecode).  Besides what they reject,
// decodeNode also rejects a node without elements and a non-minimal varint,
// which no writer emits.
//
// They intentionally keep their original shape; do not "fix" them to share
// code with decodeNode, or the comparison stops checking anything.

// decodeMapLeaf parses a TypeMapLeaf payload.
func decodeMapLeaf(data []byte) ([]Entry, error) {
	if len(data) < 1 {
		return nil, errTrunc("map leaf")
	}
	if data[0] != 0 {
		return nil, fmt.Errorf("pos: map leaf with level %d", data[0])
	}
	p := data[1:]
	n, sz := binary.Uvarint(p)
	if sz <= 0 {
		return nil, errTrunc("map leaf")
	}
	p = p[sz:]
	entries := make([]Entry, 0, capHint(n, len(p), 2))
	for i := uint64(0); i < n; i++ {
		kl, sz := binary.Uvarint(p)
		if sz <= 0 || uint64(len(p[sz:])) < kl {
			return nil, errTrunc("map leaf entry key")
		}
		p = p[sz:]
		k := p[:kl:kl]
		p = p[kl:]
		vl, sz := binary.Uvarint(p)
		if sz <= 0 || uint64(len(p[sz:])) < vl {
			return nil, errTrunc("map leaf entry value")
		}
		p = p[sz:]
		v := p[:vl:vl]
		p = p[vl:]
		entries = append(entries, Entry{Key: k, Val: v})
	}
	if len(p) != 0 {
		return nil, fmt.Errorf("pos: %d trailing bytes in map leaf", len(p))
	}
	return entries, nil
}

// decodeMapIndex parses a TypeMapIndex payload, returning its level and
// child references.
func decodeMapIndex(data []byte) (uint8, []childRef, error) {
	if len(data) < 1 {
		return 0, nil, errTrunc("map index")
	}
	level := data[0]
	if level == 0 {
		return 0, nil, fmt.Errorf("pos: map index with level 0")
	}
	p := data[1:]
	n, sz := binary.Uvarint(p)
	if sz <= 0 {
		return 0, nil, errTrunc("map index")
	}
	p = p[sz:]
	refs := make([]childRef, 0, capHint(n, len(p), hash.Size+2))
	for i := uint64(0); i < n; i++ {
		kl, sz := binary.Uvarint(p)
		if sz <= 0 || uint64(len(p[sz:])) < kl {
			return 0, nil, errTrunc("map index split key")
		}
		p = p[sz:]
		k := p[:kl:kl]
		p = p[kl:]
		if len(p) < hash.Size {
			return 0, nil, errTrunc("map index child hash")
		}
		var id hash.Hash
		copy(id[:], p[:hash.Size])
		p = p[hash.Size:]
		cnt, sz := binary.Uvarint(p)
		if sz <= 0 {
			return 0, nil, errTrunc("map index count")
		}
		p = p[sz:]
		refs = append(refs, childRef{splitKey: k, id: id, count: cnt})
	}
	if len(p) != 0 {
		return 0, nil, fmt.Errorf("pos: %d trailing bytes in map index", len(p))
	}
	return level, refs, nil
}

// decodeSeqLeaf parses a TypeSeqLeaf payload into its items.
func decodeSeqLeaf(data []byte) ([][]byte, error) {
	if len(data) < 1 {
		return nil, errTrunc("seq leaf")
	}
	if data[0] != 0 {
		return nil, fmt.Errorf("pos: seq leaf with level %d", data[0])
	}
	p := data[1:]
	n, sz := binary.Uvarint(p)
	if sz <= 0 {
		return nil, errTrunc("seq leaf")
	}
	p = p[sz:]
	items := make([][]byte, 0, capHint(n, len(p), 1))
	for i := uint64(0); i < n; i++ {
		il, sz := binary.Uvarint(p)
		if sz <= 0 || uint64(len(p[sz:])) < il {
			return nil, errTrunc("seq leaf item")
		}
		p = p[sz:]
		items = append(items, p[:il:il])
		p = p[il:]
	}
	if len(p) != 0 {
		return nil, fmt.Errorf("pos: %d trailing bytes in seq leaf", len(p))
	}
	return items, nil
}

// decodeSeqIndex parses a TypeSeqIndex payload.
func decodeSeqIndex(data []byte) (uint8, []childRef, error) {
	if len(data) < 1 {
		return 0, nil, errTrunc("seq index")
	}
	level := data[0]
	if level == 0 {
		return 0, nil, fmt.Errorf("pos: seq index with level 0")
	}
	p := data[1:]
	n, sz := binary.Uvarint(p)
	if sz <= 0 {
		return 0, nil, errTrunc("seq index")
	}
	p = p[sz:]
	refs := make([]childRef, 0, capHint(n, len(p), hash.Size+1))
	for i := uint64(0); i < n; i++ {
		if len(p) < hash.Size {
			return 0, nil, errTrunc("seq index child hash")
		}
		var id hash.Hash
		copy(id[:], p[:hash.Size])
		p = p[hash.Size:]
		cnt, sz := binary.Uvarint(p)
		if sz <= 0 {
			return 0, nil, errTrunc("seq index count")
		}
		p = p[sz:]
		refs = append(refs, childRef{id: id, count: cnt})
	}
	if len(p) != 0 {
		return 0, nil, fmt.Errorf("pos: %d trailing bytes in seq index", len(p))
	}
	return level, refs, nil
}

// leafEntries lists a map leaf's entries through its accessors.
func leafEntries(n *node) []Entry {
	out := make([]Entry, n.len())
	for i := range out {
		out[i] = n.entry(i)
	}
	return out
}
