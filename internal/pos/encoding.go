// Package pos implements the Pattern-Oriented-Split Tree (POS-Tree), the
// primary contribution of the ForkBase paper (§II-A).
//
// A POS-Tree is simultaneously:
//
//   - a B+-tree: index nodes route lookups through split keys;
//   - a Merkle tree: child pointers are the cryptographic hashes of child
//     nodes, so the root hash authenticates the entire content;
//   - a content-defined-chunked structure: node boundaries are placed where
//     a rolling hash over the encoded entries matches a pattern, which makes
//     the node layout a pure function of the record set — the
//     Structurally-Invariant Reusable Index (SIRI) properties.
//
// Two variants are provided: Tree (an ordered key→value map, used for maps,
// sets and relational tables) and Seq (a positional sequence, used for lists
// and blobs).
package pos

import (
	"encoding/binary"
	"fmt"

	"forkbase/internal/chunk"
	"forkbase/internal/hash"
	"forkbase/internal/index"
)

// Entry is one key/value record of a map POS-Tree leaf: the index layer's
// record type, which pos's builders and edits are written in.
type Entry = index.Entry

// childRef is one routing entry of an index node: the identifier of a child
// plus the greatest key stored in that child's subtree (the split key) and
// the number of leaf entries below it.
type childRef struct {
	splitKey []byte // greatest key in the subtree (nil for sequence trees)
	id       hash.Hash
	count    uint64 // leaf entries (or bytes/items, for sequences) below
}

// appendUvarint appends x in unsigned varint form.  The single-byte case is
// the write path's hottest encode (key/value lengths are almost always
// < 128), so it skips the scratch-array round trip.
func appendUvarint(dst []byte, x uint64) []byte {
	if x < 0x80 {
		return append(dst, byte(x))
	}
	var tmp [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(tmp[:], x)
	return append(dst, tmp[:n]...)
}

// encodeEntry appends the canonical encoding of a map entry:
// uvarint(len key) | key | uvarint(len val) | val.
// This byte form is both the storage format and the stream the rolling hash
// scans, so it must be deterministic.
func encodeEntry(dst []byte, e Entry) []byte {
	dst = appendUvarint(dst, uint64(len(e.Key)))
	dst = append(dst, e.Key...)
	dst = appendUvarint(dst, uint64(len(e.Val)))
	dst = append(dst, e.Val...)
	return dst
}

// encodeChildRef appends the canonical encoding of an index entry:
// uvarint(len splitKey) | splitKey | 32-byte child hash | uvarint(count).
func encodeChildRef(dst []byte, r childRef) []byte {
	dst = appendUvarint(dst, uint64(len(r.splitKey)))
	dst = append(dst, r.splitKey...)
	dst = append(dst, r.id[:]...)
	dst = appendUvarint(dst, r.count)
	return dst
}

// encodeSeqItem appends the canonical encoding of a sequence item.
func encodeSeqItem(dst, item []byte) []byte {
	dst = appendUvarint(dst, uint64(len(item)))
	dst = append(dst, item...)
	return dst
}

// encodeSeqChildRef appends a sequence index entry: 32-byte hash | count.
func encodeSeqChildRef(dst []byte, r childRef) []byte {
	dst = append(dst, r.id[:]...)
	dst = appendUvarint(dst, r.count)
	return dst
}

// Node payload layout (common to all four node chunk types):
//
//	[1B level][uvarint n][n encoded entries]
//
// level 0 = leaf; ≥1 = index.  The level byte lets Diff align subtrees of
// trees with different heights without external metadata.  The sink builder
// assembles the layout in place inside its node buffer (the test oracle in
// builder_legacy_test.go materialises it with encodeNodePayload); decodeNode
// (source.go) is its one reader.

func errTrunc(what string) error { return fmt.Errorf("pos: truncated %s payload", what) }

// capHint bounds a decoder's preallocation by what the remaining payload
// could possibly hold (minSize bytes per element), so a corrupt or hostile
// count cannot force a huge allocation before per-element validation
// rejects it.
func capHint(n uint64, avail, minSize int) int {
	if minSize < 1 {
		minSize = 1
	}
	if max := uint64(avail/minSize) + 1; n > max {
		n = max
	}
	return int(n)
}

// IndexChildren returns the child hashes of a POS-Tree index node chunk, or
// nil for leaf chunks — the edge rule fnode.Refs applies to every chunk that
// is neither an FNode nor an MPT node.
func IndexChildren(c *chunk.Chunk) ([]hash.Hash, error) {
	switch c.Type() {
	case chunk.TypeMapIndex, chunk.TypeSeqIndex:
		n, _, err := decodeNode(c)
		if err != nil {
			return nil, err
		}
		out := make([]hash.Hash, n.len())
		for i := range out {
			out[i] = n.ref(i).id
		}
		return out, nil
	default:
		return nil, nil
	}
}
