// Package chunk defines the unit of physical storage and deduplication in
// ForkBase.
//
// Every persistent object — blob fragments, POS-Tree nodes, FNode commits —
// is encoded as a Chunk: a one-byte type tag followed by an opaque payload.
// A chunk is immutable once constructed and is identified by the SHA-256
// hash of its full encoding, which makes the store content-addressed and
// every chunk self-verifying (paper §II-C).
package chunk

import (
	"errors"
	"fmt"
	"sync/atomic"

	"forkbase/internal/hash"
)

// Type tags the payload format of a chunk.
type Type byte

// Chunk types. The tag participates in the hash, so a leaf node and an index
// node with coincidentally equal payloads have different identities.
const (
	TypeInvalid  Type = 0
	TypeBlobLeaf Type = 1 // raw bytes of a blob segment
	TypeMapLeaf  Type = 2 // sorted key/value entries
	TypeMapIndex Type = 3 // split-key + child-hash entries
	TypeSeqLeaf  Type = 4 // positional items
	TypeSeqIndex Type = 5 // child-hash + count entries
	TypeFNode    Type = 6 // version commit object
	TypeCellar   Type = 7 // small inline value (primitive)
	TypeTag      Type = 8 // named pointer payloads (branch snapshots)
	TypeMPTNode  Type = 9 // Merkle Patricia Trie node (leaf/extension/branch)
	maxType      Type = 10
)

// String implements fmt.Stringer for diagnostics.
func (t Type) String() string {
	switch t {
	case TypeBlobLeaf:
		return "blob-leaf"
	case TypeMapLeaf:
		return "map-leaf"
	case TypeMapIndex:
		return "map-index"
	case TypeSeqLeaf:
		return "seq-leaf"
	case TypeSeqIndex:
		return "seq-index"
	case TypeFNode:
		return "fnode"
	case TypeCellar:
		return "cellar"
	case TypeTag:
		return "tag"
	case TypeMPTNode:
		return "mpt-node"
	default:
		return fmt.Sprintf("invalid(%d)", byte(t))
	}
}

// Valid reports whether t is a known chunk type.
func (t Type) Valid() bool { return t > TypeInvalid && t < maxType }

// Chunk is an immutable, typed, content-addressed byte payload.
//
// Construct chunks with New (which takes ownership of data) and never mutate
// Data afterwards; the hash is computed lazily over the encoding and cached.
type Chunk struct {
	typ  Type
	data []byte
	id   hash.Hash
	// claimed marks a chunk whose id was asserted by an untrusted party
	// (a network peer, a batch file) rather than computed from the data.
	// Recheck verifies the claim; the verifying store's write path rejects
	// claimed chunks whose content does not hash to their id.  A successful
	// Recheck clears the flag (the content has been proven to match the id),
	// so a chunk pays for verification at most once per process no matter
	// how many layers it passes through.  Atomic because MemStore hands one
	// *Chunk to concurrent readers, any of which may Recheck it.
	claimed atomic.Bool
}

// MaxSize is the most data bytes one chunk may hold.  Stores refuse a
// larger chunk on write, and the wire protocol's frame cap is derived from
// it, so every chunk a store acknowledges fits one frame to a replica or a
// client.  Data that does not fit is stored as a blob, which is chunked.
const MaxSize = 16 << 20

// ErrCorrupt is returned when a chunk's bytes do not match its claimed id.
var ErrCorrupt = errors.New("chunk: content does not match id (corruption or tampering)")

// New creates a chunk of the given type, taking ownership of data.
func New(t Type, data []byte) *Chunk {
	if !t.Valid() {
		panic(fmt.Sprintf("chunk: invalid type %d", t))
	}
	c := &Chunk{typ: t, data: data}
	c.id = hash.SumTagged(byte(t), data)
	return c
}

// Provenance is a witness that a chunk id was computed by this process's own
// hashing site rather than asserted by a caller.  Both fields are unexported
// and the only minting site is HashEncoding, so a forged token is
// structurally impossible: the zero Provenance (all any other package can
// construct) covers nothing, and NewPrehashed panics on it.
type Provenance struct {
	ok bool
	id hash.Hash
}

// Covers reports whether p witnesses id.
func (p Provenance) Covers(id hash.Hash) bool { return p.ok && p.id == id }

// HashEncoding computes the content id of a full [type][payload] encoding
// into dst (allocation-free) and mints the provenance witness for it.  This
// is the single trusted hashing site: a Provenance exists if and only if
// this function ran over the bytes in question.
func HashEncoding(dst *hash.Hash, enc []byte) Provenance {
	hash.SumInto(dst, enc)
	return Provenance{ok: true, id: *dst}
}

// NewPrehashed creates a chunk whose id was already computed as
// SHA-256(type || data) by HashEncoding — the batched write path hashes node
// encodings over a contiguous [type][payload] buffer, so recomputing here
// would double the hashing cost.  The provenance token is the proof the id
// really came from this process's hasher; it panics on a token that does not
// cover id, which makes "pretend it's prehashed" a programming error rather
// than a trust decision.  Callers that received the id from an untrusted
// party must use NewClaimed instead.
func NewPrehashed(t Type, data []byte, id hash.Hash, prov Provenance) *Chunk {
	if !t.Valid() {
		panic(fmt.Sprintf("chunk: invalid type %d", t))
	}
	if !prov.Covers(id) {
		panic("chunk: NewPrehashed without provenance for id (use NewClaimed for untrusted ids)")
	}
	return &Chunk{typ: t, data: data, id: id}
}

// NewClaimed creates a chunk from data plus an id *claimed* by an untrusted
// source (a network peer handing over a batch, a replicated log).  The claim
// is not checked here; Recheck — called by the verifying store before any
// batched write — recomputes the hash and rejects forgeries.
func NewClaimed(t Type, data []byte, id hash.Hash) *Chunk {
	if !t.Valid() {
		panic(fmt.Sprintf("chunk: invalid type %d", t))
	}
	c := &Chunk{typ: t, data: data, id: id}
	c.claimed.Store(true)
	return c
}

// Claimed reports whether the chunk's id is still an unverified claim.  It
// flips to false after a successful Recheck.
func (c *Chunk) Claimed() bool { return c.claimed.Load() }

// Recheck verifies a claimed chunk's content against its claimed id,
// returning ErrCorrupt on mismatch.  Chunks constructed by New (id computed
// from the data) or NewPrehashed (id computed by a trusted hasher) pass
// without rehashing, and a successful recheck promotes the chunk to trusted
// — so a claimed chunk that crosses several verifying layers (fetched off
// the wire, verified, then written through a verifying store) is hashed
// once, not once per layer.
func (c *Chunk) Recheck() error {
	if !c.claimed.Load() {
		return nil
	}
	actual := hash.SumTagged(byte(c.typ), c.data)
	if actual != c.id {
		return fmt.Errorf("%w: claimed %s actual %s", ErrCorrupt, c.id.Short(), actual.Short())
	}
	c.claimed.Store(false)
	return nil
}

// Type returns the chunk's type tag.
func (c *Chunk) Type() Type { return c.typ }

// Data returns the chunk payload.  Callers must not modify it.
func (c *Chunk) Data() []byte { return c.data }

// ID returns the chunk's content identifier.
func (c *Chunk) ID() hash.Hash { return c.id }

// Size returns the encoded size in bytes (1 type byte + payload).
func (c *Chunk) Size() int { return 1 + len(c.data) }

// Verify checks that the chunk's content hashes to want. It is how ForkBase
// detects malicious storage: a provider can withhold data but cannot forge it.
func (c *Chunk) Verify(want hash.Hash) error {
	if c.id != want {
		return fmt.Errorf("%w: have %s want %s", ErrCorrupt, c.id.Short(), want.Short())
	}
	return nil
}
