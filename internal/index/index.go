// Package index defines the structure-agnostic versioned-index layer of
// ForkBase: the contract every Structurally-Invariant Reusable Index (SIRI)
// implements, and the kinds that name the two structures implementing it.
//
// The source paper compares POS-Trees against other SIRIs (notably the
// Merkle Patricia Trie) on deduplication, lookup latency and tamper
// evidence.  This package is what lets the engine run that comparison
// without naming a structure above the value layer:
//
//   - VersionedIndex is the operation surface (get/put/del/iter/diff/
//     stats), exactly what the engine calls; Merge3 and GenericDiff are
//     written against it.  An index is an immutable value rooted at a
//     chunk hash over a store.Store; "mutations" return a new index sharing
//     unchanged chunks with the old one.
//   - Kind names a structure: KindPOS (package pos) or KindMPT (package
//     mpt).  The set is closed: value.LoadIndex and the value constructors
//     pick the structure in one switch, and fnode.Refs picks the child
//     decoder by chunk type.  The kind of a stored index is recorded on the
//     FNode that names it, never guessed from its root chunk.
//
// A SIRI implementation must guarantee structural invariance: the chunk
// graph (and therefore the root hash) is a pure function of the logical
// record set, independent of the operation history that produced it.  The
// differential oracle in differential_test.go enforces this cross-structure.
package index

import (
	"errors"
	"fmt"

	"forkbase/internal/hash"
)

// Kind identifies an index structure.
type Kind uint8

// Index kinds.  KindPOS is the zero value: FNodes written before
// the index layer existed carry no kind byte and decode as POS-backed.
const (
	// KindPOS is the Pattern-Oriented-Split Tree (package pos), the paper's
	// primary contribution: a B+-tree/Merkle-tree hybrid with content-defined
	// node boundaries.
	KindPOS Kind = 0
	// KindMPT is the Merkle Patricia Trie (package mpt): a content-addressed
	// hash trie with nibble-path compression, the main comparison structure
	// of the paper's SIRI evaluation.
	KindMPT Kind = 1
)

// String returns the kind's wire/CLI name.
func (k Kind) String() string {
	switch k {
	case KindPOS:
		return "pos"
	case KindMPT:
		return "mpt"
	default:
		return fmt.Sprintf("index(%d)", uint8(k))
	}
}

// Known reports whether k names one of the two structures; decoders use it to
// reject corrupt kind bytes, and core.Open and forkbase.Open to refuse an
// unknown kind.
func (k Kind) Known() bool { return k == KindPOS || k == KindMPT }

// ParseKind parses a kind name ("pos", "mpt").
func ParseKind(s string) (Kind, error) {
	switch s {
	case "", "pos":
		return KindPOS, nil
	case "mpt":
		return KindMPT, nil
	default:
		return 0, fmt.Errorf("index: unknown index kind %q (want pos|mpt)", s)
	}
}

// Entry is one key/value record of an index.
type Entry struct {
	Key []byte
	Val []byte
}

// Op is a single mutation in an Apply batch: a put (Delete=false) or a
// delete (Delete=true).
type Op struct {
	Key    []byte
	Val    []byte
	Delete bool
}

// Put returns a put op.
func Put(key, val []byte) Op { return Op{Key: key, Val: val} }

// Del returns a delete op.
func Del(key []byte) Op { return Op{Key: key, Delete: true} }

// ErrKeyNotFound is returned by Get for absent keys.
var ErrKeyNotFound = errors.New("index: key not found")

// ErrOutOfRange is returned for positions past the end of a list or blob.
var ErrOutOfRange = errors.New("index: position out of range")

// Iterator walks an index in key order.
type Iterator interface {
	// Next advances to the next entry; false at the end or on error.
	Next() bool
	// Entry returns the current entry.  Valid only after a true Next; the
	// slices may alias shared decoded node data — copy before holding.
	Entry() Entry
	// Err returns the first error encountered.
	Err() error
}

// VersionedIndex is the operation surface of one immutable index version.
//
// Implementations are lightweight handles (store + root hash + cached
// count); all "mutating" operations return a new VersionedIndex sharing
// every unchanged chunk with the receiver.  Slices returned by read methods
// may alias shared decoded node data: callers must not modify them and
// should copy before holding long-term.
type VersionedIndex interface {
	// Kind identifies the structure.
	Kind() Kind
	// Root returns the root chunk hash; zero for the empty index.  Because
	// of structural invariance, two indexes of the same Kind hold the same
	// record set iff their roots are equal.
	Root() hash.Hash
	// Len returns the number of entries.
	Len() uint64

	// Get returns the value under key, or ErrKeyNotFound.
	Get(key []byte) ([]byte, error)
	// Has reports whether key is present.
	Has(key []byte) (bool, error)

	// Apply applies a batch of puts and deletes and returns the resulting
	// index.  The result is byte-identical to building the edited record
	// set from scratch (structural invariance).
	Apply(ops []Op) (VersionedIndex, error)

	// Iterate returns an iterator over all entries in key order.
	Iterate() (Iterator, error)
	// IterateFrom returns an iterator positioned before the first entry
	// whose key is >= key.
	IterateFrom(key []byte) (Iterator, error)

	// DiffWith computes key-level deltas from the receiver (old) to o (new),
	// pruning shared subtrees when both sides are the same structure.
	DiffWith(o VersionedIndex) ([]Delta, DiffStats, error)

	// ChunkIDs returns the ids of every chunk in the index (root included).
	ChunkIDs() ([]hash.Hash, error)
	// ComputeStats walks the whole index and reports its physical shape.
	ComputeStats() (Stats, error)
}

// Stats describes the physical shape of an index — the quantity behind the
// paper's node-structure experiment, comparable across structures.
type Stats struct {
	Height     int // levels (leaf = 1; empty = 0)
	Nodes      int // total nodes
	LeafNodes  int // nodes carrying entries/values
	IndexNodes int // interior routing nodes
	Entries    uint64
	Bytes      int64 // total encoded node bytes
	MinNode    int   // smallest node payload
	MaxNode    int   // largest node payload
	LeafBytes  int64
}

// AvgLeaf returns the mean leaf payload size.
func (s Stats) AvgLeaf() float64 {
	if s.LeafNodes == 0 {
		return 0
	}
	return float64(s.LeafBytes) / float64(s.LeafNodes)
}

// AvgFanout returns the mean children per interior node.
func (s Stats) AvgFanout() float64 {
	if s.IndexNodes == 0 {
		return 0
	}
	return float64(s.Nodes-1) / float64(s.IndexNodes)
}

// Delta is one key-level difference between two index versions.
type Delta struct {
	Key  []byte
	From []byte // value in the "old" index; nil if the key was added
	To   []byte // value in the "new" index; nil if the key was removed
}

// DeltaKind classifies a delta.
type DeltaKind int

// Delta kinds.
const (
	Added DeltaKind = iota
	Removed
	Modified
)

// Kind returns the delta's classification.
func (d Delta) Kind() DeltaKind {
	switch {
	case d.From == nil:
		return Added
	case d.To == nil:
		return Removed
	default:
		return Modified
	}
}

func (k DeltaKind) String() string {
	switch k {
	case Added:
		return "added"
	case Removed:
		return "removed"
	default:
		return "modified"
	}
}

// DiffStats instruments a diff run; TouchedChunks is the "pages read"
// quantity behind the O(D·log N) claim.
type DiffStats struct {
	TouchedChunks int
	PrunedRefs    int // subtrees skipped because their root hashes matched
	Deltas        int
}

// Conflict reports a key modified divergently by both sides of a three-way
// merge.
type Conflict struct {
	Key  []byte
	Base []byte // value at the common base (nil if absent)
	A    []byte // value in index A (nil if deleted)
	B    []byte // value in index B (nil if deleted)
}

// ErrConflict is returned by Merge3 when both sides changed the same key to
// different values and no resolver was supplied.
type ErrConflict struct {
	Conflicts []Conflict
}

func (e *ErrConflict) Error() string {
	return fmt.Sprintf("index: merge conflict on %d key(s), first %q", len(e.Conflicts), e.Conflicts[0].Key)
}

// Resolver decides the merged value for a conflicting key; returning
// (nil, false) deletes the key, (v, true) keeps v.
type Resolver func(c Conflict) (val []byte, keep bool)

// ResolveOurs prefers side A; ResolveTheirs prefers side B.
func ResolveOurs(c Conflict) ([]byte, bool)   { return c.A, c.A != nil }
func ResolveTheirs(c Conflict) ([]byte, bool) { return c.B, c.B != nil }

// MergeStats counts a merge's work: the keys each side changed against the
// base and the keys both changed differently.
type MergeStats struct {
	DeltasA, DeltasB int
	Conflicts        int
}
