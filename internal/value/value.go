// Package value implements ForkBase's typed data model (paper §II):
// primitives (string, number, boolean), blob, map, set and list, each
// represented on top of the POS-Tree / chunk substrate so that every value
// is immutable, content-addressed and deduplicated.
//
// A Value is a small descriptor: primitives embed their bytes inline, while
// composite types point at a POS-Tree root.  Descriptors are what FNodes
// (version commits) embed.
package value

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"strconv"

	"forkbase/internal/chunker"
	"forkbase/internal/codec"
	"forkbase/internal/hash"
	"forkbase/internal/index"
	"forkbase/internal/mpt"
	"forkbase/internal/pos"
	"forkbase/internal/store"
)

// Kind identifies a value's type.
type Kind byte

// Value kinds.
const (
	KindInvalid Kind = 0
	KindString  Kind = 1
	KindInt     Kind = 2
	KindFloat   Kind = 3
	KindBool    Kind = 4
	KindBlob    Kind = 5
	KindMap     Kind = 6
	KindSet     Kind = 7
	KindList    Kind = 8
)

func (k Kind) String() string {
	switch k {
	case KindString:
		return "string"
	case KindInt:
		return "int"
	case KindFloat:
		return "float"
	case KindBool:
		return "bool"
	case KindBlob:
		return "blob"
	case KindMap:
		return "map"
	case KindSet:
		return "set"
	case KindList:
		return "list"
	default:
		return fmt.Sprintf("invalid(%d)", byte(k))
	}
}

// Composite reports whether the kind stores its payload in a POS-Tree.
func (k Kind) Composite() bool { return k >= KindBlob && k <= KindList }

// Value is an immutable typed value descriptor.
type Value struct {
	kind   Kind
	inline []byte    // primitive payload
	root   hash.Hash // composite index root
	count  uint64    // composite cardinality (entries, items or bytes)

	// idx is the index structure of a map/set value (POS for every other
	// kind).  The descriptor encoding leaves it out: the FNode records it
	// in its trailing kind byte, and Decode takes it from there.
	idx index.Kind

	// epoch is the engine's collection epoch the value was built or read
	// under (0: none); see WithEpoch.  It is not encoded.
	epoch uint64
}

// WithEpoch returns v stamped with the collection epoch e, which an engine
// reads before it builds or reads a value's chunks and compares when the
// value is committed: a collection completed since then may have swept
// them.  EpochOf reads the stamp.  Neither is part of the descriptor, so
// Equal and Encode ignore it.
func WithEpoch(v Value, e uint64) Value {
	v.epoch = e
	return v
}

// EpochOf returns the collection epoch v was stamped with (0: none).
func EpochOf(v Value) uint64 { return v.epoch }

// ErrWrongKind is returned by typed accessors used on the wrong kind.
var ErrWrongKind = errors.New("value: wrong kind")

// ErrBadDescriptor is returned when decoding a malformed value descriptor.
var ErrBadDescriptor = errors.New("value: malformed descriptor")

// Kind returns the value's kind.
func (v Value) Kind() Kind { return v.kind }

// Root returns the composite root hash; zero for primitives and empties.
func (v Value) Root() hash.Hash { return v.root }

// Count returns the composite cardinality.
func (v Value) Count() uint64 { return v.count }

// String constructs a string value.
func String(s string) Value { return Value{kind: KindString, inline: []byte(s)} }

// Int constructs an integer value.
func Int(i int64) Value {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(i))
	return Value{kind: KindInt, inline: b[:]}
}

// Float constructs a float value.
func Float(f float64) Value {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], math.Float64bits(f))
	return Value{kind: KindFloat, inline: b[:]}
}

// Bool constructs a boolean value.
func Bool(b bool) Value {
	if b {
		return Value{kind: KindBool, inline: []byte{1}}
	}
	return Value{kind: KindBool, inline: []byte{0}}
}

// AsString returns the string payload.
func (v Value) AsString() (string, error) {
	if v.kind != KindString {
		return "", fmt.Errorf("%w: have %s want string", ErrWrongKind, v.kind)
	}
	return string(v.inline), nil
}

// AsInt returns the integer payload.
func (v Value) AsInt() (int64, error) {
	if v.kind != KindInt || len(v.inline) != 8 {
		return 0, fmt.Errorf("%w: have %s want int", ErrWrongKind, v.kind)
	}
	return int64(binary.LittleEndian.Uint64(v.inline)), nil
}

// AsFloat returns the float payload.
func (v Value) AsFloat() (float64, error) {
	if v.kind != KindFloat || len(v.inline) != 8 {
		return 0, fmt.Errorf("%w: have %s want float", ErrWrongKind, v.kind)
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(v.inline)), nil
}

// AsBool returns the boolean payload.
func (v Value) AsBool() (bool, error) {
	if v.kind != KindBool || len(v.inline) != 1 {
		return false, fmt.Errorf("%w: have %s want bool", ErrWrongKind, v.kind)
	}
	return v.inline[0] != 0, nil
}

// Display renders a short human-readable form (CLI / REST output).
func (v Value) Display() string {
	switch v.kind {
	case KindString:
		return string(v.inline)
	case KindInt:
		i, _ := v.AsInt()
		return strconv.FormatInt(i, 10)
	case KindFloat:
		f, _ := v.AsFloat()
		return strconv.FormatFloat(f, 'g', -1, 64)
	case KindBool:
		b, _ := v.AsBool()
		return strconv.FormatBool(b)
	case KindBlob:
		return fmt.Sprintf("blob(%d bytes, %s)", v.count, v.root.Short())
	case KindMap:
		return fmt.Sprintf("map(%d entries, %s)", v.count, v.root.Short())
	case KindSet:
		return fmt.Sprintf("set(%d elements, %s)", v.count, v.root.Short())
	case KindList:
		return fmt.Sprintf("list(%d items, %s)", v.count, v.root.Short())
	default:
		return "invalid"
	}
}

// Equal reports descriptor equality.  For composites this is content
// equality thanks to structural invariance of the underlying POS-Tree.
func (v Value) Equal(o Value) bool {
	if v.kind != o.kind {
		return false
	}
	if v.kind.Composite() {
		return v.root == o.root
	}
	return string(v.inline) == string(o.inline)
}

// Encode renders the canonical descriptor bytes:
//
//	primitives: [kind][payload...]
//	composites: [kind][32B root][uvarint count]
func (v Value) Encode() []byte {
	if v.kind.Composite() {
		out := make([]byte, 0, 1+hash.Size+binary.MaxVarintLen64)
		out = append(append(out, byte(v.kind)), v.root[:]...)
		return binary.AppendUvarint(out, v.count)
	}
	out := make([]byte, 0, 1+len(v.inline))
	out = append(out, byte(v.kind))
	return append(out, v.inline...)
}

// Decode parses descriptor bytes produced by Encode, for a value indexed by
// structure ix: the kind its FNode records.  Only a map or set has a
// structure other than POS.
func Decode(data []byte, ix index.Kind) (Value, error) {
	if len(data) < 1 {
		return Value{}, fmt.Errorf("%w: empty", ErrBadDescriptor)
	}
	k := Kind(data[0])
	if ix != index.KindPOS && k != KindMap && k != KindSet {
		return Value{}, fmt.Errorf("%w: %s value with index kind %s", ErrBadDescriptor, k, ix)
	}
	payload := data[1:]
	switch k {
	case KindString, KindInt, KindFloat, KindBool:
		if (k == KindInt || k == KindFloat) && len(payload) != 8 {
			return Value{}, fmt.Errorf("%w: %s payload length %d", ErrBadDescriptor, k, len(payload))
		}
		if k == KindBool && len(payload) != 1 {
			return Value{}, fmt.Errorf("%w: bool payload length %d", ErrBadDescriptor, len(payload))
		}
		return Value{kind: k, inline: append([]byte(nil), payload...)}, nil
	case KindBlob, KindMap, KindSet, KindList:
		r := codec.NewReader(payload)
		v := Value{kind: k, root: r.ID(), count: r.Uvarint(), idx: ix}
		if !r.Done() {
			return Value{}, fmt.Errorf("%w: malformed %s", ErrBadDescriptor, k)
		}
		return v, nil
	default:
		return Value{}, fmt.Errorf("%w: unknown kind %d", ErrBadDescriptor, data[0])
	}
}

// --- composite constructors -------------------------------------------------

// NewMap builds a map value from entries using the default POS-Tree.
func NewMap(st store.Store, cfg chunker.Config, entries []pos.Entry) (Value, error) {
	return NewMapWith(st, cfg, index.KindPOS, entries)
}

// NewMapWith builds a map value whose entries are indexed by structure k.
func NewMapWith(st store.Store, cfg chunker.Config, k index.Kind, entries []pos.Entry) (Value, error) {
	return newIndexed(st, cfg, KindMap, k, entries)
}

// NewSetWith builds a set value over the given index structure.
func NewSetWith(st store.Store, cfg chunker.Config, k index.Kind, elems [][]byte) (Value, error) {
	entries := make([]pos.Entry, len(elems))
	for i, e := range elems {
		entries[i] = pos.Entry{Key: e, Val: nil}
	}
	return newIndexed(st, cfg, KindSet, k, entries)
}

// newIndexed builds a map or set value over structure k: with LoadIndex, the
// one place a structure is picked by kind.
func newIndexed(st store.Store, cfg chunker.Config, kind Kind, k index.Kind, entries []pos.Entry) (Value, error) {
	var ix index.VersionedIndex
	var err error
	switch k {
	case index.KindPOS:
		ix, err = asIndex(pos.BuildMap(st, cfg, entries))
	case index.KindMPT:
		ix, err = asIndex(mpt.Build(st, entries))
	default:
		err = unknownKind(k)
	}
	if err != nil {
		return Value{}, err
	}
	return FromIndex(kind, ix), nil
}

// LoadIndex attaches to the index of structure k rooted at root; a zero root
// is the empty index.  Stored data is not sniffed: the kind is recorded on the
// hashed FNode or known to the constructor that built the value.  The root
// read goes through the node cache and fails with a typed error on a root of
// the other structure.
func LoadIndex(st store.Store, cfg chunker.Config, root hash.Hash, k index.Kind) (index.VersionedIndex, error) {
	switch k {
	case index.KindPOS:
		return asIndex(pos.LoadTree(st, cfg, root))
	case index.KindMPT:
		return asIndex(mpt.Load(st, root))
	}
	return nil, unknownKind(k)
}

// asIndex drops a structure's concrete pointer type, so a failed build or
// load yields a nil interface rather than a typed nil.
func asIndex[T index.VersionedIndex](ix T, err error) (index.VersionedIndex, error) {
	if err != nil {
		return nil, err
	}
	return ix, nil
}

func unknownKind(k index.Kind) error {
	return fmt.Errorf("value: unknown index kind %s", k)
}

// FromIndex wraps an existing versioned index as a map or set value.
func FromIndex(kind Kind, ix index.VersionedIndex) Value {
	if kind != KindMap && kind != KindSet {
		panic(fmt.Sprintf("value: FromIndex on %s", kind))
	}
	return Value{kind: kind, root: ix.Root(), count: ix.Len(), idx: ix.Kind()}
}

// IndexKind reports the structure backing a map/set value: the one it was
// built with, or the one its FNode records.  Every other kind reports POS.
func (v Value) IndexKind() index.Kind { return v.idx }

// Index loads the versioned index backing a map or set value, under the
// structure the value carries, so a branch whose head emptied keeps its
// structure.  A root of another structure fails the load, and LoadIndex's
// root read is the only store read.
func (v Value) Index(st store.Store, cfg chunker.Config) (index.VersionedIndex, error) {
	if v.kind != KindMap && v.kind != KindSet {
		return nil, fmt.Errorf("%w: have %s want map or set", ErrWrongKind, v.kind)
	}
	return LoadIndex(st, cfg, v.root, v.idx)
}

// NewList builds a list value from items.
func NewList(st store.Store, cfg chunker.Config, items [][]byte) (Value, error) {
	s, err := pos.BuildSeq(st, cfg, items)
	if err != nil {
		return Value{}, err
	}
	return Value{kind: KindList, root: s.Root(), count: s.Len()}, nil
}

// FromSeq wraps an existing sequence as a list value.
func FromSeq(s *pos.Seq) Value {
	return Value{kind: KindList, root: s.Root(), count: s.Len()}
}

// NewBlob builds a blob value from raw bytes.
func NewBlob(st store.Store, cfg chunker.Config, data []byte) (Value, error) {
	b, err := pos.BuildBlob(st, cfg, data)
	if err != nil {
		return Value{}, err
	}
	return Value{kind: KindBlob, root: b.Root(), count: b.Size()}, nil
}

// FromBlob wraps an existing blob as a value.
func FromBlob(b *pos.Blob) Value {
	return Value{kind: KindBlob, root: b.Root(), count: b.Size()}
}

// --- composite accessors ----------------------------------------------------

// MapTree loads the underlying map tree of a map value.
func (v Value) MapTree(st store.Store, cfg chunker.Config) (*pos.Tree, error) {
	if v.kind != KindMap {
		return nil, fmt.Errorf("%w: have %s want map", ErrWrongKind, v.kind)
	}
	return pos.LoadTree(st, cfg, v.root)
}

// Seq loads the underlying sequence of a list value.
func (v Value) Seq(st store.Store, cfg chunker.Config) (*pos.Seq, error) {
	if v.kind != KindList {
		return nil, fmt.Errorf("%w: have %s want list", ErrWrongKind, v.kind)
	}
	return pos.LoadSeq(st, cfg, v.root)
}

// Blob loads the underlying blob of a blob value.
func (v Value) Blob(st store.Store, cfg chunker.Config) (*pos.Blob, error) {
	if v.kind != KindBlob {
		return nil, fmt.Errorf("%w: have %s want blob", ErrWrongKind, v.kind)
	}
	return pos.LoadBlob(st, cfg, v.root)
}

// ChunkIDs returns every chunk id reachable from a value (empty for
// primitives); used by the paper experiments' accounting and by tests
// picking chunks to corrupt — verification and GC walk with fnode.Walk.
// Map and set values load through LoadIndex, so the enumeration works for
// both structures.
func (v Value) ChunkIDs(st store.Store, cfg chunker.Config) ([]hash.Hash, error) {
	if !v.kind.Composite() || v.root.IsZero() {
		return nil, nil
	}
	switch v.kind {
	case KindMap, KindSet:
		ix, err := v.Index(st, cfg)
		if err != nil {
			return nil, err
		}
		return ix.ChunkIDs()
	case KindList:
		s, err := pos.LoadSeq(st, cfg, v.root)
		if err != nil {
			return nil, err
		}
		return s.ChunkIDs()
	case KindBlob:
		b, err := pos.LoadBlob(st, cfg, v.root)
		if err != nil {
			return nil, err
		}
		return b.ChunkIDs()
	}
	return nil, nil
}
