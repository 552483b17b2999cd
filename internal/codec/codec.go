// Package codec is the one bounded reader of ForkBase's binary encodings:
// the TCP wire's payloads, FNodes, value descriptors, MPT nodes and dataset
// rows all decode through Reader, and POS nodes through Uvarint.  Every
// encoder writes minimal unsigned varints (binary.AppendUvarint) and no
// trailing bytes, and the reader refuses anything else, so an accepted
// encoding is the one its value re-encodes to: a uid names one version, not
// a family of equivalent byte strings.
package codec

import (
	"encoding/binary"

	"forkbase/internal/hash"
)

// Uvarint reads a minimal unsigned varint, the only form the encoders emit:
// n <= 0 when p holds a truncated, overflowing or zero-padded one.
func Uvarint(p []byte) (x uint64, n int) {
	if len(p) > 0 && p[0] < 0x80 {
		return uint64(p[0]), 1
	}
	x, n = binary.Uvarint(p)
	if n > 1 && p[n-1] == 0 {
		return 0, -n
	}
	return x, n
}

// Reader reads one encoding front to back.  The first short, oversized or
// non-minimal field latches the reader bad, and every later read returns a
// zero value, so a decoder reads its fields unconditionally and checks Done
// once.  Slices it returns alias the input.
type Reader struct {
	b   []byte
	bad bool
}

// NewReader reads b.
func NewReader(b []byte) Reader { return Reader{b: b} }

// Done reports whether the whole input decoded, with nothing left over.
func (r *Reader) Done() bool { return !r.bad && len(r.b) == 0 }

// Bad reports whether a read has failed.
func (r *Reader) Bad() bool { return r.bad }

// Check latches the reader bad unless ok: a decoder's own rule on the
// fields it read.
func (r *Reader) Check(ok bool) {
	if !ok {
		r.bad, r.b = true, nil
	}
}

// Len returns how many bytes are left.
func (r *Reader) Len() int { return len(r.b) }

// Take reads the next n bytes.
func (r *Reader) Take(n int) []byte {
	if r.bad || n > len(r.b) {
		r.Check(false)
		return nil
	}
	p := r.b[:n:n]
	r.b = r.b[n:]
	return p
}

// Byte reads one byte.
func (r *Reader) Byte() byte {
	if p := r.Take(1); p != nil {
		return p[0]
	}
	return 0
}

// Uvarint reads a minimal unsigned varint.
func (r *Reader) Uvarint() uint64 {
	v, n := Uvarint(r.b)
	if n <= 0 {
		r.Check(false)
		return 0
	}
	r.b = r.b[n:]
	return v
}

// Varint reads a zigzag-encoded signed varint, as binary.AppendVarint
// writes it.
func (r *Reader) Varint() int64 {
	u := r.Uvarint()
	return int64(u>>1) ^ -int64(u&1)
}

// Count reads how many items follow and refuses a number the remaining bytes
// cannot hold at itemMin bytes each — so a count never sizes an allocation
// larger than the input that backs it.  want >= 0 demands exactly that many.
func (r *Reader) Count(itemMin, want int) int {
	n := r.Uvarint()
	if n > uint64(len(r.b)/itemMin) || want >= 0 && n != uint64(want) {
		r.Check(false)
		return 0
	}
	return int(n)
}

// Bytes reads a length-prefixed byte string.
func (r *Reader) Bytes() []byte { return r.Take(r.Count(1, -1)) }

// ID reads a raw 32-byte hash.
func (r *Reader) ID() (h hash.Hash) {
	copy(h[:], r.Take(hash.Size))
	return h
}
