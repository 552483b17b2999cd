// Package hash provides the content identifiers used throughout ForkBase.
//
// Every chunk and every version (uid) in ForkBase is identified by the
// SHA-256 digest of its canonical encoding, rendered for humans using the
// RFC 4648 Base32 alphabet, exactly as described in §III-C of the ICDE'20
// demonstration paper.
package hash

import (
	"bytes"
	"crypto/sha256"
	"encoding/base32"
	"errors"
	"fmt"
	stdhash "hash"
	"sync"
	"sync/atomic"
)

// Size is the byte length of a Hash (SHA-256).
const Size = sha256.Size

// StringLen is the length of the canonical Base32 text form of a Hash.
var StringLen = base32.StdEncoding.WithPadding(base32.NoPadding).EncodedLen(Size)

// enc is the RFC 4648 Base32 alphabet without padding; ForkBase versions are
// short identifiers, so the trailing '=' padding is dropped.
var enc = base32.StdEncoding.WithPadding(base32.NoPadding)

// Hash is a 256-bit content identifier.
//
// The zero value is the "null hash" and is never produced by hashing data; it
// is used as the absent-parent marker in version chains.
type Hash [Size]byte

// ErrInvalidHash is returned by Parse for malformed textual hashes.
var ErrInvalidHash = errors.New("hash: invalid hash string")

// digests counts every digest computation in the process.  One content hash
// per chunk is the write path's whole budget, so tests pin hashing cost with
// before/after deltas of Digests(); the atomic add is noise next to the
// SHA-256 it counts.
var digests atomic.Int64

// Digests returns the process-wide number of digest computations (Of,
// SumTagged, SumInto) since start.
func Digests() int64 { return digests.Load() }

// Of returns the hash of data.
func Of(data []byte) Hash {
	digests.Add(1)
	return sha256.Sum256(data)
}

// digestState is a pooled SHA-256 state plus the scratch buffers that keep
// SumTagged and SumInto allocation-free: the one-byte tag and the output
// array live on the (already heap-resident) pool entry, so nothing written
// through the stdlib's hash.Hash interface escapes to a fresh allocation.
type digestState struct {
	h   stdhash.Hash
	tag [1]byte
	sum [Size]byte
}

var statePool = sync.Pool{New: func() any { return &digestState{h: sha256.New()} }}

// finish extracts the digest into the pooled output array and returns it by
// value (a 32-byte copy, no allocation).
func (d *digestState) finish() Hash {
	d.h.Sum(d.sum[:0])
	digests.Add(1)
	return Hash(d.sum)
}

// SumTagged returns the digest of a one-byte tag followed by payload — the
// shape of every chunk identity, SHA-256(type || data) — without allocating.
// It is the verify hot path's hasher: rechecking a claimed chunk costs the
// SHA-256 and nothing else.
func SumTagged(tag byte, payload []byte) Hash {
	d := statePool.Get().(*digestState)
	d.h.Reset()
	d.tag[0] = tag
	d.h.Write(d.tag[:])
	d.h.Write(payload)
	out := d.finish()
	statePool.Put(d)
	return out
}

// SumInto writes the digest of data into dst without allocating.  The batched
// write path hashes contiguous [type][payload] encodings with it.
func SumInto(dst *Hash, data []byte) {
	d := statePool.Get().(*digestState)
	d.h.Reset()
	d.h.Write(data)
	*dst = d.finish()
	statePool.Put(d)
}

// IsZero reports whether h is the null hash.
func (h Hash) IsZero() bool {
	return h == Hash{}
}

// String renders h in the RFC 4648 Base32 alphabet (no padding), the textual
// form ForkBase exposes as a data version.
func (h Hash) String() string {
	return enc.EncodeToString(h[:])
}

// Short returns a truncated human-friendly prefix of the Base32 form.
func (h Hash) Short() string {
	s := h.String()
	if len(s) > 10 {
		s = s[:10]
	}
	return s
}

// Compare orders hashes lexicographically by raw digest bytes.
func (h Hash) Compare(o Hash) int {
	return bytes.Compare(h[:], o[:])
}

// Parse decodes the textual (Base32) form produced by String.
func Parse(s string) (Hash, error) {
	var h Hash
	if len(s) != StringLen {
		return h, fmt.Errorf("%w: length %d, want %d", ErrInvalidHash, len(s), StringLen)
	}
	raw, err := enc.DecodeString(s)
	if err != nil {
		return h, fmt.Errorf("%w: %v", ErrInvalidHash, err)
	}
	copy(h[:], raw)
	return h, nil
}
