// Package server implements ForkBase's distributed layer: a TCP chunk and
// branch service plus client stubs, so several machines can share one
// content-addressed store (the "distributed storage system" of paper §II).
//
// # Wire protocol
//
// One request is in flight per connection, and every message either way is
// one frame: a fixed 16-byte header, then a payload (README "Wire protocol"
// has the per-op payload table).
//
//	offset size field
//	0      1    magic 0xFB
//	1      1    protocol version (4)
//	2      1    op
//	3      1    flags: bit 0 = error reply (the payload is the message
//	            text); every other bit must be zero
//	4      4    payload_len, big-endian, at most MaxPayload
//	8      8    request_id, big-endian, echoed by the reply
//
// A payload is a sequence of a few shared shapes — id list, chunk list
// (type, length, bytes; the ids travel separately), flag list, head ref
// (key, branch), head ops (per op: key, branch, any, expect, set), string
// list, stats, feed request, feed page — with unsigned-varint counts and
// lengths and raw 32-byte ids.  Chunks travel only in batches: a single
// put, get or has is the n = 1 case of a batch op.  A GetChunks reply
// answers by position: one status byte per requested id, then the present
// chunks; "deferred" marks the tail that would have pushed the frame past
// MaxPayload, for the client to ask for again.
//
// Bounds: a header with the wrong magic or version, an unknown flag or a
// payload_len above MaxPayload ends the connection before anything is
// allocated (so Dial's ping is the version handshake: a peer speaking
// another protocol gets a closed connection, not a hang); a payload is read
// in steps that grow only as its bytes arrive; and every count inside one
// is checked against the bytes that remain before it sizes an allocation.
//
// Content addressing makes the protocol trivially safe against a buggy or
// malicious server: clients re-hash every chunk they receive.
package server

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"slices"
	"strconv"

	"forkbase/internal/chunk"
	"forkbase/internal/core"
	"forkbase/internal/hash"
	"forkbase/internal/store"
)

// Op identifies a request type.
type Op byte

// Protocol operations.
const (
	// Opcodes 1–3, the single-chunk put, get and has of versions 1 and 2,
	// are retired: a one-id batch op is the same exchange.
	OpStats Op = iota + 4
	OpHead
	// OpApply is one core.BranchTable.Apply.  It has version 1's CAS byte;
	// the branch delete and rename bytes (7, 8) are retired.
	OpApply
	_
	_
	OpBranches
	OpKeys
	OpPing
	// OpPutChunks ingests a batch of chunks in one round trip: the server
	// verifies every claimed id and lands the batch with one Store.PutBatch
	// (group commit on file-backed stores).
	OpPutChunks
	// OpGetChunks / OpHasChunks fetch, or answer presence for, a batch of ids
	// in one round trip — Merkle-delta sync resolves a whole frontier level
	// per request and prunes shared subtrees without shipping them.
	OpGetChunks
	OpHasChunks
	// OpFeedSince reads the primary's change feed from a cursor, optionally
	// long-polling, for the follower lease the request names (the read sets
	// its cursor; a probe only renews it).  The reply carries the next cursor
	// and whether the range was truncated (evicted from the feed's retained
	// window), which forces the replica into a snapshot catch-up.
	OpFeedSince
	// OpHeads lists a page of heads, whole keys in key order from a start
	// key: a snapshot costs a request per page, not one per key.  It took
	// the byte of version 3's per-head GC pin; the unpin's (17) is retired.
	OpHeads
)

var opNames = map[Op]string{
	OpStats:     "Stats",
	OpHead:      "Head",
	OpApply:     "Apply",
	OpBranches:  "Branches",
	OpKeys:      "Keys",
	OpPing:      "Ping",
	OpPutChunks: "PutChunks",
	OpGetChunks: "GetChunks",
	OpHasChunks: "HasChunks",
	OpFeedSince: "FeedSince",
	OpHeads:     "Heads",
}

func (o Op) String() string {
	if s, ok := opNames[o]; ok {
		return s
	}
	return "Op(" + strconv.Itoa(int(o)) + ")"
}

const (
	frameMagic   = 0xFB
	frameVersion = 4
	headerLen    = 16
	flagError    = 1 // reply flag: the payload is an error message

	// MaxPayload caps one frame's payload: room for the largest batch a
	// replica fetches (fnode.WalkBatch, 512 ids) of the largest chunks the
	// default chunker cuts (64 KiB) plus their framing.  Larger batches are
	// split (puts) or answered in part (gets); a single chunk that does not
	// fit cannot travel.
	MaxPayload = 512 * (1<<16 + 16)
)

// GetChunks reply statuses, one per requested id.
const (
	chunkAbsent   = 0
	chunkPresent  = 1
	chunkDeferred = 2 // not answered, this frame is full: ask again
)

// errMalformed is every payload decoding failure: a short field, a count
// larger than the bytes that remain, trailing bytes.
var errMalformed = errors.New("server: malformed frame payload")

// header is a decoded frame header.
type header struct {
	op    Op
	flags byte
	n     int // payload length
	id    uint64
}

// appendHeader starts a frame in b; finishFrame fills in the payload length
// once the payload has been appended behind it.
func appendHeader(b []byte, op Op, flags byte, id uint64) []byte {
	b = append(b, frameMagic, frameVersion, byte(op), flags, 0, 0, 0, 0)
	return binary.BigEndian.AppendUint64(b, id)
}

func finishFrame(b []byte) ([]byte, error) {
	n := len(b) - headerLen
	if n > MaxPayload {
		return nil, fmt.Errorf("server: %d-byte payload exceeds the %d-byte frame cap", n, MaxPayload)
	}
	binary.BigEndian.PutUint32(b[4:8], uint32(n))
	return b, nil
}

// readFrame reads one frame.  The header is checked before anything is
// allocated for it, and the payload buffer grows in doubling steps only as
// the bytes arrive, so a hostile length costs at most the first step.  A
// payload lands in scratch when it fits — except on the chunk-carrying ops,
// whose decoded chunks alias the payload and outlive the exchange.
func readFrame(r io.Reader, scratch []byte) (header, []byte, error) {
	var b [headerLen]byte
	if _, err := io.ReadFull(r, b[:]); err != nil {
		return header{}, nil, err
	}
	h := header{op: Op(b[2]), flags: b[3], n: int(binary.BigEndian.Uint32(b[4:8])), id: binary.BigEndian.Uint64(b[8:])}
	switch {
	case b[0] != frameMagic || b[1] != frameVersion:
		return h, nil, fmt.Errorf("server: frame starts %#x %#x, want magic %#x version %d", b[0], b[1], frameMagic, frameVersion)
	case h.flags&^flagError != 0:
		return h, nil, fmt.Errorf("server: unknown frame flags %#x", h.flags)
	case h.n > MaxPayload:
		return h, nil, fmt.Errorf("server: frame claims %d payload bytes, cap is %d", h.n, MaxPayload)
	}
	buf := scratch[:0]
	if h.op == OpPutChunks || h.op == OpGetChunks {
		buf = nil
	}
	for len(buf) < h.n {
		step := min(h.n-len(buf), max(len(buf), 64<<10))
		if cap(buf)-len(buf) < step {
			buf = append(make([]byte, 0, len(buf)+step), buf...)
		}
		buf = buf[:len(buf)+step]
		if _, err := io.ReadFull(r, buf[len(buf)-step:]); err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return h, nil, err
		}
	}
	return h, buf, nil
}

var appendUvarint = binary.AppendUvarint

func appendStr(b []byte, s string) []byte {
	return append(appendUvarint(b, uint64(len(s))), s...)
}

func appendIDs(b []byte, ids ...hash.Hash) []byte {
	b = appendUvarint(b, uint64(len(ids)))
	for i := range ids {
		b = append(b, ids[i][:]...)
	}
	return b
}

func appendChunk(b []byte, c *chunk.Chunk) []byte {
	b = appendUvarint(append(b, byte(c.Type())), uint64(len(c.Data())))
	return append(b, c.Data()...)
}

// chunkWireSize bounds appendChunk's output for c.
func chunkWireSize(c *chunk.Chunk) int { return 1 + binary.MaxVarintLen32 + len(c.Data()) }

func appendChunks(b []byte, cs []*chunk.Chunk) []byte {
	b = appendUvarint(b, uint64(len(cs)))
	for _, c := range cs {
		b = appendChunk(b, c)
	}
	return b
}

func appendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

func appendFlags(b []byte, flags ...bool) []byte {
	b = appendUvarint(b, uint64(len(flags)))
	for _, f := range flags {
		b = appendBool(b, f)
	}
	return b
}

// appendRef is the head ref shape: a key and a branch name.
func appendRef(b []byte, key, branch string) []byte {
	return appendStr(appendStr(b, key), branch)
}

// appendHeadOps is the head ops shape: a count, then per op its ref, a byte
// that is 1 when the op expects any head, and its expect and set ids.
func appendHeadOps(b []byte, ops []core.HeadOp) []byte {
	b = appendUvarint(b, uint64(len(ops)))
	for _, op := range ops {
		b = appendBool(appendRef(b, op.Key, op.Branch), op.Any)
		b = append(append(b, op.Expect[:]...), op.Set[:]...)
	}
	return b
}

func appendStrs(b []byte, ss []string) []byte {
	b = appendUvarint(b, uint64(len(ss)))
	for _, s := range ss {
		b = appendStr(b, s)
	}
	return b
}

func appendStats(b []byte, s store.Stats) []byte {
	for _, v := range [...]int64{s.UniqueChunks, s.PhysicalBytes, s.LogicalBytes, s.DedupHits, s.Gets} {
		b = binary.AppendVarint(b, v)
	}
	return b
}

// appendFeedReq asks, on behalf of a follower's lease (0: none), for entries
// with Seq > cursor.Seq (cursor.Epoch 0 = no feed incarnation known yet);
// limit 0 takes the server's default and < 0 is a sequence probe; waitMillis
// is the long-poll budget on an idle feed.
func appendFeedReq(b []byte, lease uint64, cursor core.FeedCursor, limit int, waitMillis uint64) []byte {
	b = appendUvarint(appendUvarint(appendUvarint(b, lease), cursor.Seq), cursor.Epoch)
	return appendUvarint(binary.AppendVarint(b, int64(limit)), waitMillis)
}

// appendFeedPage answers with the resume cursor (in the serving feed's
// epoch), whether the requested range was evicted, and the entries.
func appendFeedPage(b []byte, cursor core.FeedCursor, truncated bool, entries []core.FeedEntry) []byte {
	b = appendUvarint(appendUvarint(b, cursor.Seq), cursor.Epoch)
	b = appendUvarint(appendBool(b, truncated), uint64(len(entries)))
	for _, e := range entries {
		b = appendRef(appendUvarint(b, e.Seq), e.Key, e.Branch)
		b = append(append(b, e.Old[:]...), e.New[:]...)
	}
	return b
}

// appendChunkReply answers a batch get by position: a status per slot of cs
// (nil = absent), then the present chunks.  From the first chunk that would
// push the reply past limit bytes on, every slot is marked deferred; the
// first present chunk always ships, so asking again makes progress.
func appendChunkReply(b []byte, cs []*chunk.Chunk, limit int) []byte {
	start := len(b)
	b = appendUvarint(b, uint64(len(cs)))
	off := len(b) // the status bytes are b[off : off+len(cs)]
	b = append(b, make([]byte, len(cs))...)
	size := len(b) - start + binary.MaxVarintLen32
	shipped, answered := 0, len(cs)
	for i, c := range cs {
		if c == nil {
			continue
		}
		if shipped > 0 && size+chunkWireSize(c) > limit {
			answered = i
			break
		}
		b[off+i] = chunkPresent
		size += chunkWireSize(c)
		shipped++
	}
	for i := answered; i < len(cs); i++ {
		b[off+i] = chunkDeferred
	}
	b = slices.Grow(b, start+size-len(b)) // one allocation for a large batch, not a doubling series
	b = appendUvarint(b, uint64(shipped))
	for _, c := range cs[:answered] {
		if c != nil {
			b = appendChunk(b, c)
		}
	}
	return b
}

// dec reads one payload front to back.  The first short or oversized field
// latches bad and every later read returns a zero value, so a decoder reads
// its fields unconditionally and checks done() once.
type dec struct {
	b   []byte
	bad bool
}

// done reports whether the whole payload decoded, with nothing left over.
func (d *dec) done() error {
	if d.bad || len(d.b) != 0 {
		return errMalformed
	}
	return nil
}

func (d *dec) take(n int) []byte {
	if d.bad || n > len(d.b) {
		d.bad, d.b = true, nil
		return nil
	}
	p := d.b[:n:n]
	d.b = d.b[n:]
	return p
}

func (d *dec) byte() byte {
	if p := d.take(1); p != nil {
		return p[0]
	}
	return 0
}

func (d *dec) uvarint() uint64 {
	v, n := binary.Uvarint(d.b)
	if n <= 0 {
		d.bad, d.b = true, nil
		return 0
	}
	d.b = d.b[n:]
	return v
}

func (d *dec) varint() int64 {
	u := d.uvarint() // zigzag, as binary.AppendVarint wrote it
	return int64(u>>1) ^ -int64(u&1)
}

// count reads how many items follow and refuses a number the remaining bytes
// cannot hold at itemMin bytes each — so a count never sizes an allocation
// larger than the input that backs it.  want >= 0 demands exactly that many.
func (d *dec) count(itemMin, want int) int {
	n := d.uvarint()
	if n > uint64(len(d.b)/itemMin) || want >= 0 && n != uint64(want) {
		d.bad, d.b = true, nil
		return 0
	}
	return int(n)
}

func (d *dec) id() (h hash.Hash) {
	copy(h[:], d.take(hash.Size))
	return h
}

func (d *dec) str() string { return string(d.take(d.count(1, -1))) }

func (d *dec) ids() []hash.Hash {
	out := make([]hash.Hash, d.count(hash.Size, -1))
	for i := range out {
		out[i] = d.id()
	}
	return out
}

// chunks reads a chunk list whose ids travelled separately (the request's id
// list for a put, the caller's own ids for a get reply), exactly one chunk
// per id.  The chunks alias the payload and are *claimed*: nothing is
// trusted until Recheck has hashed it.
func (d *dec) chunks(ids []hash.Hash) []*chunk.Chunk {
	out := make([]*chunk.Chunk, d.count(2, len(ids)))
	for i := range out {
		t := chunk.Type(d.byte())
		data := d.take(d.count(1, -1))
		if d.bad || !t.Valid() {
			d.bad = true
			return nil
		}
		out[i] = chunk.NewClaimed(t, data, ids[i])
	}
	return out
}

// flags reads a list of exactly n flag bytes; the result aliases the payload.
func (d *dec) flags(n int) []byte { return d.take(d.count(1, n)) }

func (d *dec) bools(n int) []bool {
	out := make([]bool, n)
	for i, f := range d.flags(n) {
		out[i] = f != 0
	}
	return out
}

func (d *dec) ref() (key, branch string) { return d.str(), d.str() }

func (d *dec) headOps() []core.HeadOp {
	const opMin = 2 + 1 + 2*hash.Size // two empty names, the any byte, two ids
	out := make([]core.HeadOp, d.count(opMin, -1))
	for i := range out {
		key, branch := d.ref()
		anyHead := d.byte()
		d.bad = d.bad || anyHead > 1
		out[i] = core.HeadOp{Key: key, Branch: branch, Any: anyHead == 1, Expect: d.id(), Set: d.id()}
	}
	return out
}

func (d *dec) strs() []string {
	out := make([]string, d.count(1, -1))
	for i := range out {
		out[i] = d.str()
	}
	return out
}

func (d *dec) stats() store.Stats {
	return store.Stats{UniqueChunks: d.varint(), PhysicalBytes: d.varint(), LogicalBytes: d.varint(), DedupHits: d.varint(), Gets: d.varint()}
}

func (d *dec) feedReq() (lease uint64, cursor core.FeedCursor, limit int, waitMillis uint64) {
	return d.uvarint(), core.FeedCursor{Seq: d.uvarint(), Epoch: d.uvarint()}, int(d.varint()), d.uvarint()
}

func (d *dec) feedPage() (cursor core.FeedCursor, truncated bool, entries []core.FeedEntry) {
	cursor, truncated = core.FeedCursor{Seq: d.uvarint(), Epoch: d.uvarint()}, d.byte() != 0
	const entryMin = 1 + 2 + 2*hash.Size // a seq, two empty strings, two ids
	entries = make([]core.FeedEntry, d.count(entryMin, -1))
	for i := range entries {
		seq := d.uvarint()
		key, branch := d.ref()
		entries[i] = core.FeedEntry{Seq: seq, Key: key, Branch: branch, Old: d.id(), New: d.id()}
	}
	return cursor, truncated, entries
}

// chunkReply reads the answer to a batch get for ids into out and returns
// how many leading ids it answered: out[i] stays nil when ids[i] is absent,
// and the server deferred everything from ids[answered] on.  Nothing is
// written to out unless the reply's fields all decode.
func (d *dec) chunkReply(ids []hash.Hash, out []*chunk.Chunk) (answered int) {
	status := d.flags(len(ids))
	answered = len(status)
	var present []hash.Hash
	for i, s := range status {
		switch {
		case s == chunkDeferred:
			answered = min(answered, i)
		case answered < i || s > chunkDeferred:
			d.bad = true // an answer behind the deferred tail, or no status at all
		case s == chunkPresent:
			present = append(present, ids[i])
		}
	}
	cs := d.chunks(present)
	if d.bad {
		return 0
	}
	for i, s := range status[:answered] {
		if s == chunkPresent {
			out[i], cs = cs[0], cs[1:]
		}
	}
	return answered
}
