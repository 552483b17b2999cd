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
//	1      1    protocol version (7)
//	2      1    op
//	3      1    flags: bit 0 = error reply (the payload is the message
//	            text); every other bit must be zero
//	4      4    payload_len, big-endian, at most MaxPayload
//	8      8    request_id, big-endian, echoed by the reply
//
// A payload is a sequence of a few shared shapes — id list, chunk list
// (type, length, bytes; the ids travel separately), flag list, head ref
// (key, branch), head ops (per op: key, branch, any, expect, set, epoch),
// string list, stats, feed request, feed page — with unsigned-varint counts
// and lengths, raw 32-byte ids and unsigned-varint collection epochs.  A
// Head or Commit reply ends with the server's collection epoch.  Chunks
// travel only in batches: a single get or has is the n = 1 case of a batch
// op, and every chunk a client sends travels in a Commit, with its write's
// head ops or with none.  A
// GetChunks reply answers by position: one status byte per requested id,
// then the present chunks; "deferred" marks the tail that would have pushed
// the frame past MaxPayload, for the client to ask for again.
//
// Bounds: a header with the wrong magic or version, an unknown flag or a
// payload_len above MaxPayload ends the connection before anything is
// allocated (so Dial's ping is the version handshake: a peer speaking
// another protocol gets a closed connection, not a hang); a payload is read
// in steps that grow only as its bytes arrive; and every count inside one
// is checked against the bytes that remain before it sizes an allocation
// (codec.Reader, which also refuses a zero-padded varint).
//
// Content addressing makes the protocol trivially safe against a buggy or
// malicious server: clients re-hash every chunk they receive.
package server

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"slices"
	"strconv"

	"forkbase/internal/chunk"
	"forkbase/internal/codec"
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
	// Version 5's Apply (6, version 1's CAS byte) is retired: a heads-only
	// Apply is a Commit with no chunks.  The branch delete and rename bytes
	// (7, 8) are retired too.
	_
	_
	_
	OpBranches
	OpKeys
	OpPing
	// Version 6's PutChunks (12) is retired: a put is a Commit with no head
	// ops.
	_
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
	_
	// OpCommit lands chunks and applies head ops: an engine write's publish,
	// or with no ops a put outside a write or a write's chunks sent ahead of
	// its publish.  The server rechecks every chunk, then lands them and
	// applies the ops under one hold of the GC fence's read side
	// (core.FeedTable.Commit), which lands only what is complete or what a
	// fresh op reaches.  The reply carries the chunks' fresh flags (false
	// for one left out), the applied flag and the epoch.
	OpCommit
)

var opNames = map[Op]string{
	OpStats:     "Stats",
	OpHead:      "Head",
	OpCommit:    "Commit",
	OpBranches:  "Branches",
	OpKeys:      "Keys",
	OpPing:      "Ping",
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
	frameVersion = 7
	headerLen    = 16
	flagError    = 1 // reply flag: the payload is an error message

	// MaxPayload caps one frame's payload: room for two chunks of
	// chunk.MaxSize, the most a store acknowledges, plus 16 bytes of framing
	// for each of the 512 ids of the largest batch a replica fetches
	// (fnode.WalkBatch) — which is also that batch of the largest chunks
	// the default chunker cuts (64 KiB).  Larger batches are split (puts) or
	// answered in part (gets), and any one chunk a store holds fits.
	MaxPayload = 2*chunk.MaxSize + 512*16
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

// finishFrame fills in the payload length of the frame that parts make in
// order; the first part starts with the header.
func finishFrame(parts ...[]byte) error {
	n := -headerLen
	for _, p := range parts {
		n += len(p)
	}
	if n > MaxPayload {
		return fmt.Errorf("server: %d-byte payload exceeds the %d-byte frame cap", n, MaxPayload)
	}
	binary.BigEndian.PutUint32(parts[0][4:8], uint32(n))
	return nil
}

// readFrame reads one frame into scratch.  The header is checked before
// anything is allocated for it, and a payload that outgrows scratch moves to
// a buffer that grows in doubling steps only as the bytes arrive, so a
// hostile length costs at most the first step.  The payload it returns is
// that buffer, which a caller may keep as the next call's scratch once
// nothing it decoded aliases it.
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

// appendChunkHead appends the part of c's encoding before its bytes: its
// type and length.
func appendChunkHead(b []byte, c *chunk.Chunk) []byte {
	return appendUvarint(append(b, byte(c.Type())), uint64(len(c.Data())))
}

func appendChunk(b []byte, c *chunk.Chunk) []byte { return append(appendChunkHead(b, c), c.Data()...) }

// chunkWireSize bounds appendChunk's output for c.
func chunkWireSize(c *chunk.Chunk) int { return 1 + binary.MaxVarintLen32 + len(c.Data()) }

func appendChunks(b []byte, cs []*chunk.Chunk) []byte {
	b = appendUvarint(b, uint64(len(cs)))
	for _, c := range cs {
		b = appendChunk(b, c)
	}
	return b
}

// appendPut is the put shape of a Commit: the chunks' ids, then the chunks.
func appendPut(b []byte, cs []*chunk.Chunk) []byte {
	b = appendUvarint(b, uint64(len(cs)))
	for _, c := range cs {
		id := c.ID()
		b = append(b, id[:]...)
	}
	return appendChunks(b, cs)
}

// appendCommit is a Commit request: the put shape, then ops.
func appendCommit(b []byte, cs []*chunk.Chunk, ops []core.HeadOp) []byte {
	return appendHeadOps(appendPut(b, cs), ops)
}

// putShapeSize bounds what appendPut adds besides the chunks: the counts.
const putShapeSize = 2 * binary.MaxVarintLen32

// putWireSize bounds what appendPut adds for c.
func putWireSize(c *chunk.Chunk) int { return hash.Size + chunkWireSize(c) }

// headOpsWireSize bounds appendHeadOps's output for ops.
func headOpsWireSize(ops []core.HeadOp) int {
	n := binary.MaxVarintLen32
	for _, op := range ops {
		n += 2*binary.MaxVarintLen32 + len(op.Key) + len(op.Branch) + 1 + 2*hash.Size + binary.MaxVarintLen64
	}
	return n
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
// that is 1 when the op expects any head, its expect and set ids, and its
// collection epoch.
func appendHeadOps(b []byte, ops []core.HeadOp) []byte {
	b = appendUvarint(b, uint64(len(ops)))
	for _, op := range ops {
		b = appendBool(appendRef(b, op.Key, op.Branch), op.Any)
		b = appendUvarint(append(append(b, op.Expect[:]...), op.Set[:]...), op.Epoch)
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
//
// It copies no chunk bytes.  The reply comes back as parts in wire order,
// for one vectored write: every field it encodes is appended to b, whose
// earlier bytes (a frame header) begin the first part, and each shipped
// chunk's own data is a part of its own, behind its head.
func appendChunkReply(b []byte, cs []*chunk.Chunk, limit int) net.Buffers {
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
	// Room for every field still to come, so the parts sliced from b below
	// all share its final backing array.
	b = slices.Grow(b, (1+shipped)*(1+binary.MaxVarintLen32))
	b = appendUvarint(b, uint64(shipped))
	parts := make(net.Buffers, 0, 2*shipped+1)
	from := 0
	for _, c := range cs[:answered] {
		if c != nil {
			b = appendChunkHead(b, c)
			parts = append(parts, b[from:], c.Data())
			from = len(b)
		}
	}
	return append(parts, b[from:])
}

// dec reads one payload's shapes through the latching codec.Reader, so a
// decoder reads its fields unconditionally and checks done() once.
type dec struct{ codec.Reader }

func newDec(p []byte) dec { return dec{codec.NewReader(p)} }

// done reports whether the whole payload decoded, with nothing left over.
func (d *dec) done() error {
	if !d.Done() {
		return errMalformed
	}
	return nil
}

func (d *dec) str() string { return string(d.Bytes()) }

// commit reads a Commit request: the put shape, whose chunks alias the
// payload (see chunks), then head ops.
func (d *dec) commit() (cs []*chunk.Chunk, ops []core.HeadOp) {
	return d.chunks(d.ids(), false), d.headOps()
}

func (d *dec) ids() []hash.Hash {
	out := make([]hash.Hash, d.Count(hash.Size, -1))
	for i := range out {
		out[i] = d.ID()
	}
	return out
}

// chunks reads a chunk list whose ids travelled separately (the request's id
// list for a put, the caller's own ids for a get reply), exactly one chunk
// per id.  With own, each chunk owns an exact-size copy of its bytes, so none
// aliases or pins a frame buffer that its connection reuses; without, the
// chunks alias the payload, which must be theirs.  The chunks are *claimed*:
// nothing is trusted until Recheck has hashed it.
func (d *dec) chunks(ids []hash.Hash, own bool) []*chunk.Chunk {
	out := make([]*chunk.Chunk, d.Count(2, len(ids)))
	for i := range out {
		t := chunk.Type(d.Byte())
		data := d.Bytes()
		if d.Check(t.Valid()); d.Bad() {
			return nil
		}
		if own {
			data = bytes.Clone(data)
		}
		out[i] = chunk.NewClaimed(t, data, ids[i])
	}
	return out
}

// flags reads a list of exactly n flag bytes; the result aliases the payload.
func (d *dec) flags(n int) []byte { return d.Take(d.Count(1, n)) }

func (d *dec) bools(n int) []bool {
	out := make([]bool, n)
	for i, f := range d.flags(n) {
		out[i] = f != 0
	}
	return out
}

func (d *dec) ref() (key, branch string) { return d.str(), d.str() }

func (d *dec) headOps() []core.HeadOp {
	const opMin = 2 + 1 + 2*hash.Size + 1 // two empty names, the any byte, two ids, an epoch
	out := make([]core.HeadOp, d.Count(opMin, -1))
	for i := range out {
		key, branch := d.ref()
		anyHead := d.Byte()
		d.Check(anyHead <= 1)
		out[i] = core.HeadOp{Key: key, Branch: branch, Any: anyHead == 1, Expect: d.ID(), Set: d.ID(), Epoch: d.Uvarint()}
	}
	return out
}

func (d *dec) strs() []string {
	out := make([]string, d.Count(1, -1))
	for i := range out {
		out[i] = d.str()
	}
	return out
}

func (d *dec) stats() store.Stats {
	return store.Stats{UniqueChunks: d.Varint(), PhysicalBytes: d.Varint(), LogicalBytes: d.Varint(), DedupHits: d.Varint(), Gets: d.Varint()}
}

func (d *dec) feedReq() (lease uint64, cursor core.FeedCursor, limit int, waitMillis uint64) {
	return d.Uvarint(), core.FeedCursor{Seq: d.Uvarint(), Epoch: d.Uvarint()}, int(d.Varint()), d.Uvarint()
}

func (d *dec) feedPage() (cursor core.FeedCursor, truncated bool, entries []core.FeedEntry) {
	cursor, truncated = core.FeedCursor{Seq: d.Uvarint(), Epoch: d.Uvarint()}, d.Byte() != 0
	const entryMin = 1 + 2 + 2*hash.Size // a seq, two empty strings, two ids
	entries = make([]core.FeedEntry, d.Count(entryMin, -1))
	for i := range entries {
		seq := d.Uvarint()
		key, branch := d.ref()
		entries[i] = core.FeedEntry{Seq: seq, Key: key, Branch: branch, Old: d.ID(), New: d.ID()}
	}
	return cursor, truncated, entries
}

// chunkReply reads the answer to a batch get for ids into out and returns
// how many leading ids it answered: out[i] stays nil when ids[i] is absent,
// and the server deferred everything from ids[answered] on.  Nothing is
// written to out unless the reply's fields all decode.  Each chunk owns its
// bytes: the reply is read into the client's reused buffer.
func (d *dec) chunkReply(ids []hash.Hash, out []*chunk.Chunk) (answered int) {
	status := d.flags(len(ids))
	answered = len(status)
	var present []hash.Hash
	for i, s := range status {
		switch {
		case s == chunkDeferred:
			answered = min(answered, i)
		case answered < i || s > chunkDeferred:
			d.Check(false) // an answer behind the deferred tail, or no status at all
		case s == chunkPresent:
			present = append(present, ids[i])
		}
	}
	cs := d.chunks(present, true)
	if d.Bad() {
		return 0
	}
	for i, s := range status[:answered] {
		if s == chunkPresent {
			out[i], cs = cs[0], cs[1:]
		}
	}
	return answered
}
