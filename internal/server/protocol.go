// Package server implements ForkBase's distributed layer: a TCP chunk and
// branch service plus client stubs, so several machines can share one
// content-addressed store (the "distributed storage system" of paper §II).
//
// The wire protocol is a length-free gob stream per connection: the client
// encodes Request values, the server replies with one Response per request.
// Content addressing makes the protocol trivially safe against a buggy or
// malicious server: clients re-hash every chunk they receive.
package server

import (
	"strconv"

	"forkbase/internal/hash"
	"forkbase/internal/store"
)

// Op identifies a request type.
type Op byte

// Protocol operations.
const (
	OpPutChunk Op = iota + 1
	OpGetChunk
	OpHasChunk
	OpStats
	OpHead
	OpCAS
	OpDeleteBranch
	OpRenameBranch
	OpBranches
	OpKeys
	OpPing
	// OpPutChunks ingests a whole batch of chunks in one round trip; the
	// server verifies every claimed id and lands the batch with one
	// Store.PutBatch (group commit on file-backed stores).
	OpPutChunks
	// OpGetChunks fetches a batch of chunks in one round trip — the read
	// half of Merkle-delta sync: a replica resolves a whole frontier level
	// of missing subtree roots per request.  Absent ids are simply omitted
	// from the response.
	OpGetChunks
	// OpHasChunks answers presence for a batch of ids in one round trip,
	// letting the sync differ prune shared subtrees without shipping them.
	OpHasChunks
	// OpFeedSince reads the primary's change feed from a cursor, optionally
	// long-polling until new entries arrive.  The response carries the next
	// cursor and whether the requested range was truncated (evicted from the
	// feed's retained window), which forces the replica into a snapshot
	// catch-up.
	OpFeedSince
	// OpPinHead / OpUnpinHead bracket a replica's pull of one head: a pinned
	// head's chunk graph survives primary-side garbage collection until the
	// pin is released or its lease expires, so an in-flight sync can never
	// lose the ground under its feet.
	OpPinHead
	OpUnpinHead
)

var opNames = map[Op]string{
	OpPutChunk:     "PutChunk",
	OpGetChunk:     "GetChunk",
	OpHasChunk:     "HasChunk",
	OpStats:        "Stats",
	OpHead:         "Head",
	OpCAS:          "CAS",
	OpDeleteBranch: "DeleteBranch",
	OpRenameBranch: "RenameBranch",
	OpBranches:     "Branches",
	OpKeys:         "Keys",
	OpPing:         "Ping",
	OpPutChunks:    "PutChunks",
	OpGetChunks:    "GetChunks",
	OpHasChunks:    "HasChunks",
	OpFeedSince:    "FeedSince",
	OpPinHead:      "PinHead",
	OpUnpinHead:    "UnpinHead",
}

func (o Op) String() string {
	if s, ok := opNames[o]; ok {
		return s
	}
	return "Op(" + strconv.Itoa(int(o)) + ")"
}

// WireChunk is one chunk of a batched put.  The id is a *claim* until the
// receiving side rehashes the data; mislabelled chunks reject the batch.
type WireChunk struct {
	ID   hash.Hash
	Type byte
	Data []byte
}

// WireFeedEntry is one change-feed entry on the wire.
type WireFeedEntry struct {
	Seq         uint64
	Key, Branch string
	Old, New    hash.Hash
}

// Request is the single wire request shape (fields used depend on Op).
type Request struct {
	Op Op

	// Chunk operations.
	ID        hash.Hash
	ChunkType byte
	Data      []byte
	Chunks    []WireChunk // OpPutChunks
	IDs       []hash.Hash // OpGetChunks / OpHasChunks

	// Branch operations.
	Key      string
	Branch   string
	ToBranch string
	Old, New hash.Hash

	// Feed operations.
	Cursor     uint64 // OpFeedSince: read entries with Seq > Cursor
	FeedEpoch  uint64 // OpFeedSince: the incarnation Cursor belongs to (0 = none)
	Limit      int    // OpFeedSince: max entries (0 = server default, <0 = seq probe)
	WaitMillis int64  // OpFeedSince: long-poll budget when the feed is idle
}

// Response is the single wire response shape.
type Response struct {
	Err   string // empty on success
	OK    bool   // op-specific boolean (fresh put, CAS success, has)
	Found bool

	ChunkType byte
	Data      []byte
	Fresh     []bool      // OpPutChunks: per-chunk freshness
	Chunks    []WireChunk // OpGetChunks: the present chunks (absent ids omitted)
	Bools     []bool      // OpHasChunks: per-id presence

	UID   hash.Hash
	Heads map[string]string // branch -> uid (Base32)
	Keys  []string
	Stats store.Stats

	// Feed results.
	Entries   []WireFeedEntry // OpFeedSince
	Cursor    uint64          // OpFeedSince: resume cursor
	FeedEpoch uint64          // OpFeedSince: the serving feed's incarnation
	Truncated bool            // OpFeedSince: requested range evicted; re-snapshot
}
