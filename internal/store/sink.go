package store

import (
	"errors"

	"forkbase/internal/chunk"
	"forkbase/internal/hash"
)

// ChunkSink is the batched write path between one chunk producer (a
// POS-Tree level builder, a trie commit) and a Store.
//
// The producer hands the sink contiguous [type][payload] encodings via Emit
// and gets the chunk id back.  The sink hashes each encoding where it stands,
// on the producer's goroutine, assembles chunks into batches, and lands each
// batch with one PutBatch — one store lock round and, for FileStore, one
// group-commit write — instead of one synchronous Put per chunk.  The store's
// put is the only dedup: a re-emitted chunk (a shared subtree an edit or merge
// rebuilt) joins the batch like any other, and PutBatch reports it fresh=false
// without writing it, so a batch costs one store call — one round trip over
// the wire — and no presence check before it.
//
// A sink belongs to one producer goroutine and starts none of its own; a
// process uses more cores by running more producers (concurrent commits,
// each with its own sink), never a hashing pool under one.  Errors are
// sticky: after a store failure every subsequent call reports it.
type ChunkSink struct {
	st    Store
	size  int // chunks per PutBatch: DefaultSinkBatch outside tests
	batch []*chunk.Chunk
	err   error
}

// DefaultSinkBatch is the number of chunks a sink lands per PutBatch.
const DefaultSinkBatch = 128

// errSinkClosed reports use after Close.
var errSinkClosed = errors.New("store: chunk sink closed")

// NewChunkSink builds a sink over st.
func NewChunkSink(st Store) *ChunkSink {
	return &ChunkSink{st: st, size: DefaultSinkBatch, batch: make([]*chunk.Chunk, 0, DefaultSinkBatch)}
}

// Emit hashes one chunk and queues it for the store: enc is the contiguous
// chunk encoding [byte(t)][payload...], borrowed only for the duration of the
// call — the sink copies the payload it keeps, so producers reuse one scratch
// buffer per level instead of allocating per node.  The returned id is final:
// it is hash(type, payload) whether or not the chunk has reached the store
// yet (Flush lands the open batch).
//
// An error is a store failure, from this chunk's batch write or sticky from an
// earlier one.
func (s *ChunkSink) Emit(t chunk.Type, enc []byte) (hash.Hash, error) {
	if s.err != nil {
		return hash.Hash{}, s.err
	}
	// The sink is the in-process trusted hashing site: the provenance token
	// minted here is what lets the verifying write path accept the chunk
	// without paying a second hash.
	var id hash.Hash
	prov := chunk.HashEncoding(&id, enc)
	payload := append(make([]byte, 0, len(enc)-1), enc[1:]...)
	s.batch = append(s.batch, chunk.NewPrehashed(t, payload, id, prov))
	if len(s.batch) == s.size {
		if err := s.Flush(); err != nil {
			return hash.Hash{}, err
		}
	}
	return id, nil
}

// Flush writes the open batch to the store.
func (s *ChunkSink) Flush() error {
	if s.err != nil || len(s.batch) == 0 {
		return s.err
	}
	// The store may retain the slice it is handed, so the next batch takes
	// the unused tail (a short final flush allocates nothing) or a new slice.
	full := s.batch
	if s.batch = s.batch[len(full):]; cap(s.batch) == 0 {
		s.batch = make([]*chunk.Chunk, 0, s.size)
	}
	if _, err := s.st.PutBatch(full); err != nil {
		s.err = err
	}
	return s.err
}

// Close flushes; the sink is unusable after.
func (s *ChunkSink) Close() error {
	err := s.Flush()
	if errors.Is(err, errSinkClosed) {
		return nil
	}
	if s.err == nil {
		s.err = errSinkClosed
	}
	return err
}
