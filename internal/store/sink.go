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
// group-commit flush — instead of one synchronous Put per chunk.  An optional
// dedup pre-check consults Has before queueing a write, so re-emitting shared
// subtrees (edits, merges, rebuilds) costs read-locked index lookups, not
// writes.
//
// A sink belongs to one producer goroutine and starts none of its own; a
// process uses more cores by running more producers (concurrent commits,
// each with its own sink), never a hashing pool under one.  Errors are
// sticky: after a store failure every subsequent call reports it.
type ChunkSink struct {
	st    Store
	opt   SinkOptions
	batch []*chunk.Chunk
	err   error
	stats SinkStats
}

// SinkOptions tune a ChunkSink.
type SinkOptions struct {
	// BatchSize is the number of chunks per PutBatch (default 128).
	BatchSize int
	// Dedup enables the Has pre-check: chunks already present are counted
	// and dropped without entering a batch.  Leave it off for fresh builds
	// whose dedup accounting feeds the storage experiments; turn it on for
	// edits and merges that re-emit shared subtrees.
	Dedup bool
}

// SinkStats instrument a sink's lifetime.
type SinkStats struct {
	// Emitted counts Emit calls; Deduped of those were dropped by the Has
	// pre-check; the rest were handed to the store in Batches batches.
	Emitted, Deduped, Batches int64
	// Bytes is the total encoded size handed to Emit.
	Bytes int64
}

// DefaultSinkBatch is the default chunks-per-batch.
const DefaultSinkBatch = 128

// errSinkClosed reports use after Close.
var errSinkClosed = errors.New("store: chunk sink closed")

// NewChunkSink builds a sink over st.
func NewChunkSink(st Store, opt SinkOptions) *ChunkSink {
	if opt.BatchSize <= 0 {
		opt.BatchSize = DefaultSinkBatch
	}
	return &ChunkSink{st: st, opt: opt, batch: make([]*chunk.Chunk, 0, opt.BatchSize)}
}

// Emit hashes one chunk and queues it for the store: enc is the contiguous
// chunk encoding [byte(t)][payload...], borrowed only for the duration of the
// call — the sink copies the payload it keeps, so producers reuse one scratch
// buffer per level instead of allocating per node.  The returned id is final:
// it is hash(type, payload) whether or not the chunk has reached the store
// yet (Flush lands the open batch).
//
// An error is a store failure, from this chunk's dedup lookup or batch write
// or sticky from an earlier one.
func (s *ChunkSink) Emit(t chunk.Type, enc []byte) (hash.Hash, error) {
	if s.err != nil {
		return hash.Hash{}, s.err
	}
	s.stats.Emitted++
	s.stats.Bytes += int64(len(enc))
	// The sink is the in-process trusted hashing site: the provenance token
	// minted here is what lets the verifying write path accept the chunk
	// without paying a second hash.
	var id hash.Hash
	prov := chunk.HashEncoding(&id, enc)
	if s.opt.Dedup {
		// Pre-check before materialising the payload: a dedup hit costs a
		// read-locked index lookup and no copy, no write.
		ok, err := s.st.Has(id)
		if err != nil {
			s.err = err
			return hash.Hash{}, err
		}
		if ok {
			s.stats.Deduped++
			return id, nil
		}
	}
	payload := append(make([]byte, 0, len(enc)-1), enc[1:]...)
	s.batch = append(s.batch, chunk.NewPrehashed(t, payload, id, prov))
	if len(s.batch) == s.opt.BatchSize {
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
		s.batch = make([]*chunk.Chunk, 0, s.opt.BatchSize)
	}
	s.stats.Batches++
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

// Stats returns the sink counters.
func (s *ChunkSink) Stats() SinkStats { return s.stats }
