package store

import (
	"errors"
	"runtime"
	"sync"

	"forkbase/internal/chunk"
	"forkbase/internal/hash"
)

// ChunkSink is the batched, pipelined write path between chunk producers
// (POS-Tree builders, fnode writers) and a Store.
//
// Producers hand the sink contiguous [type][payload] encodings via Emit and
// receive a pointer that will hold the chunk id.  The sink hashes encodings
// on a small worker pool (so SHA-256 overlaps chunking on multi-core hosts),
// assembles chunks into batches, and lands each batch with one PutBatch —
// one store lock round and, for FileStore, one group-commit flush — instead
// of one synchronous Put per chunk.  An optional dedup pre-check consults
// Has before queueing a write, so re-emitting shared subtrees (edits,
// merges, rebuilds) costs read-locked index lookups, not writes.
//
// Emit, Barrier, Flush and Close must be called from a single producer
// goroutine; the hashing workers are internal.  Errors are sticky: after a
// store failure every subsequent call reports it.
type ChunkSink struct {
	st  Store
	opt SinkOptions

	jobs    chan sinkJob
	workers sync.WaitGroup // hashing workers
	pending sync.WaitGroup // emitted but not yet hashed+queued jobs

	mu    sync.Mutex
	batch []*chunk.Chunk
	err   error
	stats SinkStats

	// idBlock hands out id slots in blocks (producer goroutine only).
	idBlock []hash.Hash
}

// SinkOptions tune a ChunkSink.
type SinkOptions struct {
	// BatchSize is the number of chunks per PutBatch (default 128).
	BatchSize int
	// Hashers is the number of hashing workers.  0 picks a default: a
	// preference attached to the store (see WithSinkHashers) if present,
	// otherwise min(GOMAXPROCS-1, 4) — synchronous when that is zero, i.e.
	// at GOMAXPROCS=1, where worker handoff cannot overlap with anything.
	//
	// The cap of 4 is the single-producer saturation point: SHA-256 over a
	// ~4 KiB node costs a small multiple of what encoding and boundary-
	// scanning the same node costs, so one producer can keep roughly four
	// hashers busy before production becomes the bottleneck and extra
	// workers only add channel handoff.  Parallel bulk builds don't raise
	// the cap — they scale the other axis, running several producers whose
	// sinks hash synchronously (see pos.BuildMapParallel).
	Hashers int
	// hashersSet distinguishes an explicit Hashers: 0 from the zero value.
	hashersSet bool
	// Dedup enables the Has pre-check: chunks already present are counted
	// and dropped without entering a batch.  Leave it off for fresh builds
	// whose dedup accounting feeds the storage experiments; turn it on for
	// edits and merges that re-emit shared subtrees.
	Dedup bool
}

// SyncHashers returns o with hashing pinned to the producer goroutine,
// regardless of GOMAXPROCS.
func (o SinkOptions) SyncHashers() SinkOptions {
	o.Hashers = 0
	o.hashersSet = true
	return o
}

// SinkStats instrument a sink's lifetime.
type SinkStats struct {
	// Emitted counts Emit calls; Deduped of those were dropped by the Has
	// pre-check; the rest were handed to the store in Batches batches.
	Emitted, Deduped, Batches int64
	// Bytes is the total encoded size handed to Emit.
	Bytes int64
}

// sinkJob is one emitted encoding awaiting hashing.  enc is [type][payload];
// in synchronous mode it aliases the producer's scratch buffer (valid only
// until process returns), in asynchronous mode it is the sink's own copy.
type sinkJob struct {
	typ chunk.Type
	enc []byte
	id  *hash.Hash // filled once hashed
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
	if !opt.hashersSet && opt.Hashers == 0 {
		if t, ok := As[SinkTuner](st); ok {
			// A preference attached to the store wins over the built-in
			// default (negative = explicitly synchronous).
			opt.Hashers = t.SinkHashers()
		} else {
			opt.Hashers = runtime.GOMAXPROCS(0) - 1
			if opt.Hashers > 4 {
				opt.Hashers = 4
			}
		}
		if opt.Hashers < 0 {
			opt.Hashers = 0
		}
	}
	s := &ChunkSink{st: st, opt: opt, batch: make([]*chunk.Chunk, 0, opt.BatchSize)}
	if opt.Hashers > 0 {
		s.jobs = make(chan sinkJob, opt.Hashers*4)
		for i := 0; i < opt.Hashers; i++ {
			s.workers.Add(1)
			go s.hashLoop()
		}
	}
	return s
}

// Emit schedules one chunk: enc is the contiguous chunk encoding
// [byte(t)][payload...], borrowed only for the duration of the call — the
// sink copies the bytes it keeps, so producers reuse one scratch buffer per
// level instead of allocating per node.  The returned pointer holds the
// chunk id after the next Barrier, Flush or Close; in synchronous mode it is
// filled before Emit returns.
//
// The error reported is sticky store failure from *earlier* work; the chunk
// handed in may still be in flight when Emit returns nil.
func (s *ChunkSink) Emit(t chunk.Type, enc []byte) (*hash.Hash, error) {
	s.mu.Lock()
	err := s.err
	s.stats.Emitted++
	s.stats.Bytes += int64(len(enc))
	s.mu.Unlock()
	if err != nil {
		return nil, err
	}
	job := sinkJob{typ: t, id: s.newID()}
	if s.jobs == nil {
		// Synchronous: hash straight off the borrowed scratch, copy only the
		// surviving payload.
		job.enc = enc
		s.process(job)
	} else {
		job.enc = append(make([]byte, 0, len(enc)), enc...)
		s.pending.Add(1)
		s.jobs <- job
	}
	return job.id, nil
}

// newID hands out id slots from blocks, avoiding one tiny allocation per
// chunk.  Called only from the producer goroutine (Emit).
//
// Block sizing: 64 slots × hash.Size (32 B) = one 2 KiB slab per 64 emitted
// chunks — half a default batch.  That cuts the allocator to one call per 64
// ids (under 2% of Emit calls) while keeping each slab small enough that a
// slab pinned by one long-lived id wastes at most 2 KiB.  Bigger blocks buy
// nothing measurable (the allocation is already off the hot path) and
// retain proportionally more memory per pinned id.
func (s *ChunkSink) newID() *hash.Hash {
	if len(s.idBlock) == cap(s.idBlock) {
		s.idBlock = make([]hash.Hash, 0, 64)
	}
	s.idBlock = s.idBlock[:len(s.idBlock)+1]
	return &s.idBlock[len(s.idBlock)-1]
}

func (s *ChunkSink) hashLoop() {
	defer s.workers.Done()
	for job := range s.jobs {
		s.process(job)
		s.pending.Done()
	}
}

// process hashes one job, runs the dedup pre-check, and queues the chunk,
// writing a full batch out to the store.
func (s *ChunkSink) process(job sinkJob) {
	// The sink is the in-process trusted hashing site: the provenance token
	// minted here is what lets the verifying write path accept the chunk
	// without paying a second hash.
	prov := chunk.HashEncoding(job.id, job.enc)
	if s.opt.Dedup {
		// Pre-check before materialising the payload: a dedup hit costs a
		// read-locked index lookup and no copy, no write.
		ok, err := s.st.Has(*job.id)
		if err != nil {
			s.fail(err)
			return
		}
		if ok {
			s.mu.Lock()
			s.stats.Deduped++
			s.mu.Unlock()
			return
		}
	}
	payload := job.enc[1:]
	if s.jobs == nil {
		// Synchronous mode borrowed the producer's scratch: copy exactly
		// what survives.
		payload = append(make([]byte, 0, len(payload)), payload...)
	} else if cap(payload) > len(payload)+len(payload)/4+64 {
		// Trim a generously grown buffer so it does not pin its slack for
		// the chunk's lifetime.
		payload = append(make([]byte, 0, len(payload)), payload...)
	}
	c := chunk.NewPrehashed(job.typ, payload, *job.id, prov)
	s.mu.Lock()
	s.batch = append(s.batch, c)
	if len(s.batch) < s.opt.BatchSize {
		s.mu.Unlock()
		return
	}
	full := s.batch
	s.batch = make([]*chunk.Chunk, 0, s.opt.BatchSize)
	s.stats.Batches++
	s.mu.Unlock()
	if _, err := s.st.PutBatch(full); err != nil {
		s.fail(err)
	}
}

func (s *ChunkSink) fail(err error) {
	s.mu.Lock()
	if s.err == nil {
		s.err = err
	}
	s.mu.Unlock()
}

// Barrier waits until every emitted chunk has been hashed (all id pointers
// resolved) and reports any store failure so far.  Chunks may still sit in
// the open batch — call Flush to land them.
func (s *ChunkSink) Barrier() error {
	s.pending.Wait()
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// Flush barriers and writes the open partial batch to the store.
func (s *ChunkSink) Flush() error {
	if err := s.Barrier(); err != nil {
		return err
	}
	s.mu.Lock()
	rest := s.batch
	s.batch = s.batch[len(s.batch):]
	if len(rest) > 0 {
		s.stats.Batches++
	}
	s.mu.Unlock()
	if len(rest) == 0 {
		return nil
	}
	if _, err := s.st.PutBatch(rest); err != nil {
		s.fail(err)
		return err
	}
	return nil
}

// Close flushes and stops the hashing workers.  The sink is unusable after.
func (s *ChunkSink) Close() error {
	err := s.Flush()
	if s.jobs != nil {
		close(s.jobs)
		s.workers.Wait()
		s.jobs = nil
	}
	s.fail(errSinkClosed)
	if err == nil || errors.Is(err, errSinkClosed) {
		return nil
	}
	return err
}

// Stats snapshots the sink counters.
func (s *ChunkSink) Stats() SinkStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}
