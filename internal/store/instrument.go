package store

import (
	"errors"
	"log/slog"
	"sync/atomic"
	"time"

	"forkbase/internal/chunk"
	"forkbase/internal/hash"
	"forkbase/internal/obs"
)

// Kinder is the optional capability by which a backend names itself for
// metric labels ("mem", "file").  Only backends implement it; KindOf finds
// it through any wrapper stack, so the label always describes the store that
// actually holds the bytes.
type Kinder interface {
	StoreKind() string
}

// KindOf returns the backend kind of st's stack; "store" when no reachable
// layer declares one.
func KindOf(st Store) string {
	if k, ok := As[Kinder](st); ok {
		return k.StoreKind()
	}
	return "store"
}

// StoreKind implements Kinder.
func (s *MemStore) StoreKind() string { return "mem" }

// StoreKind implements Kinder.
func (s *FileStore) StoreKind() string { return "file" }

// latSampleMask gates latency timing on the single-chunk hot paths: clock
// reads cost ~50-100ns on virtualized hosts — more than a memory store's
// whole map access — so only 1 of every latSampleMask+1 operations is
// timed.  Counters stay exact for every op; the histograms see an unbiased
// sample.  Batch operations amortize the clock over many chunks and are
// always timed, as is everything when a slow-op threshold is set (detection
// must not sample).
const latSampleMask = 31

// instrumentedStore counts every chunk operation crossing into the backend
// and times a sample of them.  All metric handles are resolved at
// construction, so the common per-op cost is a handful of atomic adds.
//
// The wrapper is transparent to capability discovery: batch paths are
// instrumented natively and Unwrap exposes the inner store to As.
type instrumentedStore struct {
	Store
	kind string

	get, put, has, getB, putB, hasB opMetrics

	rdB  *obs.Counter // payload bytes returned to readers
	wrB  *obs.Counter // payload bytes accepted from writers
	errs *obs.Counter // operations failing with a real error (not ErrNotFound)

	logger *slog.Logger  // slow-op log sink, nil = disabled
	slowOp time.Duration // threshold; 0 = disabled
}

type opMetrics struct {
	name   string
	total  *obs.Counter
	lat    *obs.Histogram
	sample atomic.Uint64
}

// Instrument wraps inner so every Get/Put/Has (and their batch forms) is
// counted and timed under forkbase_store_* with a kind label naming the
// backend.  A nil or Discard registry returns inner unchanged — the bare
// path stays bare.
func Instrument(inner Store, reg *obs.Registry) Store {
	return InstrumentSlow(inner, reg, nil, 0)
}

// InstrumentSlow is Instrument plus a threshold-gated slow-op structured
// log: backend operations slower than slowOp are logged through logger at
// Warn with kind, op and duration, so a slow engine operation can be
// attributed to the layer that actually stalled.
func InstrumentSlow(inner Store, reg *obs.Registry, logger *slog.Logger, slowOp time.Duration) Store {
	if inner == nil || reg == nil || reg == obs.Discard {
		return inner
	}
	kind := KindOf(inner)
	opsTotal := reg.CounterVec("forkbase_store_ops_total",
		"Chunk-store operations by backend kind and operation.", "kind", "op")
	opSeconds := reg.HistogramVec("forkbase_store_op_seconds",
		"Chunk-store operation latency by backend kind and operation.", "kind", "op")
	s := &instrumentedStore{
		Store: inner,
		kind:  kind,
		rdB: reg.CounterVec("forkbase_store_read_bytes_total",
			"Chunk payload bytes read, by backend kind.", "kind").With(kind),
		wrB: reg.CounterVec("forkbase_store_write_bytes_total",
			"Chunk payload bytes written, by backend kind.", "kind").With(kind),
		errs: reg.CounterVec("forkbase_store_errors_total",
			"Chunk-store operations that failed (not-found excluded), by backend kind.", "kind").With(kind),
		logger: logger,
		slowOp: slowOp,
	}
	mk := func(op string) opMetrics {
		return opMetrics{name: op, total: opsTotal.With(kind, op), lat: opSeconds.With(kind, op)}
	}
	s.get, s.put, s.has = mk("get"), mk("put"), mk("has")
	s.getB, s.putB, s.hasB = mk("get_batch"), mk("put_batch"), mk("has_batch")
	if vi, ok := inner.(VerifiedIndexer); ok {
		// Forward the verified-index capability natively (instrumenting
		// GetVerified as a get), so the verifier's warm fast path keeps
		// working — and keeps being counted — through the metrics layer.
		return &instrumentedVerifiedStore{instrumentedStore: s, vidx: vi}
	}
	return s
}

// instrumentedVerifiedStore is an instrumentedStore over an inner that also
// offers the VerifiedIndexer capability.  A separate type (rather than
// optional methods) so the capability is visible exactly when the inner store
// actually has it.
type instrumentedVerifiedStore struct {
	*instrumentedStore
	vidx VerifiedIndexer
}

var _ VerifiedIndexer = (*instrumentedVerifiedStore)(nil)

// GetVerified implements VerifiedIndexer, counted under the get metrics.
func (s *instrumentedVerifiedStore) GetVerified(id hash.Hash) (*chunk.Chunk, bool, error) {
	start := s.begin(&s.get)
	c, okv, err := s.vidx.GetVerified(id)
	s.observe(&s.get, start, err)
	if c != nil {
		s.rdB.Add(int64(len(c.Data())))
	}
	return c, okv, err
}

// MarkVerified implements VerifiedIndexer.
func (s *instrumentedVerifiedStore) MarkVerified(id hash.Hash, epoch uint64) {
	s.vidx.MarkVerified(id, epoch)
}

// UnmarkVerified implements VerifiedIndexer.
func (s *instrumentedVerifiedStore) UnmarkVerified(id hash.Hash) { s.vidx.UnmarkVerified(id) }

// UnmarkAllVerified implements VerifiedIndexer.
func (s *instrumentedVerifiedStore) UnmarkAllVerified() { s.vidx.UnmarkAllVerified() }

// VerifiedServes implements VerifiedIndexer.
func (s *instrumentedVerifiedStore) VerifiedServes() int64 { return s.vidx.VerifiedServes() }

// begin returns the start time when this operation's latency will be
// recorded (sampled, or always under a slow-op threshold), else the zero
// Time.
func (s *instrumentedStore) begin(op *opMetrics) time.Time {
	if s.slowOp > 0 || op.sample.Add(1)&latSampleMask == 1 {
		return time.Now()
	}
	return time.Time{}
}

// observe finishes one operation: count, sampled latency, error
// accounting, slow-op log.
func (s *instrumentedStore) observe(op *opMetrics, start time.Time, err error) {
	op.total.Inc()
	if err != nil && !errors.Is(err, ErrNotFound) {
		s.errs.Inc()
	}
	if start.IsZero() {
		return
	}
	d := time.Since(start)
	op.lat.Observe(d)
	if s.slowOp > 0 && d >= s.slowOp && s.logger != nil {
		s.logger.Warn("slow store op", "kind", s.kind, "op", op.name, "duration", d, "err", err)
	}
}

// Put implements Store.
func (s *instrumentedStore) Put(c *chunk.Chunk) (bool, error) {
	start := s.begin(&s.put)
	fresh, err := s.Store.Put(c)
	s.observe(&s.put, start, err)
	if c != nil {
		s.wrB.Add(int64(len(c.Data())))
	}
	return fresh, err
}

// Get implements Store.
func (s *instrumentedStore) Get(id hash.Hash) (*chunk.Chunk, error) {
	start := s.begin(&s.get)
	c, err := s.Store.Get(id)
	s.observe(&s.get, start, err)
	if c != nil {
		s.rdB.Add(int64(len(c.Data())))
	}
	return c, err
}

// Has implements Store.
func (s *instrumentedStore) Has(id hash.Hash) (bool, error) {
	start := s.begin(&s.has)
	ok, err := s.Store.Has(id)
	s.observe(&s.has, start, err)
	return ok, err
}

// PutBatch implements Store (instrumented as one operation — the
// clock amortizes over the batch, so batches are always timed; bytes count
// every chunk offered).
func (s *instrumentedStore) PutBatch(cs []*chunk.Chunk) ([]bool, error) {
	start := time.Now()
	fresh, err := s.Store.PutBatch(cs)
	s.observe(&s.putB, start, err)
	var n int64
	for _, c := range cs {
		if c != nil {
			n += int64(len(c.Data()))
		}
	}
	s.wrB.Add(n)
	return fresh, err
}

// GetBatch implements Store.
func (s *instrumentedStore) GetBatch(ids []hash.Hash) ([]*chunk.Chunk, error) {
	start := time.Now()
	cs, err := s.Store.GetBatch(ids)
	s.observe(&s.getB, start, err)
	var n int64
	for _, c := range cs {
		if c != nil {
			n += int64(len(c.Data()))
		}
	}
	s.rdB.Add(n)
	return cs, err
}

// HasBatch implements Store.
func (s *instrumentedStore) HasBatch(ids []hash.Hash) ([]bool, error) {
	start := time.Now()
	oks, err := s.Store.HasBatch(ids)
	s.observe(&s.hasB, start, err)
	return oks, err
}

// Unwrap exposes the inner store to As.
func (s *instrumentedStore) Unwrap() Store { return s.Store }
