package store

import (
	"context"
	"errors"
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

// instrumentedStore counts every chunk operation crossing into the backend
// and times a sample of them, one obs.Op per operation.  All metric handles
// are resolved at construction, so the common per-op cost is a handful of
// atomic adds.
//
// The wrapper is transparent to capability discovery: batch paths are
// instrumented natively and Unwrap exposes the inner store to As.
type instrumentedStore struct {
	Store

	get, put, has, getB, putB, hasB *obs.Op

	rdB *obs.Counter // payload bytes returned to readers
	wrB *obs.Counter // payload bytes accepted from writers
}

// Instrument wraps inner so every Get/Put/Has (and their batch forms) is
// counted and timed under forkbase_store_* with a kind label naming the
// backend.  A nil or Discard registry returns inner unchanged — the bare
// path stays bare.  With a slow-op log, backend operations slower than its
// threshold are logged at Warn with kind, op and duration, so a slow engine
// operation can be attributed to the layer that actually stalled.
func Instrument(inner Store, reg *obs.Registry, slow ...obs.SlowLog) Store {
	if inner == nil || reg == nil || reg == obs.Discard {
		return inner
	}
	kind := KindOf(inner)
	opsTotal := reg.CounterVec("forkbase_store_ops_total",
		"Chunk-store operations by backend kind and operation.", "kind", "op")
	opSeconds := reg.HistogramVec("forkbase_store_op_seconds",
		"Chunk-store operation latency by backend kind and operation.", "kind", "op")
	errs := reg.CounterVec("forkbase_store_errors_total",
		"Chunk-store operations that failed (not-found excluded), by backend kind.", "kind").With(kind)
	var sl obs.SlowLog
	if len(slow) > 0 {
		sl = slow[0]
	}
	mk := func(op string) *obs.Op {
		return &obs.Op{Name: op, Count: opsTotal.With(kind, op), Fails: errs, Lat: opSeconds.With(kind, op),
			Benign: isNotFound, Slow: sl, Msg: "slow store op", Attrs: []any{"kind", kind}}
	}
	s := &instrumentedStore{
		Store: inner,
		get:   mk("get"), put: mk("put"), has: mk("has"),
		getB: mk("get_batch"), putB: mk("put_batch"), hasB: mk("has_batch"),
		rdB: reg.CounterVec("forkbase_store_read_bytes_total",
			"Chunk payload bytes read, by backend kind.", "kind").With(kind),
		wrB: reg.CounterVec("forkbase_store_write_bytes_total",
			"Chunk payload bytes written, by backend kind.", "kind").With(kind),
	}
	if vi, ok := inner.(VerifiedIndexer); ok {
		// Forward the verified-index capability natively (instrumenting
		// GetVerified as a get), so the verifier's warm fast path keeps
		// working — and keeps being counted — through the metrics layer.
		return &instrumentedVerifiedStore{instrumentedStore: s, vidx: vi}
	}
	return s
}

// isNotFound: an absent chunk is an answer, not a store failure.
func isNotFound(err error) bool { return errors.Is(err, ErrNotFound) }

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
	start := s.get.Begin()
	c, okv, err := s.vidx.GetVerified(id)
	s.get.End(context.Background(), start, err)
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

// Put implements Store.
func (s *instrumentedStore) Put(c *chunk.Chunk) (bool, error) {
	start := s.put.Begin()
	fresh, err := s.Store.Put(c)
	s.put.End(context.Background(), start, err)
	if c != nil {
		s.wrB.Add(int64(len(c.Data())))
	}
	return fresh, err
}

// Get implements Store.
func (s *instrumentedStore) Get(id hash.Hash) (*chunk.Chunk, error) {
	start := s.get.Begin()
	c, err := s.Store.Get(id)
	s.get.End(context.Background(), start, err)
	if c != nil {
		s.rdB.Add(int64(len(c.Data())))
	}
	return c, err
}

// Has implements Store.
func (s *instrumentedStore) Has(id hash.Hash) (bool, error) {
	start := s.has.Begin()
	ok, err := s.Store.Has(id)
	s.has.End(context.Background(), start, err)
	return ok, err
}

// PutBatch implements Store (instrumented as one operation — the
// clock amortizes over the batch, so batches are always timed; bytes count
// every chunk offered).
func (s *instrumentedStore) PutBatch(cs []*chunk.Chunk) ([]bool, error) {
	start := time.Now()
	fresh, err := s.Store.PutBatch(cs)
	s.putB.End(context.Background(), start, err)
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
	s.getB.End(context.Background(), start, err)
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
	s.hasB.End(context.Background(), start, err)
	return oks, err
}

// Unwrap exposes the inner store to As.
func (s *instrumentedStore) Unwrap() Store { return s.Store }
