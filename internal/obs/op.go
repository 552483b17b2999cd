// The operation meter: one count, failure count, sampled latency and
// slow-op record per operation, shared by every layer that meters its entry
// points (engine, chunk store, TCP server).
package obs

import (
	"context"
	"log/slog"
	"sync/atomic"
	"time"
)

// sampleMask gates latency timing: clock reads cost ~50-100 ns on
// virtualized hosts — more than a memory store's whole map access — so only
// 1 of every sampleMask+1 operations is timed.  Counts stay exact for every
// operation and the histogram sees an unbiased sample.  Under a slow-op
// threshold every operation is timed: detection must not sample.
const sampleMask = 31

// SlowLog is where an Op writes its slow-op record: an operation that took
// at least Threshold is logged through Logger at Warn.  The zero value logs
// nothing.
type SlowLog struct {
	Logger    *slog.Logger
	Threshold time.Duration
}

// Op meters one operation.  Build it once, with every handle resolved, and
// bracket each call with Begin and End.  A nil *Op meters nothing, so an
// uninstrumented layer holds nil Ops and never branches on it.
type Op struct {
	Name  string
	Count *Counter   // every operation
	Fails *Counter   // operations ending in a failure; may be shared by several Ops
	Lat   *Histogram // timed operations
	// Benign reports errors that are outcomes, not failures (not-found, a
	// lost compare-and-set); nil counts every error as a failure.
	Benign func(error) bool
	Slow   SlowLog
	Msg    string // the slow-op record's message
	Attrs  []any  // the layer's attributes, leading the slow-op record

	sample atomic.Uint64
}

// Begin returns the start time when this operation will be timed (1 in
// sampleMask+1, or every one under a slow-op threshold), else the zero Time.
func (o *Op) Begin() time.Time {
	if o == nil {
		return time.Time{}
	}
	if o.Slow.Threshold > 0 || o.sample.Add(1)&sampleMask == 1 {
		return time.Now()
	}
	return time.Time{}
}

// Logs reports whether End, given start, would write a slow-op record, so
// that a caller on a hot path builds the record's fields only then.
func (o *Op) Logs(start time.Time) bool {
	return o != nil && !start.IsZero() && o.Slow.Threshold > 0 && o.Slow.Logger != nil && time.Since(start) >= o.Slow.Threshold
}

// End counts the operation, records its latency when start is non-zero and,
// past the slow-op threshold, writes the slow-op record: the layer's
// attributes, op, duration, the trace ID ctx carries, kvs, and err when
// there is one.  A caller that times every call passes its own time.Now().
func (o *Op) End(ctx context.Context, start time.Time, err error, kvs ...any) {
	if o == nil {
		return
	}
	o.Count.Inc()
	if err != nil && (o.Benign == nil || !o.Benign(err)) {
		o.Fails.Inc()
	}
	if start.IsZero() {
		return
	}
	d := time.Since(start)
	o.Lat.Observe(d)
	if o.Slow.Threshold <= 0 || d < o.Slow.Threshold || o.Slow.Logger == nil {
		return
	}
	args := make([]any, 0, len(o.Attrs)+len(kvs)+8)
	args = append(append(args, o.Attrs...), "op", o.Name, "duration", d)
	if id := TraceID(ctx); id != "" {
		args = append(args, "trace_id", id)
	}
	args = append(args, kvs...)
	if err != nil {
		args = append(args, "err", err)
	}
	o.Slow.Logger.Warn(o.Msg, args...)
}
