package obs

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"log/slog"
	"strings"
	"testing"
	"time"
)

func newTestOp(reg *Registry, name string) *Op {
	return &Op{
		Name:  name,
		Count: reg.CounterVec("t_ops_total", "ops", "op").With(name),
		Fails: reg.Counter("t_errors_total", "errors shared by every op"),
		Lat:   reg.HistogramVec("t_op_seconds", "latency", "op").With(name),
	}
}

// TestOpCountsAndSamples: every operation is counted, and without a slow-op
// threshold the first of every 32 is timed.
func TestOpCountsAndSamples(t *testing.T) {
	reg := NewRegistry()
	o := newTestOp(reg, "get")
	var timed []int
	for i := 0; i < 96; i++ {
		start := o.Begin()
		if !start.IsZero() {
			timed = append(timed, i)
		}
		o.End(context.Background(), start, nil)
	}
	if fmt.Sprint(timed) != "[0 32 64]" || o.Count.Value() != 96 || o.Lat.Count() != 3 {
		t.Fatalf("96 ops: timed %v, count %d, histogram %d; want [0 32 64], 96, 3", timed, o.Count.Value(), o.Lat.Count())
	}
	// A caller that times every call itself passes its own start.
	o.End(context.Background(), time.Now(), nil)
	if o.Lat.Count() != 4 {
		t.Fatalf("an op ended with its own start: histogram %d, want 4", o.Lat.Count())
	}
}

// TestOpTimesEveryOpUnderAThreshold: detection must not sample.
func TestOpTimesEveryOpUnderAThreshold(t *testing.T) {
	o := newTestOp(NewRegistry(), "put")
	o.Slow = SlowLog{Logger: slog.New(slog.NewTextHandler(&bytes.Buffer{}, nil)), Threshold: time.Hour}
	for i := 0; i < 40; i++ {
		start := o.Begin()
		if start.IsZero() {
			t.Fatalf("op %d not timed under a slow-op threshold", i)
		}
		o.End(context.Background(), start, nil)
	}
	if o.Lat.Count() != 40 {
		t.Fatalf("histogram %d, want 40", o.Lat.Count())
	}
}

// TestOpBenignErrors: an error the classifier calls an outcome is counted
// as an operation but not as a failure; without a classifier every error
// fails, and Ops sharing a failure counter add into it.
func TestOpBenignErrors(t *testing.T) {
	reg := NewRegistry()
	errAbsent, errBroken := errors.New("absent"), errors.New("broken")
	get := newTestOp(reg, "get")
	get.Benign = func(err error) bool { return errors.Is(err, errAbsent) }
	put := newTestOp(reg, "put")
	get.End(context.Background(), time.Time{}, errAbsent)
	get.End(context.Background(), time.Time{}, errBroken)
	put.End(context.Background(), time.Time{}, errAbsent)
	if got := get.Fails.Value(); got != 2 {
		t.Fatalf("shared failures = %d, want 2 (the broken get and the unclassified put)", got)
	}
	if get.Count.Value() != 2 || put.Count.Value() != 1 {
		t.Fatalf("counts get %d put %d, want 2 and 1", get.Count.Value(), put.Count.Value())
	}
}

// TestOpSlowRecord: past the threshold End writes one record carrying the
// layer's attributes, op, duration, trace ID, the caller's fields and the
// error — and no err field for an operation that succeeded.
func TestOpSlowRecord(t *testing.T) {
	var logs bytes.Buffer
	o := newTestOp(NewRegistry(), "get")
	o.Slow = SlowLog{Logger: slog.New(slog.NewTextHandler(&logs, nil)), Threshold: time.Nanosecond}
	o.Msg, o.Attrs = "slow store op", []any{"kind", "mem"}
	ctx, tid := WithTrace(context.Background(), "")

	start := o.Begin()
	time.Sleep(time.Microsecond)
	o.End(ctx, start, errors.New("disk on fire"), "key", "k")
	rec := logs.String()
	for _, want := range []string{`msg="slow store op"`, "kind=mem", "op=get", "duration=", "trace_id=" + tid, "key=k", `err="disk on fire"`} {
		if !strings.Contains(rec, want) {
			t.Errorf("slow record lacks %s:\n%s", want, rec)
		}
	}
	if strings.Index(rec, "kind=mem") > strings.Index(rec, "op=get") {
		t.Errorf("layer attributes do not lead the record:\n%s", rec)
	}

	logs.Reset()
	start = o.Begin()
	time.Sleep(time.Microsecond)
	o.End(context.Background(), start, nil)
	if rec := logs.String(); !strings.Contains(rec, "op=get") || strings.Contains(rec, "err=") || strings.Contains(rec, "trace_id=") {
		t.Errorf("a successful op without a trace: record %q, want op and no err or trace_id", rec)
	}

	// Under the threshold there is no record.
	logs.Reset()
	o.Slow.Threshold = time.Hour
	o.End(ctx, o.Begin(), errors.New("quick failure"))
	if logs.Len() != 0 {
		t.Errorf("an op under the threshold was logged: %s", logs.String())
	}
}

// TestNilOp: an uninstrumented layer holds nil Ops.
func TestNilOp(t *testing.T) {
	var o *Op
	if !o.Begin().IsZero() {
		t.Error("a nil Op elected to time an operation")
	}
	o.End(context.Background(), time.Now(), errors.New("x"), "k", "v")
}
