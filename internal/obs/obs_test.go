package obs

import (
	"context"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestPrometheusGolden pins the exposition format byte-for-byte: sorted
// families, HELP/TYPE headers, label rendering, histogram buckets in
// seconds with +Inf/_sum/_count.
func TestPrometheusGolden(t *testing.T) {
	r := NewRegistry()
	r.Counter("test_ops_total", "Total operations.").Add(42)
	cv := r.CounterVec("test_errors_total", "Errors by kind.", "kind")
	cv.With("io").Add(3)
	cv.With("corrupt").Inc()
	r.Gauge("test_inflight", "In-flight requests.").Add(7)
	r.GaugeFunc("test_uptime_seconds", "Uptime.", func() float64 { return 1.5 })
	h := r.Histogram("test_op_seconds", "Op latency.")
	h.Observe(200 * time.Nanosecond)  // bucket 0 (≤256ns)
	h.Observe(300 * time.Nanosecond)  // bucket 1 (≤512ns)
	h.Observe(1000 * time.Nanosecond) // bucket 2 (≤1024ns)

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	got := b.String()

	want := strings.Join([]string{
		"# HELP test_errors_total Errors by kind.",
		"# TYPE test_errors_total counter",
		`test_errors_total{kind="corrupt"} 1`,
		`test_errors_total{kind="io"} 3`,
		"# HELP test_inflight In-flight requests.",
		"# TYPE test_inflight gauge",
		"test_inflight 7",
		"# HELP test_op_seconds Op latency.",
		"# TYPE test_op_seconds histogram",
		`test_op_seconds_bucket{le="2.56e-07"} 1`,
		`test_op_seconds_bucket{le="5.12e-07"} 2`,
		`test_op_seconds_bucket{le="1.024e-06"} 3`,
	}, "\n")
	if !strings.HasPrefix(got, want) {
		t.Fatalf("exposition prefix mismatch:\ngot:\n%s\nwant prefix:\n%s", got, want)
	}
	for _, line := range []string{
		`test_op_seconds_bucket{le="+Inf"} 3`,
		"test_op_seconds_sum 1.5e-06",
		"test_op_seconds_count 3",
		"# HELP test_ops_total Total operations.",
		"# TYPE test_ops_total counter",
		"test_ops_total 42",
		"# TYPE test_uptime_seconds gauge",
		"test_uptime_seconds 1.5",
	} {
		if !strings.Contains(got, line+"\n") {
			t.Errorf("exposition missing line %q\nfull output:\n%s", line, got)
		}
	}
}

// TestJSONSnapshot checks the snapshot round-trips through encoding/json
// with the documented field names and derived quantiles.
func TestJSONSnapshot(t *testing.T) {
	r := NewRegistry()
	r.Counter("snap_total", "help").Add(5)
	r.CounterVec("snap_by_kind_total", "help", "kind").With("a").Add(2)
	r.Gauge("snap_gauge", "help").Add(-3)
	h := r.Histogram("snap_seconds", "help")
	for i := 0; i < 100; i++ {
		h.Observe(time.Microsecond)
	}

	var b strings.Builder
	if err := r.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	var snap Snapshot
	if err := json.Unmarshal([]byte(b.String()), &snap); err != nil {
		t.Fatalf("snapshot is not valid JSON: %v", err)
	}
	if len(snap.Counters) != 2 || len(snap.Gauges) != 1 || len(snap.Histograms) != 1 {
		t.Fatalf("snapshot shape: %d counters, %d gauges, %d histograms",
			len(snap.Counters), len(snap.Gauges), len(snap.Histograms))
	}
	if snap.Counters[0].Name != "snap_by_kind_total" || snap.Counters[0].Labels["kind"] != "a" {
		t.Errorf("labeled counter: %+v", snap.Counters[0])
	}
	if snap.Gauges[0].Value != -3 {
		t.Errorf("gauge value = %v, want -3", snap.Gauges[0].Value)
	}
	hv := snap.Histograms[0]
	if hv.Count != 100 || hv.P50 <= 0 || hv.P99 < hv.P50 || hv.Max <= 0 {
		t.Errorf("histogram snapshot: %+v", hv)
	}
}

// TestHistogramBuckets pins the bucket mapping at the boundaries.
func TestHistogramBuckets(t *testing.T) {
	cases := []struct {
		ns   int64
		want int
	}{
		{0, 0}, {1, 0}, {256, 0}, {257, 1}, {512, 1}, {513, 2},
		{1024, 2}, {1 << 20, 12}, {int64(bucketBaseNs) << numBuckets, numBuckets},
		{1 << 62, numBuckets},
	}
	for _, c := range cases {
		if got := bucketIndex(c.ns); got != c.want {
			t.Errorf("bucketIndex(%d) = %d, want %d", c.ns, got, c.want)
		}
	}
	for i := 0; i < numBuckets; i++ {
		b := bucketBoundNs(i)
		if bucketIndex(b) != i {
			t.Errorf("bound %d maps to bucket %d, want %d", b, bucketIndex(b), i)
		}
		if bucketIndex(b+1) != i+1 && i+1 <= numBuckets {
			t.Errorf("bound+1 %d maps to bucket %d, want %d", b+1, bucketIndex(b+1), i+1)
		}
	}
}

// TestHistogramQuantiles feeds a known distribution and checks the
// reported quantiles are conservative upper bounds within one bucket.
func TestHistogramQuantiles(t *testing.T) {
	h := newHistogram()
	// 90 fast ops at 1µs, 9 at 100µs, 1 at 10ms.
	for i := 0; i < 90; i++ {
		h.Observe(time.Microsecond)
	}
	for i := 0; i < 9; i++ {
		h.Observe(100 * time.Microsecond)
	}
	h.Observe(10 * time.Millisecond)

	if got := h.Count(); got != 100 {
		t.Fatalf("count = %d", got)
	}
	if got := h.Max(); got != 10*time.Millisecond {
		t.Errorf("max = %v, want 10ms", got)
	}
	// p50 falls in the 1µs observations: bucket bound for 1000ns is 1024ns.
	if got := h.Quantile(0.50); got < time.Microsecond || got > 2*time.Microsecond {
		t.Errorf("p50 = %v, want ~1µs (≤ one bucket above)", got)
	}
	// p95 falls among the 100µs observations: bound 131072ns.
	if got := h.Quantile(0.95); got < 100*time.Microsecond || got > 256*time.Microsecond {
		t.Errorf("p95 = %v, want ~100µs", got)
	}
	// p99.5+ lands on the max.
	if got := h.Quantile(1.0); got != 10*time.Millisecond && got > 16*time.Millisecond {
		t.Errorf("p100 = %v", got)
	}
	// Empty histogram.
	if got := newHistogram().Quantile(0.5); got != 0 {
		t.Errorf("empty quantile = %v", got)
	}
	// Sum is exact.
	want := 90*time.Microsecond + 900*time.Microsecond + 10*time.Millisecond
	if got := h.Sum(); got != want {
		t.Errorf("sum = %v, want %v", got, want)
	}
}

// TestConcurrentIncrements hammers one counter, one labeled counter, and
// one histogram from many goroutines; totals must be exact.  Run under
// -race in the CI obs shard.
func TestConcurrentIncrements(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("conc_total", "help")
	cv := r.CounterVec("conc_by_kind_total", "help", "kind")
	h := r.Histogram("conc_seconds", "help")
	g := r.Gauge("conc_gauge", "help")

	const workers, perWorker = 8, 5000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			kc := cv.With("k") // With is also safe to race, but resolve once like real callers
			for i := 0; i < perWorker; i++ {
				c.Inc()
				kc.Inc()
				h.Observe(time.Duration(i) * time.Nanosecond)
				g.Add(1)
				g.Add(-1)
			}
		}(w)
	}
	wg.Wait()

	const want = workers * perWorker
	if got := c.Value(); got != want {
		t.Errorf("counter = %d, want %d", got, want)
	}
	if got := cv.With("k").Value(); got != want {
		t.Errorf("labeled counter = %d, want %d", got, want)
	}
	if got := h.Count(); got != want {
		t.Errorf("histogram count = %d, want %d", got, want)
	}
	if got := g.Value(); got != 0 {
		t.Errorf("gauge = %d, want 0", got)
	}
}

// TestGetOrCreate: same (name, labels) returns the same handle; GaugeFunc
// re-registration replaces the callback.
func TestGetOrCreate(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("goc_total", "help")
	b := r.Counter("goc_total", "other help ignored")
	if a != b {
		t.Error("Counter not get-or-create")
	}
	a.Add(2)
	if v, ok := r.Value("goc_total"); !ok || v != 2 {
		t.Errorf("Value = %v, %v", v, ok)
	}

	r.GaugeFunc("goc_fn", "help", func() float64 { return 1 })
	r.GaugeFunc("goc_fn", "help", func() float64 { return 9 })
	if v, _ := r.Value("goc_fn"); v != 9 {
		t.Errorf("GaugeFunc re-register: value = %v, want 9 (latest wins)", v)
	}

	cv := r.CounterVec("goc_vec_total", "help", "op")
	cv.With("get").Add(3)
	cv.With("put").Add(4)
	if got := r.Sum("goc_vec_total"); got != 7 {
		t.Errorf("Sum = %v, want 7", got)
	}
}

// TestNilSafety: nil registry, Discard registry, and nil handles all
// no-op without panicking.
func TestNilSafety(t *testing.T) {
	var r *Registry
	r.Counter("x", "h").Inc()
	r.CounterVec("x", "h", "l").With("v").Add(5)
	r.Gauge("x", "h").Add(1)
	r.GaugeFunc("x", "h", func() float64 { return 1 })
	r.Histogram("x", "h").Observe(time.Second)
	r.HistogramVec("x", "h", "l").With("v").Since(time.Now())
	if v, ok := r.Value("x"); ok || v != 0 {
		t.Error("nil registry Value should report absent")
	}

	d := Discard
	if c := d.Counter("x", "h"); c != nil {
		t.Error("Discard should hand out nil counters")
	}
	d.Counter("x", "h").Inc()
	d.Histogram("x", "h").Observe(time.Second)
	var b strings.Builder
	if err := d.WritePrometheus(&b); err != nil || b.Len() != 0 {
		t.Errorf("Discard exposition: %q, %v", b.String(), err)
	}
}

func TestTraceContext(t *testing.T) {
	ctx, id := WithTrace(context.Background(), "")
	if len(id) != 16 {
		t.Fatalf("trace id %q, want 16 hex chars", id)
	}
	if got := TraceID(ctx); got != id {
		t.Errorf("TraceID = %q, want %q", got, id)
	}
	ctx2, id2 := WithTrace(context.Background(), "deadbeefdeadbeef")
	if id2 != "deadbeefdeadbeef" || TraceID(ctx2) != id2 {
		t.Errorf("explicit id not preserved: %q", id2)
	}
	if TraceID(context.Background()) != "" {
		t.Error("empty context should have no trace id")
	}
	a, b := NewTraceID(), NewTraceID()
	if a == b {
		t.Error("consecutive trace ids collide")
	}
}

// BenchmarkCounterInc pins the tentpole requirement: a hot-path increment
// is one atomic add, < 25 ns/op.
func BenchmarkCounterInc(b *testing.B) {
	c := NewRegistry().Counter("bench_total", "help")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

func BenchmarkCounterIncNil(b *testing.B) {
	var c *Counter
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

func BenchmarkHistogramObserve(b *testing.B) {
	h := NewRegistry().Histogram("bench_seconds", "help")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(time.Duration(i))
	}
}

func BenchmarkCounterVecWith(b *testing.B) {
	cv := NewRegistry().CounterVec("bench_vec_total", "help", "op")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cv.With("get").Inc()
	}
}
