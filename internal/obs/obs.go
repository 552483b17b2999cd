// Package obs is ForkBase's dependency-free observability substrate: a
// metrics registry (atomic counters, gauges, bounded-bucket latency
// histograms, labeled families) with Prometheus text-format exposition and
// a JSON snapshot API, plus trace-ID context propagation for following one
// slow operation across layers.
//
// Design constraints, in order:
//
//  1. Hot-path cost.  Incrementing a counter is one atomic add on a
//     pre-resolved handle (< 25 ns, pinned by BenchmarkCounterInc).  All
//     lookup/locking happens once, at registration; the handles returned by
//     Counter/Gauge/Histogram are then lock-free forever.
//  2. Zero dependencies.  Only the standard library; the exposition writer
//     speaks enough of the Prometheus text format for real scrapers.
//  3. Nil safety.  A nil *Registry hands out nil handles, and every method
//     on a nil handle is a no-op — instrumented code never branches on
//     "is observability configured".  Discard is the explicit inert
//     registry for benchmarking the bare path.
//
// Registration is get-or-create: asking for an existing (name, labels)
// pair returns the same handle, so independent subsystems — or multiple
// engines in one test process — can share a registry without coordination.
// Re-registering a GaugeFunc replaces the callback (latest caller wins),
// which keeps per-engine gauges correct when tests open engines serially.
package obs

import (
	"fmt"
	"math/bits"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// metricKind discriminates exposition behaviour.
type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindGaugeFunc
	kindCounterFunc
	kindHistogram
)

func (k metricKind) promType() string {
	switch k {
	case kindCounter, kindCounterFunc:
		return "counter"
	case kindHistogram:
		return "histogram"
	default:
		return "gauge"
	}
}

// family groups every instance of one metric name: shared help text, kind,
// and label schema.  Exposition emits one # HELP/# TYPE header per family.
type family struct {
	name   string
	help   string
	kind   metricKind
	labels []string

	mu        sync.Mutex
	instances map[string]*instance // keyed by joined label values
}

// instance is one (name, label-values) time series.
type instance struct {
	fam    *family
	values []string // label values, aligned with fam.labels

	counter *Counter
	gauge   *Gauge
	hist    *Histogram
	fnp     atomic.Pointer[func() float64] // gauge/counter func, swapped on re-register
}

// Registry owns a namespace of metric families.  The zero value is NOT
// usable; call NewRegistry.  A nil *Registry is safe: every method returns
// a nil handle whose operations no-op.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
	inert    bool // Discard: hand out nil handles
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// Discard is a non-nil registry that records nothing: get-or-create
// returns nil handles (whose methods no-op) and exposition is empty.  Use
// it as the "bare" arm of overhead benchmarks, or to switch a subsystem's
// instrumentation off wholesale.
var Discard = &Registry{inert: true}

var defaultRegistry = NewRegistry()

// Default returns the process-wide registry.  Subsystems without an
// explicit registry (package-level retry counters, forkbased's wiring)
// register here.
func Default() *Registry { return defaultRegistry }

// family returns the family for name, creating it with the given schema on
// first use.  A kind or label-arity mismatch with a prior registration
// panics: metric names are compile-time constants, so a clash is a
// programming error best caught in tests.
func (r *Registry) family(name, help string, kind metricKind, labels []string) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.families[name]
	if !ok {
		f = &family{name: name, help: help, kind: kind, labels: labels, instances: make(map[string]*instance)}
		r.families[name] = f
		return f
	}
	sameGaugeish := (f.kind == kindGauge || f.kind == kindGaugeFunc) && (kind == kindGauge || kind == kindGaugeFunc)
	sameCounterish := (f.kind == kindCounter || f.kind == kindCounterFunc) && (kind == kindCounter || kind == kindCounterFunc)
	if f.kind != kind && !sameGaugeish && !sameCounterish {
		panic(fmt.Sprintf("obs: metric %q re-registered as %s, was %s", name, kind.promType(), f.kind.promType()))
	}
	if len(f.labels) != len(labels) {
		panic(fmt.Sprintf("obs: metric %q re-registered with %d labels, was %d", name, len(labels), len(f.labels)))
	}
	return f
}

// instance returns the (values) instance of f, creating on first use.
func (f *family) instance(values []string) *instance {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("obs: metric %q wants %d label values, got %d", f.name, len(f.labels), len(values)))
	}
	key := strings.Join(values, "\xff")
	f.mu.Lock()
	defer f.mu.Unlock()
	inst, ok := f.instances[key]
	if !ok {
		inst = &instance{fam: f, values: append([]string(nil), values...)}
		switch f.kind {
		case kindCounter:
			inst.counter = &Counter{}
		case kindGauge:
			inst.gauge = &Gauge{}
		case kindHistogram:
			inst.hist = newHistogram()
		}
		f.instances[key] = inst
	}
	return inst
}

// --- Counters ---

// Counter is a monotonically increasing value.  Nil-safe.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n (negative n is ignored: counters are monotonic).
func (c *Counter) Add(n int64) {
	if c != nil && n > 0 {
		c.v.Add(n)
	}
}

// Value reads the current total.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Counter registers (or finds) an unlabeled counter.
func (r *Registry) Counter(name, help string) *Counter {
	if r == nil || r.inert {
		return nil
	}
	return r.family(name, help, kindCounter, nil).instance(nil).counter
}

// CounterVec is a family of counters sharing a name and label schema.
type CounterVec struct{ fam *family }

// CounterVec registers (or finds) a labeled counter family.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	if r == nil || r.inert {
		return nil
	}
	return &CounterVec{fam: r.family(name, help, kindCounter, labels)}
}

// With resolves the counter for the given label values.  Resolve once and
// keep the handle: With takes a lock.
func (v *CounterVec) With(values ...string) *Counter {
	if v == nil {
		return nil
	}
	return v.fam.instance(values).counter
}

// --- Gauges ---

// Gauge is a value that can go up and down.  Nil-safe.
type Gauge struct{ v atomic.Int64 }

// Add adjusts the value by n (n may be negative).
func (g *Gauge) Add(n int64) {
	if g != nil {
		g.v.Add(n)
	}
}

// Value reads the current value.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Gauge registers (or finds) an unlabeled gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	if r == nil || r.inert {
		return nil
	}
	return r.family(name, help, kindGauge, nil).instance(nil).gauge
}

// GaugeFunc registers a gauge whose value is computed at scrape time.
// Re-registering the same name replaces the callback — the latest engine
// wins, which is what a test process that opens engines serially wants.
// fn must be safe to call from any goroutine.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	r.funcMetric(name, help, kindGaugeFunc, nil, nil, fn)
}

// GaugeFuncVec registers a labeled scrape-time gauge.
func (r *Registry) GaugeFuncVec(name, help string, labels, values []string, fn func() float64) {
	r.funcMetric(name, help, kindGaugeFunc, labels, values, fn)
}

// CounterFunc registers a counter whose value is read at scrape time from
// an external cumulative source (e.g. a subsystem's own atomic stats).
// Exposed with TYPE counter; the same replace-on-reregister rule applies.
func (r *Registry) CounterFunc(name, help string, fn func() float64) {
	r.funcMetric(name, help, kindCounterFunc, nil, nil, fn)
}

// CounterFuncVec registers a labeled scrape-time counter.
func (r *Registry) CounterFuncVec(name, help string, labels, values []string, fn func() float64) {
	r.funcMetric(name, help, kindCounterFunc, labels, values, fn)
}

func (r *Registry) funcMetric(name, help string, kind metricKind, labels, values []string, fn func() float64) {
	if r == nil || r.inert || fn == nil {
		return
	}
	inst := r.family(name, help, kind, labels).instance(values)
	inst.fnp.Store(&fn)
}

// --- Histograms ---

// Histogram records a latency distribution in fixed exponential buckets:
// 31 bounds from 256 ns doubling to ~137 s, plus an overflow bucket.  One
// observation is two atomic adds plus a CAS loop for the max — no locks,
// no allocation.  Quantiles are read from bucket upper bounds
// (conservative: the true quantile is ≤ the reported one), max is exact.
type Histogram struct {
	buckets [numBuckets + 1]atomic.Uint64
	count   atomic.Uint64
	sumNs   atomic.Int64
	maxNs   atomic.Int64
}

const (
	numBuckets   = 30
	bucketBaseNs = 256 // bounds[i] = 256ns << i
)

func newHistogram() *Histogram { return &Histogram{} }

// bucketBoundNs returns the inclusive upper bound of bucket i in
// nanoseconds.
func bucketBoundNs(i int) int64 { return int64(bucketBaseNs) << uint(i) }

// bucketIndex maps a duration to its bucket: the smallest bound ≥ ns, or
// the overflow bucket.
func bucketIndex(ns int64) int {
	if ns <= bucketBaseNs {
		return 0
	}
	// 256<<i >= ns  ⇔  i >= bits needed beyond the base.
	i := bits.Len64(uint64(ns-1)) - 8 // 256 = 1<<8
	if i > numBuckets {
		return numBuckets
	}
	return i
}

// Observe records one duration.  Nil-safe.
func (h *Histogram) Observe(d time.Duration) {
	if h == nil {
		return
	}
	ns := int64(d)
	if ns < 0 {
		ns = 0
	}
	h.buckets[bucketIndex(ns)].Add(1)
	h.count.Add(1)
	h.sumNs.Add(ns)
	for {
		cur := h.maxNs.Load()
		if ns <= cur || h.maxNs.CompareAndSwap(cur, ns) {
			return
		}
	}
}

// Since is shorthand for Observe(time.Since(start)).
func (h *Histogram) Since(start time.Time) {
	if h != nil {
		h.Observe(time.Since(start))
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the total observed time.
func (h *Histogram) Sum() time.Duration {
	if h == nil {
		return 0
	}
	return time.Duration(h.sumNs.Load())
}

// Max returns the largest observation.
func (h *Histogram) Max() time.Duration {
	if h == nil {
		return 0
	}
	return time.Duration(h.maxNs.Load())
}

// Quantile returns an upper bound for the q-quantile (0 < q ≤ 1) from the
// bucket the rank falls into; the overflow bucket reports the exact max.
// Returns 0 when empty.
func (h *Histogram) Quantile(q float64) time.Duration {
	if h == nil {
		return 0
	}
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	rank := uint64(q * float64(total))
	if rank < 1 {
		rank = 1
	}
	if rank > total {
		rank = total
	}
	var cum uint64
	for i := 0; i <= numBuckets; i++ {
		cum += h.buckets[i].Load()
		if cum >= rank {
			if i == numBuckets {
				return time.Duration(h.maxNs.Load())
			}
			bound := bucketBoundNs(i)
			if m := h.maxNs.Load(); m < bound {
				return time.Duration(m) // all observations are ≤ max
			}
			return time.Duration(bound)
		}
	}
	return time.Duration(h.maxNs.Load())
}

// Histogram registers (or finds) an unlabeled histogram.
func (r *Registry) Histogram(name, help string) *Histogram {
	if r == nil || r.inert {
		return nil
	}
	return r.family(name, help, kindHistogram, nil).instance(nil).hist
}

// HistogramVec is a family of histograms sharing a name and label schema.
type HistogramVec struct{ fam *family }

// HistogramVec registers (or finds) a labeled histogram family.
func (r *Registry) HistogramVec(name, help string, labels ...string) *HistogramVec {
	if r == nil || r.inert {
		return nil
	}
	return &HistogramVec{fam: r.family(name, help, kindHistogram, labels)}
}

// With resolves the histogram for the given label values.
func (v *HistogramVec) With(values ...string) *Histogram {
	if v == nil {
		return nil
	}
	return v.fam.instance(values).hist
}

// --- Read-side helpers ---

// value reads an instance's scalar for exposition (not histograms).
func (inst *instance) value() float64 {
	switch inst.fam.kind {
	case kindCounter:
		return float64(inst.counter.Value())
	case kindGauge:
		return float64(inst.gauge.Value())
	case kindGaugeFunc, kindCounterFunc:
		if p := inst.fnp.Load(); p != nil {
			return (*p)()
		}
		return 0
	}
	return 0
}

// sortedFamilies snapshots families in name order; within a family,
// instances in label-value order.  Deterministic output enables golden
// tests and stable diffs of scrapes.
func (r *Registry) sortedFamilies() []*family {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	fams := make([]*family, 0, len(r.families))
	for _, f := range r.families {
		fams = append(fams, f)
	}
	r.mu.Unlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })
	return fams
}

func (f *family) sortedInstances() []*instance {
	f.mu.Lock()
	insts := make([]*instance, 0, len(f.instances))
	for _, inst := range f.instances {
		insts = append(insts, inst)
	}
	f.mu.Unlock()
	sort.Slice(insts, func(i, j int) bool {
		return strings.Join(insts[i].values, "\xff") < strings.Join(insts[j].values, "\xff")
	})
	return insts
}

// Value returns the current value of the (name, label-values) series and
// whether it exists.  Histograms report their observation count.
func (r *Registry) Value(name string, values ...string) (float64, bool) {
	if r == nil || r.inert {
		return 0, false
	}
	r.mu.Lock()
	f, ok := r.families[name]
	r.mu.Unlock()
	if !ok {
		return 0, false
	}
	key := strings.Join(values, "\xff")
	f.mu.Lock()
	inst, ok := f.instances[key]
	f.mu.Unlock()
	if !ok {
		return 0, false
	}
	if f.kind == kindHistogram {
		return float64(inst.hist.Count()), true
	}
	return inst.value(), true
}

// Sum adds up every instance of a family (all label combinations):
// convenient for "total requests regardless of route".  Histograms
// contribute their observation counts.
func (r *Registry) Sum(name string) float64 {
	if r == nil || r.inert {
		return 0
	}
	r.mu.Lock()
	f, ok := r.families[name]
	r.mu.Unlock()
	if !ok {
		return 0
	}
	var total float64
	for _, inst := range f.sortedInstances() {
		if f.kind == kindHistogram {
			total += float64(inst.hist.Count())
		} else {
			total += inst.value()
		}
	}
	return total
}
