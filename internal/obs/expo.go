// Exposition: Prometheus text format and JSON snapshots.
//
// The text writer emits the subset of the Prometheus exposition format
// that scrapers require: one # HELP / # TYPE pair per family, sorted
// family and label order (deterministic output for golden tests),
// histograms as cumulative le-buckets in seconds with +Inf, _sum and
// _count.  The JSON snapshot carries the same data plus the derived
// quantiles (p50/p95/p99/max) that the Prometheus model leaves to the
// query layer — it is what `forkbase metrics` and /v1/metrics.json serve.
package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// WritePrometheus writes the registry in Prometheus text format.
func (r *Registry) WritePrometheus(w io.Writer) error {
	bw := &errWriter{w: w}
	for _, f := range r.sortedFamilies() {
		insts := f.sortedInstances()
		if len(insts) == 0 {
			continue
		}
		fmt.Fprintf(bw, "# HELP %s %s\n", f.name, escapeHelp(f.help))
		fmt.Fprintf(bw, "# TYPE %s %s\n", f.name, f.kind.promType())
		for _, inst := range insts {
			if f.kind == kindHistogram {
				writePromHistogram(bw, f, inst)
				continue
			}
			fmt.Fprintf(bw, "%s%s %s\n", f.name, labelString(f.labels, inst.values, ""), formatFloat(inst.value()))
		}
	}
	return bw.err
}

func writePromHistogram(w io.Writer, f *family, inst *instance) {
	h := inst.hist
	// Load the bucket array once; cumulative sums over the snapshot.
	var cum uint64
	for i := 0; i <= numBuckets; i++ {
		cum += h.buckets[i].Load()
		le := "+Inf"
		if i < numBuckets {
			le = formatFloat(float64(bucketBoundNs(i)) / 1e9)
		}
		fmt.Fprintf(w, "%s_bucket%s %d\n", f.name, labelString(f.labels, inst.values, le), cum)
	}
	fmt.Fprintf(w, "%s_sum%s %s\n", f.name, labelString(f.labels, inst.values, ""), formatFloat(h.Sum().Seconds()))
	fmt.Fprintf(w, "%s_count%s %d\n", f.name, labelString(f.labels, inst.values, ""), h.Count())
}

// labelString renders {k="v",...}; le, when non-empty, is appended as the
// histogram bucket bound.  Returns "" for no labels.
func labelString(names, values []string, le string) string {
	if len(names) == 0 && le == "" {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, n := range names {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(n)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(values[i]))
		b.WriteByte('"')
	}
	if le != "" {
		if len(names) > 0 {
			b.WriteByte(',')
		}
		b.WriteString(`le="`)
		b.WriteString(le)
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

func escapeLabel(s string) string {
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(s)
}

func escapeHelp(s string) string {
	r := strings.NewReplacer(`\`, `\\`, "\n", `\n`)
	return r.Replace(s)
}

// formatFloat renders integers without an exponent or trailing zeros so
// counters read naturally ("42", not "4.2e+01").
func formatFloat(v float64) string {
	if v == float64(int64(v)) {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

type errWriter struct {
	w   io.Writer
	err error
}

func (ew *errWriter) Write(p []byte) (int, error) {
	if ew.err != nil {
		return 0, ew.err
	}
	n, err := ew.w.Write(p)
	ew.err = err
	return n, err
}

// --- JSON snapshot ---

// MetricValue is one scalar series in a snapshot.
type MetricValue struct {
	Name   string            `json:"name"`
	Labels map[string]string `json:"labels,omitempty"`
	Value  float64           `json:"value"`
}

// HistogramValue is one latency series in a snapshot; quantile fields are
// seconds.
type HistogramValue struct {
	Name       string            `json:"name"`
	Labels     map[string]string `json:"labels,omitempty"`
	Count      uint64            `json:"count"`
	SumSeconds float64           `json:"sum_seconds"`
	P50        float64           `json:"p50_seconds"`
	P95        float64           `json:"p95_seconds"`
	P99        float64           `json:"p99_seconds"`
	Max        float64           `json:"max_seconds"`
}

// Snapshot is a point-in-time copy of every series, ready for JSON.
type Snapshot struct {
	Counters   []MetricValue    `json:"counters"`
	Gauges     []MetricValue    `json:"gauges"`
	Histograms []HistogramValue `json:"histograms"`
}

// Snapshot captures the registry.  Series order is deterministic (family
// name, then label values).
func (r *Registry) Snapshot() Snapshot {
	snap := Snapshot{
		Counters:   []MetricValue{},
		Gauges:     []MetricValue{},
		Histograms: []HistogramValue{},
	}
	for _, f := range r.sortedFamilies() {
		for _, inst := range f.sortedInstances() {
			labels := labelMap(f.labels, inst.values)
			switch f.kind {
			case kindHistogram:
				h := inst.hist
				snap.Histograms = append(snap.Histograms, HistogramValue{
					Name:       f.name,
					Labels:     labels,
					Count:      h.Count(),
					SumSeconds: h.Sum().Seconds(),
					P50:        h.Quantile(0.50).Seconds(),
					P95:        h.Quantile(0.95).Seconds(),
					P99:        h.Quantile(0.99).Seconds(),
					Max:        h.Max().Seconds(),
				})
			case kindCounter, kindCounterFunc:
				snap.Counters = append(snap.Counters, MetricValue{Name: f.name, Labels: labels, Value: inst.value()})
			default:
				snap.Gauges = append(snap.Gauges, MetricValue{Name: f.name, Labels: labels, Value: inst.value()})
			}
		}
	}
	return snap
}

// WriteJSON writes the snapshot as indented JSON.
func (r *Registry) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.Snapshot())
}

func labelMap(names, values []string) map[string]string {
	if len(names) == 0 {
		return nil
	}
	m := make(map[string]string, len(names))
	for i, n := range names {
		m[n] = values[i]
	}
	return m
}
