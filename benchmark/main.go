// Command benchmark is the repository's one benchmark: it builds a
// workload's data, replays a fixed, seed-generated op script through the
// workload's own edge, checks every result against a shadow model and prints
// every metric by name.  See README.md in this directory.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

type metricOut struct {
	Value   float64   `json:"value"`
	Unit    string    `json:"unit"`
	Samples []float64 `json:"samples,omitempty"` // the same figure from each pass on its own
}

// report is everything one run found; report-<workload>.json holds it and
// the last line of standard output is its short form.
type report struct {
	Workload string         `json:"workload"`
	Seed     int64          `json:"seed"`
	Seconds  int            `json:"seconds"`
	Traced   bool           `json:"traced"`
	Digest   string         `json:"script_digest"`
	Host     map[string]any `json:"host"`

	OpsAttempted int      `json:"ops_attempted"`
	OpsFailed    int      `json:"ops_failed"`
	Failures     []string `json:"failures,omitempty"`

	Metrics  map[string]metricOut `json:"metrics"`
	Counters counters             `json:"counters"`
	// CalibMBs is the fixed SHA-256 loop timed before each round of each
	// pass: a stretch the host disturbed stands out here.
	CalibMBs []float64 `json:"host_calib_mb_s"`
	// MeasuredS is, per pass, the time spent inside the measured rounds.
	MeasuredS []float64 `json:"measured_s"`
}

func hostContext() map[string]any {
	return map[string]any{"num_cpu": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0), "go_version": runtime.Version()}
}

// endToEndOf reduces a pass to the nine end-to-end metrics.  Given the fold
// of a run's passes it yields the run's figures; given one pass, what that
// pass alone would have reported.
func endToEndOf(r *passResult) map[string]float64 {
	var ops, verifyBytes float64
	var elapsed, verifying time.Duration
	for i := range r.rounds {
		rs := &r.rounds[i]
		ops += float64(rs.ops)
		elapsed += rs.elapsed()
		verifying += rs.busy(opVerify)
		verifyBytes += rs.verifyBytes
	}
	return map[string]float64{
		"setup_s":       lowest(r.setupS),
		"ops_s":         div(ops, elapsed.Seconds()),
		"get_p50_us":    median(r.samples(opGet)),
		"commit_p50_us": median(r.samples(opCommit)),
		"diff_p50_us":   median(r.samples(opDiff)),
		"merge_p50_us":  median(r.samples(opMerge)),
		"verify_mb_s":   div(verifyBytes/1e6, verifying.Seconds()),
		"sync_mb_s":     highest(r.syncMBs),
		"space_amp":     div(float64(r.counters.PhysicalBytes), float64(r.counters.UserBytes)),
	}
}

// endToEndMetrics is the run's end-to-end report: each value from the fold
// of the passes, with what every single pass would have said beside it.
func endToEndMetrics(best *passResult) map[string]metricOut {
	out := map[string]metricOut{}
	value := endToEndOf(best)
	for _, d := range endToEnd {
		m := metricOut{Value: value[d.name], Unit: d.unit}
		for _, one := range best.single {
			m.Samples = append(m.Samples, one[d.name])
		}
		out[d.name] = m
	}
	return out
}

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    int
	quick    bool
	root     string
}

func (o options) outDir() string { return filepath.Join(o.root, "benchmark", "out") }

// runOnce is one benchmark run: untraced for the end-to-end metrics, or the
// untraced-then-traced pair for the per-layer ones.
func runOnce(o options) (*report, error) {
	sp, err := findSpec(o.workload)
	if err != nil {
		return nil, err
	}
	sp = sp.scaled(float64(o.seconds) / refSeconds)
	if o.quick {
		sp = sp.quick()
	}
	if err := os.MkdirAll(o.outDir(), 0o755); err != nil {
		return nil, err
	}
	rep := &report{Workload: sp.name, Seed: o.seed, Seconds: o.seconds, Traced: o.trace != 0, Host: hostContext()}

	sc := generate(sp, o.seed)
	if o.trace == 0 {
		best, err := runPasses(sp, sc, passCfg{syncReps: sp.syncReps, plays: sp.plays, tmp: o.outDir()}, sp.passes)
		if err != nil {
			return nil, err
		}
		rep.fill(sc, best)
		rep.Metrics = endToEndMetrics(best)
		return rep, nil
	}

	// Traced: the same script twice, wrappers off then on, one pass each;
	// batched ops are timed one by one in both so the untraced half also
	// yields the edge percentiles.
	cfg := passCfg{syncReps: sp.syncReps, perOp: true, tmp: o.outDir()}
	un, err := runPass(sp, sc, cfg)
	if err != nil {
		return nil, err
	}
	cfg.traced = true
	tr, err := runPass(sp, sc, cfg)
	if err != nil {
		return nil, err
	}
	rep.fill(sc, un)
	rep.OpsAttempted += tr.attempted + 1
	rep.OpsFailed += tr.failed
	rep.Failures = append(rep.Failures, tr.failures...)
	// The wrappers must not change what the program does: a fixed script
	// leaves the same counters behind traced or not.
	if un.counters != tr.counters {
		rep.OpsFailed++
		rep.Failures = append(rep.Failures, fmt.Sprintf("traced counters %+v differ from untraced %+v", tr.counters, un.counters))
	}
	rep.Metrics = map[string]metricOut{}
	lm := layerMetrics(sp, sc, un, tr)
	for _, d := range perLayer {
		rep.Metrics[d.name] = metricOut{Value: lm[d.name], Unit: d.unit}
	}
	if err := tr.t.write(filepath.Join(o.outDir(), "trace-"+sp.name+".json"), sp.name, o.seed); err != nil {
		return nil, err
	}
	return rep, nil
}

func (rep *report) fill(sc *script, r *passResult) {
	rep.Digest = sc.digest
	rep.OpsAttempted, rep.OpsFailed, rep.Failures = r.attempted, r.failed, r.failures
	rep.Counters = r.counters
	rep.CalibMBs, rep.MeasuredS = r.calibMBs, r.measuredS
}

// print writes the readable report, then — as the last line — the short
// JSON form the driver reads.
func (rep *report) print() {
	fmt.Printf("workload %s seed %d seconds %d traced %v script %s\n", rep.Workload, rep.Seed, rep.Seconds, rep.Traced, rep.Digest[:16])
	fmt.Printf("host num_cpu=%v gomaxprocs=%v go_version=%v\n", rep.Host["num_cpu"], rep.Host["gomaxprocs"], rep.Host["go_version"])
	names := make([]string, 0, len(rep.Metrics))
	for n := range rep.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := rep.Metrics[n]
		line := fmt.Sprintf("%-38s %14.4f %-6s", n, m.Value, m.Unit)
		if len(m.Samples) > 1 {
			parts := make([]string, len(m.Samples))
			for i, s := range m.Samples {
				parts[i] = fmt.Sprintf("%.4g", s)
			}
			line += " [" + strings.Join(parts, " ") + "]"
		}
		fmt.Println(line)
	}
	fmt.Printf("host.calib_mb_s before each round %.0f\n", rep.CalibMBs)
	fmt.Printf("measured seconds per pass %.2f\n", rep.MeasuredS)
	fmt.Printf("counters %+v\n", rep.Counters)
	fmt.Printf("ops_attempted %d ops_failed %d\n", rep.OpsAttempted, rep.OpsFailed)
	for _, f := range rep.Failures {
		fmt.Println("FAILED:", f)
	}
	short := map[string]any{"correct": rep.OpsFailed == 0, "attempted": rep.OpsAttempted, "failed": rep.OpsFailed}
	metrics := map[string]any{}
	for n, m := range rep.Metrics {
		metrics[n] = map[string]any{"value": m.Value, "unit": m.Unit}
	}
	short["metrics"] = metrics
	line, _ := json.Marshal(short)
	fmt.Println(string(line))
}

func (rep *report) write(dir string) error {
	name := "report-" + rep.Workload
	if rep.Traced {
		name += "-trace"
	}
	data, err := json.MarshalIndent(rep, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, name+".json"), data, 0o644)
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "workload to run: embed-warm, embed-cold-scatter, tcp-remote or rest-collab")
	flag.Int64Var(&o.seed, "seed", 1, "seed the op script is generated from")
	flag.IntVar(&o.seconds, "seconds", refSeconds, "scales the fixed per-round op counts (sized for 20); never a time box")
	flag.IntVar(&o.trace, "trace", 0, "1 replays the script untraced and traced and reports the per-layer metrics")
	flag.BoolVar(&o.quick, "quick", false, "test size: small data, two short rounds")
	flag.StringVar(&o.root, "root", ".", "checkout root (holds BENCHMARK.json and benchmark/)")
	aa := flag.Bool("aa", false, "A/A calibration: run interleaved sets of this same binary and compare them")
	sets := flag.Int("sets", 2, "A/A sets")
	runs := flag.Int("runs", 5, "A/A runs per set and workload")
	flag.Parse()
	if _, err := os.Stat(filepath.Join(o.root, "BENCHMARK.json")); err != nil && o.root == "." {
		// Started from this directory rather than the checkout root.
		if _, err := os.Stat(filepath.Join("..", "BENCHMARK.json")); err == nil {
			o.root = ".."
		}
	}

	// One client in a closed loop keeps one core busy.  With a second P the
	// hand-offs between the client's goroutines and the in-process server's
	// (HTTP: five per request) cross vCPUs, and how long the other vCPU takes
	// to wake is the host's business: a REST GET of 33 µs read 42 µs with it,
	// and spread twice as far from run to run (README.md, Noise).  All Go code
	// of a run therefore shares one P, whatever GOMAXPROCS says outside.
	runtime.GOMAXPROCS(1)

	// The collector runs only where the harness calls it, between timed
	// units (see pass.collect); this also keeps a GOGC in the environment
	// from making two sets differ.
	debug.SetGCPercent(-1)

	if *aa {
		os.Exit(runAA(o, *sets, *runs))
	}
	rep, err := runOnce(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(2)
	}
	if err := rep.write(o.outDir()); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(2)
	}
	rep.print()
	if rep.OpsFailed > 0 {
		os.Exit(1)
	}
}
