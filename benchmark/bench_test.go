package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"testing"
)

// Everything here runs the -quick size: small data, two short rounds.

func quickPass(t *testing.T, sp spec, sc *script, traced bool) *passResult {
	t.Helper()
	r, err := runPass(sp, sc, passCfg{syncReps: 1, traced: traced, perOp: traced, tmp: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if r.failed != 0 {
		t.Fatalf("%s: %d of %d ops failed: %v", sp.name, r.failed, r.attempted, r.failures)
	}
	return r
}

func TestScriptFollowsSeed(t *testing.T) {
	for _, sp := range workloads {
		sp = sp.quick()
		a, b, c := generate(sp, 7), generate(sp, 7), generate(sp, 8)
		if a.digest != b.digest {
			t.Errorf("%s: same seed, digests %s and %s", sp.name, a.digest, b.digest)
		}
		if a.digest == c.digest {
			t.Errorf("%s: seeds 7 and 8 gave the same script", sp.name)
		}
		// What is written is the workload's, not the seed's.
		if a.userBytes != c.userBytes || !bytes.Equal(a.arena, c.arena) {
			t.Errorf("%s: seeds 7 and 8 write different bytes", sp.name)
		}
	}
	// tcp-remote minus embed-warm is the edge's cost only if the two replay
	// the same script.
	warm, _ := findSpec("embed-warm")
	tcp, _ := findSpec("tcp-remote")
	if a, b := generate(warm, 7), generate(tcp, 7); a.digest != b.digest {
		t.Errorf("embed-warm and tcp-remote replay different scripts: %s and %s", a.digest, b.digest)
	}
}

// A fixed script leaves the same counters behind every time it is replayed,
// and the tracing wrappers do not change them: a wrapper that hid a store
// capability (the verified index, say) would show up here as extra hashing.
func TestReplayRepeatsExactly(t *testing.T) {
	for _, sp := range workloads {
		sp = sp.quick()
		sc := generate(sp, 3)
		first, again, traced := quickPass(t, sp, sc, false), quickPass(t, sp, sc, false), quickPass(t, sp, sc, true)
		if first.counters != again.counters {
			t.Errorf("%s: two replays differ:\n %+v\n %+v", sp.name, first.counters, again.counters)
		}
		if first.counters != traced.counters {
			t.Errorf("%s: traced replay differs:\n %+v\n %+v", sp.name, first.counters, traced.counters)
		}
		for _, layer := range []string{"core", "store"} {
			if traced.t.byLayer[layer] == 0 {
				t.Errorf("%s: traced replay has no %s spans", sp.name, layer)
			}
		}
	}
}

// BENCHMARK.json and the binary must name the same workloads and metrics,
// with the same units and directions, and a run must emit all of them.
func TestBenchmarkFileMatches(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type decl struct{ Name, Unit, Better string }
	var bf struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []decl `json:"end_to_end"`
		PerLayer  []decl `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the binary %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range bf.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: %q (%s) in BENCHMARK.json, %q (%s) in the binary", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	for trace, pair := range []struct {
		file []decl
		code []metricDef
	}{{bf.EndToEnd, endToEnd}, {bf.PerLayer, perLayer}} {
		if len(pair.file) != len(pair.code) {
			t.Fatalf("trace %d: %d metrics in BENCHMARK.json, %d in the binary", trace, len(pair.file), len(pair.code))
		}
		rep, err := runOnce(options{workload: "embed-warm", seed: 1, seconds: refSeconds, trace: trace, quick: true, root: t.TempDir()})
		if err != nil {
			t.Fatal(err)
		}
		if rep.OpsFailed != 0 {
			t.Fatalf("trace %d: %d ops failed: %v", trace, rep.OpsFailed, rep.Failures)
		}
		if len(rep.Metrics) != len(pair.code) {
			t.Errorf("trace %d: run emitted %d metrics, want %d", trace, len(rep.Metrics), len(pair.code))
		}
		for i, d := range pair.code {
			if f := pair.file[i]; f.Name != d.name || f.Unit != d.unit || f.Better != d.better {
				t.Errorf("metric %d: %+v in BENCHMARK.json, %+v in the binary", i, f, d)
			}
			if !name.MatchString(d.name) {
				t.Errorf("metric name %q is not [A-Za-z0-9_.-]+", d.name)
			}
			if m, ok := rep.Metrics[d.name]; !ok || m.Unit != d.unit {
				t.Errorf("trace %d: run emitted %q as %+v", trace, d.name, m)
			}
		}
	}
}
