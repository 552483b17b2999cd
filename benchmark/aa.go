package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
)

// A/A calibration: the same binary run as `sets` interleaved sets of `runs`
// runs per workload (run i of every set uses seed i).  Whatever the sets
// disagree by is noise, and the bounds in BENCHMARK.json have to stand
// above it.

type benchmarkFile struct {
	EndToEnd []struct {
		Name  string  `json:"name"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
}

type aaRow struct {
	Workload string    `json:"workload"`
	Metric   string    `json:"metric"`
	Unit     string    `json:"unit"`
	Medians  []float64 `json:"set_medians"`
	Spreads  []float64 `json:"set_iqr_share"`
	Gap      float64   `json:"gap"` // the later set's median worse than the first's, as a share of it
	Bound    float64   `json:"bound"`
	OK       bool      `json:"ok"`
}

type aaDoc struct {
	Host       map[string]any `json:"host"`
	Sets       int            `json:"sets"`
	Runs       int            `json:"runs"`
	Seconds    int            `json:"seconds"`
	Rows       []aaRow        `json:"rows"`
	CountersOK bool           `json:"counters_identical_per_seed"`
	OK         bool           `json:"ok"`
}

// child runs one workload once in a fresh process and returns its report.
func child(o options, workload string, seed int) (*report, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(self, "-root", o.root, "-workload", workload, "-seed", strconv.Itoa(seed), "-seconds", strconv.Itoa(o.seconds), "-trace", "0")
	if o.quick {
		cmd.Args = append(cmd.Args, "-quick")
	}
	var stdout bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%s seed %d: %w", workload, seed, err)
	}
	data, err := os.ReadFile(filepath.Join(o.outDir(), "report-"+workload+".json"))
	if err != nil {
		return nil, err
	}
	var rep report
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil, err
	}
	// The last line is what the driver reads; it must parse and agree.
	var last string
	for sc := bufio.NewScanner(&stdout); sc.Scan(); {
		last = sc.Text()
	}
	var short struct {
		Correct bool `json:"correct"`
	}
	if err := json.Unmarshal([]byte(last), &short); err != nil || !short.Correct {
		return nil, fmt.Errorf("%s seed %d: last line %q", workload, seed, last)
	}
	return &rep, nil
}

func runAA(o options, sets, runs int) int {
	var bf benchmarkFile
	if data, err := os.ReadFile(filepath.Join(o.root, "BENCHMARK.json")); err == nil {
		_ = json.Unmarshal(data, &bf)
	}
	bounds := map[string]float64{}
	for _, m := range bf.EndToEnd {
		bounds[m.Name] = m.Bound
	}
	// values[workload][metric][set] = one value per run
	values := map[string]map[string][][]float64{}
	doc := aaDoc{Host: hostContext(), Sets: sets, Runs: runs, Seconds: o.seconds, CountersOK: true}
	for run := 1; run <= runs; run++ {
		for _, sp := range workloads {
			var first *report
			for set := 0; set < sets; set++ {
				rep, err := child(o, sp.name, run)
				if err != nil {
					fmt.Fprintln(os.Stderr, "benchmark -aa:", err)
					return 2
				}
				fmt.Fprintf(os.Stderr, "run %d set %d %-20s ops_s %.0f setup_s %.3f\n", run, set, sp.name, rep.Metrics["ops_s"].Value, rep.Metrics["setup_s"].Value)
				if first == nil {
					first = rep
				} else if rep.Counters != first.Counters || rep.Digest != first.Digest {
					fmt.Fprintf(os.Stderr, "%s seed %d: counters differ between sets:\n %+v\n %+v\n", sp.name, run, first.Counters, rep.Counters)
					doc.CountersOK = false
				}
				if values[sp.name] == nil {
					values[sp.name] = map[string][][]float64{}
				}
				for name, m := range rep.Metrics {
					if values[sp.name][name] == nil {
						values[sp.name][name] = make([][]float64, sets)
					}
					values[sp.name][name][set] = append(values[sp.name][name][set], m.Value)
				}
			}
		}
	}
	doc.OK = doc.CountersOK
	fmt.Printf("%-20s %-14s %12s %12s %8s %8s %8s %6s\n", "workload", "metric", "median A", "median B", "gap", "iqr A", "iqr B", "bound")
	for _, sp := range workloads {
		for _, d := range endToEnd {
			row := aaRow{Workload: sp.name, Metric: d.name, Unit: d.unit, Bound: bounds[d.name], OK: true}
			for _, vs := range values[sp.name][d.name] {
				row.Medians = append(row.Medians, median(vs))
				row.Spreads = append(row.Spreads, iqrShare(vs))
			}
			// Worst disagreement of any later set with the first, in the
			// metric's bad direction.
			for _, m := range row.Medians[1:] {
				gap := (m - row.Medians[0]) / math.Abs(row.Medians[0])
				if d.better == "higher" {
					gap = -gap
				}
				if gap > row.Gap {
					row.Gap = gap
				}
			}
			if row.Bound > 0 && row.Gap > row.Bound {
				row.OK, doc.OK = false, false
			}
			doc.Rows = append(doc.Rows, row)
			last := len(row.Medians) - 1
			fmt.Printf("%-20s %-14s %12.4f %12.4f %7.2f%% %7.2f%% %7.2f%% %5.1f%%\n", row.Workload, row.Metric,
				row.Medians[0], row.Medians[last], 100*row.Gap, 100*row.Spreads[0], 100*row.Spreads[last], 100*row.Bound)
		}
	}
	data, _ := json.MarshalIndent(doc, "", " ")
	path := filepath.Join(o.root, "benchmark", "AA.json")
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark -aa:", err)
		return 2
	}
	fmt.Printf("counters identical per seed: %v; all gaps within bounds: %v; wrote %s\n", doc.CountersOK, doc.OK, path)
	if !doc.OK {
		return 1
	}
	return 0
}
