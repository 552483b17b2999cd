// Command bench regenerates the tables and figures of the ForkBase ICDE'20
// demonstration paper, plus three ablations.  Timing lives in benchmark/
// (see BENCHMARK.json); correctness gates live in the package tests.
//
//	bench                   run everything (-exp all)
//	bench -exp fig4         one experiment; `bench -h` lists the names
//	bench -quick            smaller workloads (CI-sized)
//
// An unknown experiment name exits 2.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"forkbase/internal/experiments"
)

// experiment is one paper reproduction: it runs at full or quick size and
// prints its table to out.
type experiment struct {
	name string
	run  func(out io.Writer, quick bool) error
}

// registry is the ordered table `-exp` dispatches on; `all` runs it top to
// bottom.
var registry = []experiment{
	// Table I comparison
	{"table1", func(out io.Writer, quick bool) error {
		cfg := experiments.DefaultTable1()
		if quick {
			cfg = experiments.Table1Config{Rows: 2000, Versions: 5, Churn: 5}
		}
		rows, err := experiments.RunTable1(cfg)
		if err != nil {
			return err
		}
		experiments.PrintTable1(out, rows, cfg)
		return nil
	}},
	// POS-Tree structure
	{"fig2", func(out io.Writer, quick bool) error {
		sizes := []int{1000, 10000, 100000, 1000000}
		if quick {
			sizes = []int{1000, 10000, 50000}
		}
		rows, err := experiments.RunFig2(sizes)
		if err != nil {
			return err
		}
		experiments.PrintFig2(out, rows)
		return nil
	}},
	// Merge sub-tree reuse
	{"fig3", func(out io.Writer, quick bool) error {
		n, edits := 100000, 1000
		if quick {
			n, edits = 20000, 200
		}
		res, err := experiments.RunFig3(n, edits)
		if err != nil {
			return err
		}
		experiments.PrintFig3(out, res)
		return nil
	}},
	// CSV deduplication
	{"fig4", func(out io.Writer, quick bool) error {
		rows := 4000 // ~340 KB of CSV, matching the demo's dataset size
		if quick {
			rows = 1000
		}
		res, err := experiments.RunFig4(rows)
		if err != nil {
			return err
		}
		experiments.PrintFig4(out, res)
		return nil
	}},
	// Differential query
	{"fig5", func(out io.Writer, quick bool) error {
		sizes := []int{1000, 10000, 100000, 500000}
		if quick {
			sizes = []int{1000, 10000, 50000}
		}
		rows, err := experiments.RunFig5(sizes, 10)
		if err != nil {
			return err
		}
		experiments.PrintFig5(out, rows)
		return nil
	}},
	// Tamper evidence
	{"fig6", func(out io.Writer, quick bool) error {
		versions, rows := 5, 2000
		if quick {
			versions, rows = 3, 300
		}
		res, err := experiments.RunFig6(versions, rows)
		if err != nil {
			return err
		}
		experiments.PrintFig6(out, res)
		return nil
	}},
	// Ablation: POS-Tree vs B+-tree page sharing
	{"a1", func(out io.Writer, quick bool) error {
		entries, versions := 50000, 10
		if quick {
			entries, versions = 10000, 5
		}
		res, err := experiments.RunA1(entries, versions)
		if err != nil {
			return err
		}
		experiments.PrintA1(out, res)
		return nil
	}},
	// Ablation: incremental edit vs full rebuild
	{"a2", func(out io.Writer, quick bool) error {
		entries := 100000
		batches := []int{1, 10, 100, 1000, 10000}
		if quick {
			entries = 20000
			batches = []int{1, 10, 100, 1000}
		}
		rows, err := experiments.RunA2(entries, batches)
		if err != nil {
			return err
		}
		experiments.PrintA2(out, rows)
		return nil
	}},
	// Ablation: chunk-size (q) sweep
	{"a3", func(out io.Writer, quick bool) error {
		entries := 50000
		qs := []uint{8, 10, 12, 14}
		if quick {
			entries = 10000
		}
		rows, err := experiments.RunA3(entries, qs)
		if err != nil {
			return err
		}
		experiments.PrintA3(out, rows, entries)
		return nil
	}},
}

// expNames is "all" followed by every registered name, in table order.
func expNames() []string {
	names := []string{"all"}
	for _, e := range registry {
		names = append(names, e.name)
	}
	return names
}

// run parses args, dispatches on `-exp` and returns the process exit code:
// 0 on success, 1 when an experiment fails, 2 on a bad flag or an unknown
// experiment name.  Results go to out, diagnostics to stderr.
func run(args []string, out io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	exp := fs.String("exp", "all", "experiment: "+strings.Join(expNames(), "|"))
	quick := fs.Bool("quick", false, "smaller workloads")
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 2
	}
	ran := false
	for _, e := range registry {
		if *exp != "all" && *exp != e.name {
			continue
		}
		ran = true
		if err := e.run(out, *quick); err != nil {
			fmt.Fprintf(os.Stderr, "bench %s: %v\n", e.name, err)
			return 1
		}
		fmt.Fprintln(out)
	}
	if !ran {
		fmt.Fprintf(os.Stderr, "bench: unknown experiment %q; valid: %s\n", *exp, strings.Join(expNames(), ", "))
		return 2
	}
	return 0
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}
