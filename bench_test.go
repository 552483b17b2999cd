// Benchmarks regenerating every table and figure of the paper's evaluation
// (Table I, Figs 2–6) plus the ablations A1–A3.  Run:
//
//	go test -bench=. -benchmem
//
// Each benchmark reports the headline quantity of its experiment as custom
// metrics, so `go test -bench` output doubles as the reproduction record
// (cmd/bench prints the same experiments as tables).
package forkbase_test

import (
	"fmt"
	"testing"

	"forkbase"
	"forkbase/internal/experiments"
)

// BenchmarkTable1Comparison reproduces Table I: the same versioned-table
// workload committed to ForkBase and each baseline storage model.
func BenchmarkTable1Comparison(b *testing.B) {
	cfg := experiments.Table1Config{Rows: 5000, Versions: 10, Churn: 10}
	for i := 0; i < b.N; i++ {
		rows, err := experiments.RunTable1(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			var fb, fc int64
			for _, r := range rows {
				switch r.System {
				case "ForkBase":
					fb = r.StorageBytes
				case "full-copy":
					fc = r.StorageBytes
				}
			}
			b.ReportMetric(float64(fb), "forkbase-bytes")
			b.ReportMetric(float64(fc)/float64(fb), "savings-x")
		}
	}
}

// BenchmarkFig2TreeShape reproduces Fig 2: POS-Tree structure across sizes.
func BenchmarkFig2TreeShape(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.RunFig2([]int{1000, 10000, 100000})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			last := rows[len(rows)-1]
			b.ReportMetric(float64(last.Height), "height@100k")
			b.ReportMetric(last.AvgLeaf, "avg-leaf-bytes")
		}
	}
}

// BenchmarkFig3MergeReuse reproduces Fig 3: three-way merge reusing
// disjointly modified sub-trees.
func BenchmarkFig3MergeReuse(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFig3(50000, 500)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(100*res.ReuseFraction, "reuse-%")
		}
	}
}

// BenchmarkFig4Dedup reproduces Fig 4: loading two CSVs with a single-word
// difference; the second load must cost almost nothing.
func BenchmarkFig4Dedup(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFig4(4000)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(res.Rows[0].FirstLoadKB, "first-load-KB")
			b.ReportMetric(res.Rows[0].SecondLoadKB, "second-load-KB@4k")
			b.ReportMetric(res.Rows[len(res.Rows)-1].SecondLoadKB, "second-load-KB@64B")
		}
	}
}

// BenchmarkFig5DiffQuery reproduces Fig 5: differential query via POS-Tree
// diff versus an element-wise scan.
func BenchmarkFig5DiffQuery(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.RunFig5([]int{100000}, 10)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(rows[0].Speedup, "speedup-x")
			b.ReportMetric(float64(rows[0].TouchedChunks), "touched-pages")
		}
	}
}

// BenchmarkFig6TamperValidate reproduces Fig 6: uid-based validation
// detecting every single-bit corruption of the reachable graph.
func BenchmarkFig6TamperValidate(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFig6(3, 500)
		if err != nil {
			b.Fatal(err)
		}
		if res.DetectionRate != 1.0 {
			b.Fatalf("detection rate %.3f != 1.0", res.DetectionRate)
		}
		if i == 0 {
			b.ReportMetric(100*res.DetectionRate, "detection-%")
			b.ReportMetric(float64(res.CleanVerifyNano)/1e6, "verify-ms")
		}
	}
}

// BenchmarkAblationSIRI contrasts POS-Tree and B+-tree page sharing (A1).
func BenchmarkAblationSIRI(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunA1(20000, 5)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(100*res.POSVersionShare, "pos-share-%")
			b.ReportMetric(100*res.BPOrderShare, "bptree-share-%")
		}
	}
}

// BenchmarkAblationIncremental contrasts incremental edits with rebuilds (A2).
func BenchmarkAblationIncremental(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.RunA2(50000, []int{1, 100})
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if !r.Identical {
				b.Fatal("incremental != rebuild")
			}
		}
		if i == 0 {
			b.ReportMetric(rows[0].Speedup, "speedup@1-x")
		}
	}
}

// BenchmarkAblationChunkSize sweeps the pattern width q (A3).
func BenchmarkAblationChunkSize(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.RunA3(20000, []uint{8, 12})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(rows[0].SecondCopyPct, "growth-q8-%")
			b.ReportMetric(rows[1].SecondCopyPct, "growth-q12-%")
		}
	}
}

// --- micro-benchmarks on the public API --------------------------------------

func BenchmarkEnginePut(b *testing.B) {
	db := forkbase.MustOpen()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.PutString("bench-key", "", fmt.Sprintf("value-%d", i), nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEngineGet(b *testing.B) {
	db := forkbase.MustOpen()
	if _, err := db.PutString("bench-key", "", "value", nil); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Get("bench-key", ""); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMapUpdate100k(b *testing.B) {
	db := forkbase.MustOpen()
	entries := make([]forkbase.Entry, 100000)
	for i := range entries {
		entries[i] = forkbase.Entry{
			Key: []byte(fmt.Sprintf("row-%08d", i)),
			Val: []byte(fmt.Sprintf("value-%d", i)),
		}
	}
	if _, err := db.PutMap("big", "", entries, nil); err != nil {
		b.Fatal(err)
	}
	ver, err := db.Get("big", "")
	if err != nil {
		b.Fatal(err)
	}
	tree, err := ver.Value.MapTree(db.Store(), db.Chunking())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		idx := (i * 131) % len(entries)
		if _, err := tree.Insert([]byte(fmt.Sprintf("row-%08d", idx)), []byte(fmt.Sprintf("upd-%d", i))); err != nil {
			b.Fatal(err)
		}
	}
}
