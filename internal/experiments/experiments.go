// Package experiments implements the reproduction harness: one function per
// table/figure of the ICDE'20 ForkBase demonstration paper, plus the
// ablations from DESIGN.md.  cmd/bench prints them as report tables;
// bench_test.go wraps them as Go benchmarks.
package experiments

import (
	"bytes"
	"fmt"
	"io"
	"time"

	"forkbase/internal/baseline"
	"forkbase/internal/chunker"
	"forkbase/internal/core"
	"forkbase/internal/dataset"
	"forkbase/internal/hash"
	"forkbase/internal/index"
	"forkbase/internal/pos"
	"forkbase/internal/store"
	"forkbase/internal/value"
	"forkbase/internal/workload"
)

// newDB builds a fresh in-memory engine with default (4 KiB page) chunking.
func newDB() (*core.DB, *store.MemStore) {
	ms := store.NewMemStore()
	return core.Open(core.Options{Store: ms}), ms
}

// rowsToMap converts dataset rows into the map[string][]byte shape the
// baselines consume, using the same row encoding ForkBase stores, so byte
// counts are directly comparable.
func rowsToMap(schema dataset.Schema, rows []dataset.Row) map[string][]byte {
	out := make(map[string][]byte, len(rows))
	for _, r := range rows {
		var buf bytes.Buffer
		for i, c := range r {
			if i > 0 {
				buf.WriteByte(',')
			}
			buf.WriteString(c)
		}
		out[r[schema.KeyColumn]] = append([]byte(nil), buf.Bytes()...)
	}
	return out
}

// ---------------------------------------------------------------------------
// Table I — comparison with related data versioning systems
// ---------------------------------------------------------------------------

// Table1Row is one system's measured behaviour on the shared workload.
type Table1Row struct {
	System        string
	DataModel     string
	Dedup         string
	TamperEvident bool
	Branching     string
	StorageBytes  int64
	ReadLastNanos int64 // latency to materialise the newest version
	ReadV0Nanos   int64 // latency to materialise the oldest version
}

// Table1Config parameterises the workload.
type Table1Config struct {
	Rows     int // table size
	Versions int // versions committed
	Churn    int // rows modified per version
}

// DefaultTable1 is the workload used in EXPERIMENTS.md.
func DefaultTable1() Table1Config { return Table1Config{Rows: 20000, Versions: 20, Churn: 20} }

// RunTable1 commits the same evolving table into ForkBase and each baseline
// and measures storage plus version-read latency.
func RunTable1(cfg Table1Config) ([]Table1Row, error) {
	schema, rows := workload.GenerateTable(workload.CSVSpec{Rows: cfg.Rows, Columns: 4, Seed: 1})

	// Pre-generate every version so all systems see identical data.
	versions := make([][]dataset.Row, cfg.Versions)
	versions[0] = rows
	for v := 1; v < cfg.Versions; v++ {
		versions[v] = workload.MutateRows(schema, versions[v-1], cfg.Churn, 0, 0, int64(v))
	}

	var out []Table1Row

	// ForkBase.
	db, ms := newDB()
	var firstUID, lastUID core.Version
	for v, rws := range versions {
		ds, err := commitDataset(db, schema, rws)
		if err != nil {
			return nil, err
		}
		if v == 0 {
			firstUID = ds.Version()
		}
		lastUID = ds.Version()
	}
	readLast := timeIt(func() {
		ds, _ := dataset.OpenVersion(db, "table1", lastUID)
		ds.Scan(func(dataset.Row) bool { return true })
	})
	readFirst := timeIt(func() {
		ds, _ := dataset.OpenVersion(db, "table1", firstUID)
		ds.Scan(func(dataset.Row) bool { return true })
	})
	out = append(out, Table1Row{
		System:        "ForkBase",
		DataModel:     "structured/unstructured, immutable",
		Dedup:         "page level (POS-Tree)",
		TamperEvident: true,
		Branching:     "Git-like",
		StorageBytes:  ms.Stats().PhysicalBytes,
		ReadLastNanos: readLast,
		ReadV0Nanos:   readFirst,
	})

	// Baselines.
	type namedStore struct {
		vs        baseline.VersionedStore
		dataModel string
		dedup     string
		branching string
	}
	for _, b := range []namedStore{
		{baseline.NewFullCopy(), "structured (table), mutable", "none (full copies)", "ad-hoc"},
		{baseline.NewGitFile(), "unstructured file", "file level", "Git-like"},
		{baseline.NewDeltaChain(), "structured (table), mutable", "table-oriented deltas", "ad-hoc"},
	} {
		var lastV, firstV int
		for v, rws := range versions {
			idx := b.vs.Commit(rowsToMap(schema, rws))
			if v == 0 {
				firstV = idx
			}
			lastV = idx
		}
		readLast := timeIt(func() { b.vs.Read(lastV) })
		readFirst := timeIt(func() { b.vs.Read(firstV) })
		out = append(out, Table1Row{
			System:        b.vs.Name(),
			DataModel:     b.dataModel,
			Dedup:         b.dedup,
			TamperEvident: false,
			Branching:     b.branching,
			StorageBytes:  b.vs.StorageBytes(),
			ReadLastNanos: readLast,
			ReadV0Nanos:   readFirst,
		})
	}
	return out, nil
}

func commitDataset(db *core.DB, schema dataset.Schema, rows []dataset.Row) (*dataset.Dataset, error) {
	if db.Exists("table1") {
		ds, err := dataset.Open(db, "table1", core.DefaultBranch)
		if err != nil {
			return nil, err
		}
		return ds.UpdateRows(rows, nil, nil)
	}
	return dataset.Create(db, "table1", "", schema, rows, nil)
}

func timeIt(fn func()) int64 {
	start := time.Now()
	fn()
	return time.Since(start).Nanoseconds()
}

// timeBest3 measures fn three times and keeps the fastest run: single-shot
// timings of millisecond-scale operations are at the mercy of scheduler
// noise, which made direction-asserting tests flaky.
func timeBest3(fn func()) int64 {
	best := timeIt(fn)
	for i := 0; i < 2; i++ {
		if n := timeIt(fn); n < best {
			best = n
		}
	}
	return best
}

// PrintTable1 renders the rows like the paper's Table I plus measurements.
func PrintTable1(w io.Writer, rows []Table1Row, cfg Table1Config) {
	fmt.Fprintf(w, "TABLE I — comparison on %d rows × %d versions (%d rows churned/version)\n\n",
		cfg.Rows, cfg.Versions, cfg.Churn)
	fmt.Fprintf(w, "%-12s %-36s %-24s %-8s %-10s %14s %12s %12s\n",
		"System", "Data Model", "Deduplication", "Tamper", "Branching", "Storage(B)", "ReadLast", "ReadV0")
	for _, r := range rows {
		tamper := "none"
		if r.TamperEvident {
			tamper = "Merkle"
		}
		fmt.Fprintf(w, "%-12s %-36s %-24s %-8s %-10s %14d %10.2fms %10.2fms\n",
			r.System, r.DataModel, r.Dedup, tamper, r.Branching, r.StorageBytes,
			float64(r.ReadLastNanos)/1e6, float64(r.ReadV0Nanos)/1e6)
	}
}

// ---------------------------------------------------------------------------
// Fig 2 — POS-Tree structure
// ---------------------------------------------------------------------------

// Fig2Row reports tree shape for one size.
type Fig2Row struct {
	Entries    int
	Height     int
	Nodes      int
	AvgLeaf    float64
	AvgFanout  float64
	MaxNode    int
	TargetLeaf int // 2^Q from the chunking config
}

// RunFig2 builds map POS-Trees across sizes and reports their shape: the
// probabilistic balance and ~2^Q node sizing illustrated by the paper's
// Fig 2 diagram.
func RunFig2(sizes []int) ([]Fig2Row, error) {
	var out []Fig2Row
	for _, n := range sizes {
		ms := store.NewMemStore()
		cfg := chunker.DefaultConfig()
		entries := make([]pos.Entry, n)
		for i := range entries {
			entries[i] = pos.Entry{
				Key: []byte(fmt.Sprintf("key-%010d", i)),
				Val: []byte(fmt.Sprintf("value-%d", i*7)),
			}
		}
		tree, err := pos.BuildMap(ms, cfg, entries)
		if err != nil {
			return nil, err
		}
		st, err := tree.ComputeStats()
		if err != nil {
			return nil, err
		}
		out = append(out, Fig2Row{
			Entries:    n,
			Height:     st.Height,
			Nodes:      st.Nodes,
			AvgLeaf:    st.AvgLeaf(),
			AvgFanout:  st.AvgFanout(),
			MaxNode:    st.MaxNode,
			TargetLeaf: 1 << cfg.Q,
		})
	}
	return out, nil
}

// PrintFig2 renders the shape table.
func PrintFig2(w io.Writer, rows []Fig2Row) {
	fmt.Fprintf(w, "FIG 2 — POS-Tree structure (pattern-split Merkle B+-tree)\n\n")
	fmt.Fprintf(w, "%10s %8s %8s %12s %12s %10s %12s\n",
		"entries", "height", "nodes", "avg-leaf(B)", "target(B)", "max-node", "avg-fanout")
	for _, r := range rows {
		fmt.Fprintf(w, "%10d %8d %8d %12.0f %12d %10d %12.1f\n",
			r.Entries, r.Height, r.Nodes, r.AvgLeaf, r.TargetLeaf, r.MaxNode, r.AvgFanout)
	}
}

// ---------------------------------------------------------------------------
// Fig 3 — three-way merge reuses disjointly modified sub-trees
// ---------------------------------------------------------------------------

// Fig3Result quantifies sub-tree reuse in a three-way merge.
type Fig3Result struct {
	BaseEntries   int
	EditedPerSide int
	MergedChunks  int
	ReusedChunks  int
	NewChunks     int
	ReuseFraction float64
	MergeNanos    int64
}

// RunFig3 creates two branches with disjoint edits and measures how much of
// the merged tree is reused versus freshly calculated (paper Fig 3).
func RunFig3(baseEntries, editsPerSide int) (Fig3Result, error) {
	ms := store.NewMemStore()
	cfg := chunker.DefaultConfig()
	entries := make([]pos.Entry, baseEntries)
	for i := range entries {
		entries[i] = pos.Entry{
			Key: []byte(fmt.Sprintf("key-%010d", i)),
			Val: []byte(fmt.Sprintf("base-value-%d", i)),
		}
	}
	base, err := pos.BuildMap(ms, cfg, entries)
	if err != nil {
		return Fig3Result{}, err
	}
	// Side A edits the front region, side B the back region — disjoint.
	opsA := make([]pos.Op, editsPerSide)
	for i := range opsA {
		opsA[i] = pos.Put([]byte(fmt.Sprintf("key-%010d", i)), []byte(fmt.Sprintf("A-edit-%d", i)))
	}
	opsB := make([]pos.Op, editsPerSide)
	for i := range opsB {
		opsB[i] = pos.Put([]byte(fmt.Sprintf("key-%010d", baseEntries-1-i)), []byte(fmt.Sprintf("B-edit-%d", i)))
	}
	a, err := base.Edit(opsA)
	if err != nil {
		return Fig3Result{}, err
	}
	b, err := base.Edit(opsB)
	if err != nil {
		return Fig3Result{}, err
	}
	start := time.Now()
	merged, _, err := index.Merge3(base, a, b, nil)
	if err != nil {
		return Fig3Result{}, err
	}
	elapsed := time.Since(start).Nanoseconds()
	// Reuse is measured over chunk-id sets, outside the timed merge: a chunk
	// of the merged index is reused when base, a or b already had it.
	reused, total, err := sharedChunks(merged, base, a, b)
	if err != nil {
		return Fig3Result{}, err
	}
	r := Fig3Result{
		BaseEntries:   baseEntries,
		EditedPerSide: editsPerSide,
		MergedChunks:  total,
		ReusedChunks:  reused,
		NewChunks:     total - reused,
		MergeNanos:    elapsed,
	}
	if total > 0 {
		r.ReuseFraction = float64(reused) / float64(total)
	}
	return r, nil
}

// PrintFig3 renders the merge-reuse result.
func PrintFig3(w io.Writer, r Fig3Result) {
	fmt.Fprintf(w, "FIG 3 — three-way merge sub-tree reuse\n\n")
	fmt.Fprintf(w, "base entries:    %d\n", r.BaseEntries)
	fmt.Fprintf(w, "edits per side:  %d (disjoint regions)\n", r.EditedPerSide)
	fmt.Fprintf(w, "merged chunks:   %d\n", r.MergedChunks)
	fmt.Fprintf(w, "reused:          %d (%.1f%%)\n", r.ReusedChunks, 100*r.ReuseFraction)
	fmt.Fprintf(w, "calculated:      %d\n", r.NewChunks)
	fmt.Fprintf(w, "merge time:      %.2fms\n", float64(r.MergeNanos)/1e6)
}

// ---------------------------------------------------------------------------
// Fig 4 — fine-grained deduplication on CSV load
// ---------------------------------------------------------------------------

// Fig4Result reproduces the storage-increment numbers of the demo
// ("Loading the first dataset increases 338.54 KB ... the second only
// 0.04 KB") across page-size settings: the second load's cost is bounded
// below by one page plus the changed root path, so smaller pages approach
// the paper's near-zero increment at the price of more metadata.
type Fig4Result struct {
	CSVBytes int64
	Rows     []Fig4Row
}

// Fig4Row is the increment pair for one page-size setting.
type Fig4Row struct {
	Q               uint
	PageTargetBytes int
	FirstLoadBytes  int64
	SecondLoadBytes int64
	FirstLoadKB     float64
	SecondLoadKB    float64
	DedupFactor     float64 // first/second
}

// RunFig4 loads two CSVs differing in a single word as separate datasets
// and reports each load's physical storage increment per page size.
func RunFig4(rows int) (Fig4Result, error) {
	// ~340 KB at rows=4000 to match the demo's dataset scale.
	orig, edited := workload.CSVWithSingleWordEdit(workload.CSVSpec{Rows: rows, Columns: 6, Seed: 2020, CellLen: 8})
	res := Fig4Result{CSVBytes: int64(len(orig))}
	for _, q := range []uint{12, 10, 8, 6} {
		cfg := chunker.Config{Q: q, Window: 48, MinSize: 1 << (q - 3), MaxSize: 1 << (q + 4)}
		ms := store.NewMemStore()
		db := core.Open(core.Options{Store: ms, Chunking: cfg})

		start := ms.Stats().PhysicalBytes
		if _, err := dataset.CreateFromCSV(db, "dataset-1", "", "id", bytes.NewReader(orig), nil); err != nil {
			return Fig4Result{}, err
		}
		afterFirst := ms.Stats().PhysicalBytes
		if _, err := dataset.CreateFromCSV(db, "dataset-2", "", "id", bytes.NewReader(edited), nil); err != nil {
			return Fig4Result{}, err
		}
		first, second := afterFirst-start, ms.Stats().PhysicalBytes-afterFirst
		factor := float64(first)
		if second > 0 {
			factor = float64(first) / float64(second)
		}
		res.Rows = append(res.Rows, Fig4Row{
			Q:               q,
			PageTargetBytes: 1 << q,
			FirstLoadBytes:  first,
			SecondLoadBytes: second,
			FirstLoadKB:     float64(first) / 1024,
			SecondLoadKB:    float64(second) / 1024,
			DedupFactor:     factor,
		})
	}
	return res, nil
}

// PrintFig4 renders the dedup increments.
func PrintFig4(w io.Writer, r Fig4Result) {
	fmt.Fprintf(w, "FIG 4 — fine-grained deduplication (two CSVs, single-word difference)\n\n")
	fmt.Fprintf(w, "CSV size: %.2f KB\n\n", float64(r.CSVBytes)/1024)
	fmt.Fprintf(w, "%6s %12s %16s %16s %10s\n", "q", "page(B)", "1st load(KB)", "2nd load(KB)", "factor")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%6d %12d %16.2f %16.2f %9.0fx\n",
			row.Q, row.PageTargetBytes, row.FirstLoadKB, row.SecondLoadKB, row.DedupFactor)
	}
	fmt.Fprintf(w, "\n(paper: first +338.54 KB, second +0.04 KB — smaller pages approach\nthe paper's near-zero marginal cost; larger pages trade it for less metadata)\n")
}

// ---------------------------------------------------------------------------
// Fig 5 — fast differential query
// ---------------------------------------------------------------------------

// Fig5Row compares POS-Tree diff against an element-wise scan for one N.
type Fig5Row struct {
	Rows          int
	ChangedRows   int
	POSDiffNanos  int64
	NaiveNanos    int64
	Speedup       float64
	TouchedChunks int
	TotalChunks   int
}

// RunFig5 sweeps table sizes, diffing master against a branch with a fixed
// number of changed rows: POS-Tree diff is O(D log N), the naive baseline
// O(N).
func RunFig5(sizes []int, changed int) ([]Fig5Row, error) {
	var out []Fig5Row
	for _, n := range sizes {
		db, _ := newDB()
		schema, rows := workload.GenerateTable(workload.CSVSpec{Rows: n, Columns: 4, Seed: 5})
		ds, err := dataset.Create(db, "sales", "", schema, rows, nil)
		if err != nil {
			return nil, err
		}
		if err := db.Branch("sales", "vendorx", ""); err != nil {
			return nil, err
		}
		vds, err := dataset.Open(db, "sales", "vendorx")
		if err != nil {
			return nil, err
		}
		mutated := workload.MutateRows(schema, rows, changed, 0, 0, 99)
		if _, err := vds.UpdateRows(mutated, nil, nil); err != nil {
			return nil, err
		}

		var res dataset.DiffResult
		posNanos := timeBest3(func() {
			res, err = dataset.DiffBranches(db, "sales", "master", "vendorx")
		})
		if err != nil {
			return nil, err
		}

		// Naive baseline: materialise both versions and compare row by row.
		naiveNanos := timeBest3(func() {
			a := map[string]dataset.Row{}
			mds, _ := dataset.Open(db, "sales", "master")
			mds.Scan(func(r dataset.Row) bool { a[r[0]] = r; return true })
			vds2, _ := dataset.Open(db, "sales", "vendorx")
			diffs := 0
			vds2.Scan(func(r dataset.Row) bool {
				old, ok := a[r[0]]
				if !ok {
					diffs++
					return true
				}
				for i := range r {
					if r[i] != old[i] {
						diffs++
						break
					}
				}
				delete(a, r[0])
				return true
			})
			diffs += len(a)
		})

		ts, err := ds.Index().ComputeStats()
		if err != nil {
			return nil, err
		}
		out = append(out, Fig5Row{
			Rows:          n,
			ChangedRows:   len(res.Deltas),
			POSDiffNanos:  posNanos,
			NaiveNanos:    naiveNanos,
			Speedup:       float64(naiveNanos) / float64(posNanos),
			TouchedChunks: res.Stats.TouchedChunks,
			TotalChunks:   ts.Nodes,
		})
	}
	return out, nil
}

// PrintFig5 renders the differential-query sweep.
func PrintFig5(w io.Writer, rows []Fig5Row) {
	fmt.Fprintf(w, "FIG 5 — differential query: POS-Tree diff vs element-wise scan\n\n")
	fmt.Fprintf(w, "%10s %8s %14s %14s %9s %10s %10s\n",
		"rows", "changed", "pos-diff", "naive-scan", "speedup", "touched", "total")
	for _, r := range rows {
		fmt.Fprintf(w, "%10d %8d %12.3fms %12.3fms %8.1fx %10d %10d\n",
			r.Rows, r.ChangedRows, float64(r.POSDiffNanos)/1e6, float64(r.NaiveNanos)/1e6,
			r.Speedup, r.TouchedChunks, r.TotalChunks)
	}
}

// ---------------------------------------------------------------------------
// Fig 6 — tamper evidence and validation
// ---------------------------------------------------------------------------

// Fig6Result reports tamper-detection coverage and validation latency.
type Fig6Result struct {
	Versions        int
	ChunksReachable int
	Attacks         int
	Detected        int
	DetectionRate   float64
	CleanVerifyNano int64
	UIDExample      string
}

// RunFig6 builds a version chain, validates it (clean), then corrupts every
// reachable chunk in turn and checks that validation catches each attack —
// the §III-C workflow, exhaustively.
func RunFig6(versions, rowsPerVersion int) (Fig6Result, error) {
	mal := store.NewMaliciousStore(store.NewMemStore())
	db := core.Open(core.Options{Store: mal})

	entries := make([]pos.Entry, rowsPerVersion)
	var head core.Version
	for v := 0; v < versions; v++ {
		for i := range entries {
			entries[i] = pos.Entry{
				Key: []byte(fmt.Sprintf("row-%06d", i)),
				Val: []byte(fmt.Sprintf("v%d-value-%d", v, i)),
			}
		}
		val, err := value.NewMap(db.Store(), db.Chunking(), entries)
		if err != nil {
			return Fig6Result{}, err
		}
		head, err = db.Put("audited", "", val, map[string]string{"version": fmt.Sprint(v)})
		if err != nil {
			return Fig6Result{}, err
		}
	}

	cleanNanos := timeIt(func() { db.VerifyVersion("audited", head.UID, true) })
	if _, err := db.VerifyVersion("audited", head.UID, true); err != nil {
		return Fig6Result{}, fmt.Errorf("clean chain failed verification: %w", err)
	}

	// Enumerate every chunk reachable from the head (values + history).
	var reachable []core.Version
	hist, err := db.History("audited", core.DefaultBranch, 0)
	if err != nil {
		return Fig6Result{}, err
	}
	reachable = hist
	var ids []string
	seen := map[string]bool{}
	for _, v := range reachable {
		ids = append(ids, v.UID.String())
		cids, err := v.Value.ChunkIDs(db.RawStore(), db.Chunking())
		if err != nil {
			return Fig6Result{}, err
		}
		for _, c := range cids {
			if !seen[c.String()] {
				seen[c.String()] = true
				ids = append(ids, c.String())
			}
		}
	}

	detected := 0
	for i, idStr := range ids {
		mal.Heal()
		id, err := parseHashString(idStr)
		if err != nil {
			return Fig6Result{}, err
		}
		ok, err := mal.CorruptFlip(id, i, uint(i%8))
		if err != nil || !ok {
			return Fig6Result{}, fmt.Errorf("injecting attack %d: %v", i, err)
		}
		if _, err := db.VerifyVersion("audited", head.UID, true); err != nil {
			detected++
		}
	}
	mal.Heal()
	return Fig6Result{
		Versions:        versions,
		ChunksReachable: len(ids),
		Attacks:         len(ids),
		Detected:        detected,
		DetectionRate:   float64(detected) / float64(len(ids)),
		CleanVerifyNano: cleanNanos,
		UIDExample:      head.UID.String(),
	}, nil
}

func parseHashString(s string) (hash.Hash, error) {
	return hash.Parse(s)
}

// PrintFig6 renders the tamper-evidence result.
func PrintFig6(w io.Writer, r Fig6Result) {
	fmt.Fprintf(w, "FIG 6 — tamper-evident versioning and validation\n\n")
	fmt.Fprintf(w, "version uid (Base32): %s\n", r.UIDExample)
	fmt.Fprintf(w, "versions in chain:    %d\n", r.Versions)
	fmt.Fprintf(w, "reachable chunks:     %d\n", r.ChunksReachable)
	fmt.Fprintf(w, "attacks injected:     %d (single-bit flips, every chunk)\n", r.Attacks)
	fmt.Fprintf(w, "attacks detected:     %d (%.1f%%)\n", r.Detected, 100*r.DetectionRate)
	fmt.Fprintf(w, "clean validation:     %.2fms (full history)\n", float64(r.CleanVerifyNano)/1e6)
}
