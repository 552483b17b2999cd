package main

import "fmt"

// refSeconds is the --seconds value the per-round op counts below were
// sized for; other values scale the counts (never the clock).
const refSeconds = 20

// batchSize is how many µs-scale ops share one clock pair.
const batchSize = 64

// spec is one workload: the data it loads, the edge it is driven through
// and the fixed number of ops of each kind in a measured round.
type spec struct {
	name string
	why  string
	edge string // "embed", "tcp" or "rest"

	objects int // keys in the store
	rows    int // rows per object
	valLen  int
	hot     int // objects that carry long-lived collaborator branches
	collab  int // collaborator branches per hot object

	cacheBytes int64 // decoded-node cache of the engine the client talks to

	history     int // versions seeded on master before the clock starts
	histScatter int // every n-th seeded commit is scattered like the workload's own (0 = none)
	commitRows  int // rows rewritten per commit
	window      int // rows a commit's edits cluster in; 0 scatters them uniformly
	zipf        bool
	histGetPct  int // share of gets that read a seeded historical version
	scanRows    int
	diffBack    int // a diff spans head and the version this many commits behind it
	mergeSide   int // commits per side before a merge

	// per measured round
	getBatches  int
	scanBatches int
	commits     int
	diffs       int
	merges      int
	histories   int
	verifies    []int // history positions verified deep (objects: one hot head each)

	rounds   int // measured rounds in the script
	passes   int // times the whole script is replayed on a fresh set-up; see harness.go
	syncReps int // fresh followers converged, one after the other, at the end of each pass
	// plays is how often a pass plays each get, diff and history in a row,
	// keeping the shortest.  Only for a workload whose reads leave nothing
	// behind in the engine they go through, so that every play does the same
	// work; see README.md (Noise).
	plays int
}

// tableWorkload is the table and op mix embed-warm and tcp-remote share: the
// two replay the very same script (equal digests), so the difference between
// their figures is the edge's cost.  Only how often the script is replayed
// differs, a pass over TCP taking three times as long.
func tableWorkload(name, edge, why string, passes int) spec {
	return spec{
		name: name, edge: edge, why: why,
		objects: 1, rows: 40000, valLen: 96, cacheBytes: 32 << 20,
		history: 64, commitRows: 8, window: 64, zipf: true, scanRows: 100, diffBack: 8, mergeSide: 2,
		getBatches: 64, scanBatches: 1, commits: 128, diffs: 32, merges: 8, histories: 8,
		verifies: []int{2, 3, 4, 5},
		rounds:   2, passes: passes, syncReps: 6,
	}
}

var workloads = []spec{
	tableWorkload("embed-warm", "embed",
		"embedded engine, 40k-row table that fits the 32 MiB node cache, clustered 8-row commits: core and index CPU do the work", 10),
	{
		name: "embed-cold-scatter", edge: "embed",
		why:     "embedded engine without a node cache, 100k-row table, commits scattered over the key space, a quarter of gets historical: re-chunking, hashing and store reads do the work",
		objects: 1, rows: 100000, valLen: 96,
		history: 64, histScatter: 8, commitRows: 8, window: 0, histGetPct: 25, scanRows: 100, diffBack: 8, mergeSide: 2,
		getBatches: 64, scanBatches: 1, commits: 6, diffs: 16, merges: 2, histories: 4,
		verifies: []int{2, 3},
		rounds:   2, passes: 4, syncReps: 6,
	},
	tableWorkload("tcp-remote", "tcp",
		"the embed-warm table and script driven through a forkbased-style TCP server on loopback: gob codec, round trips per op and rehash-over-the-wire do the work", 8),
	{
		name: "rest-collab", edge: "rest",
		why:     "1000 small map objects PUT whole over HTTP/JSON with 4 collaborator branches on the 100 hottest: JSON/HTTP handling, version-object writes and the heads-file rewrite do the work",
		objects: 1000, rows: 32, valLen: 48, hot: 100, collab: 4,
		history: 64, commitRows: 4, zipf: true, diffBack: 0, mergeSide: 1,
		getBatches: 16, commits: 256, diffs: 32, merges: 32, histories: 64,
		verifies: make([]int, 64),
		rounds:   2, passes: 4, syncReps: 4, plays: 4,
	},
}

func findSpec(name string) (spec, error) {
	for _, sp := range workloads {
		if sp.name == name {
			return sp, nil
		}
	}
	return spec{}, fmt.Errorf("unknown workload %q", name)
}

// scaled returns sp with its per-round op counts multiplied by f.  The
// data set and the number of rounds stay as they are, so latencies remain
// comparable across scales; only how many samples a round holds changes.
func (sp spec) scaled(f float64) spec {
	mul := func(n int) int {
		if n == 0 {
			return 0
		}
		m := int(float64(n)*f + 0.5)
		if m < 1 {
			m = 1
		}
		return m
	}
	sp.getBatches = mul(sp.getBatches)
	sp.scanBatches = mul(sp.scanBatches)
	sp.commits = mul(sp.commits)
	sp.diffs = mul(sp.diffs)
	sp.merges = mul(sp.merges)
	sp.histories = mul(sp.histories)
	if n := mul(len(sp.verifies)); n < len(sp.verifies) {
		sp.verifies = sp.verifies[:n]
	}
	return sp
}

// quick shrinks a workload to test size: small data, two short rounds.
func (sp spec) quick() spec {
	sp = sp.scaled(1.0 / 16)
	if sp.objects == 1 {
		sp.rows /= 20
	} else {
		sp.objects /= 20
		sp.hot /= 20
	}
	sp.history = 12
	sp.rounds, sp.passes, sp.syncReps = 2, 2, 1
	return sp
}
