package pos

import (
	"runtime"
	"sync"

	"forkbase/internal/chunker"
	"forkbase/internal/store"
)

// Parallel bulk build.
//
// The leaf level of a POS-Tree is the only expensive part of a from-scratch
// build (index levels hold ~1-2% of the entries), and its node boundaries
// have a property that makes it exactly parallelizable: the boundary
// decision after each entry depends only on the bytes encoded since the
// *previous* boundary (the scan state resets at every closeNode).  So a
// cheap serial pre-scan — rolling hash only, no SHA-256, no store traffic —
// can compute every leaf cut, the entry stream can be split at a subset of
// those cuts, and W workers can build their slices independently: each
// worker starts at a real boundary with fresh scan state, exactly like the
// serial builder did when it reached that point, so the concatenated leaf
// refs are identical to the serial builder's and the tree root is
// byte-for-byte the same.  The differential tests in parallel_test.go pin
// this against BuildMapSerial for worker counts {1, 2, 8}.
//
// Each worker owns a ChunkSink over the shared store and hashes what it
// emits: the workers are the build's only parallel axis.

// parallelBuildMin is the entry count below which BuildMap stays serial:
// under it the pre-scan plus goroutine startup costs more than the build.
const parallelBuildMin = 4096

// buildWorkers picks the fan-out for a bulk build of n entries.
func buildWorkers(n int) int {
	w := runtime.GOMAXPROCS(0)
	if w > 8 {
		w = 8
	}
	if n < parallelBuildMin {
		return 1
	}
	// Keep every worker busy with at least a few nodes' worth of entries.
	if max := n / 1024; w > max {
		w = max
	}
	if w < 1 {
		w = 1
	}
	return w
}

// leafCuts replays the leaf builder's boundary decisions over the encoded
// entry stream and returns every cut as an entry index i meaning "a node
// closes after entries[i-1]".  It mirrors levelBuilder.afterAppend exactly —
// same scanner, same skip constants, same max-size clamp — without hashing
// chunk ids or touching the store, so it costs one encode pass plus the
// rolling hash.
func leafCuts(cfg chunker.Config, entries []Entry) []int {
	cfg = cfg.Normalized()
	scan, begin, check := newLeafScan(cfg)
	var (
		cuts     []int
		buf      []byte
		scanPos  int
		scanHash uint64
	)
	for i, e := range entries {
		buf = encodeEntry(buf, e)
		hit, h := scan.Find(buf, scanPos, scanHash, begin, check)
		scanHash = h
		scanPos = len(buf)
		if hit >= 0 || len(buf) >= cfg.MaxSize {
			cuts = append(cuts, i+1)
			buf = buf[:0]
			scanPos, scanHash = 0, 0
		}
	}
	return cuts
}

// splitAtCuts partitions [0, n) into at most w contiguous slices whose
// interior borders are all leaf cuts, aiming for even entry counts.  Returns
// the slice borders including 0 and n.
func splitAtCuts(n, w int, cuts []int) []int {
	borders := []int{0}
	ci := 0
	for part := 1; part < w; part++ {
		target := part * n / w
		for ci < len(cuts) && cuts[ci] < target {
			ci++
		}
		if ci >= len(cuts) {
			break
		}
		cut := cuts[ci]
		if cut >= n || cut <= borders[len(borders)-1] {
			ci++
			continue
		}
		borders = append(borders, cut)
		ci++
	}
	return append(borders, n)
}

// BuildMapParallel is BuildMap with an explicit leaf fan-out.  The resulting
// tree is byte-identical to BuildMapSerial's for any worker count; workers
// <= 1 runs the serial builder.
func BuildMapParallel(st store.Store, cfg chunker.Config, entries []Entry, workers int) (*Tree, error) {
	sorted := normalizeEntries(entries)
	if workers > len(sorted)/2 {
		workers = len(sorted) / 2
	}
	if workers <= 1 {
		return buildMapSorted(st, cfg, sorted)
	}
	borders := splitAtCuts(len(sorted), workers, leafCuts(cfg, sorted))
	if len(borders) <= 2 {
		return buildMapSorted(st, cfg, sorted)
	}
	parts := len(borders) - 1
	type result struct {
		refs []childRef
		err  error
	}
	results := make([]result, parts)
	var wg sync.WaitGroup
	for p := 0; p < parts; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			slice := sorted[borders[p]:borders[p+1]]
			sink := buildSink(st)
			defer sink.Close()
			lb := newLevelBuilder(sink, cfg, 0, true)
			for _, e := range slice {
				if err := lb.addEntry(e); err != nil {
					results[p].err = err
					return
				}
			}
			refs, err := lb.finish()
			if err != nil {
				results[p].err = err
				return
			}
			if err := sink.Flush(); err != nil {
				results[p].err = err
				return
			}
			results[p].refs = refs
		}(p)
	}
	wg.Wait()
	var leaves []childRef
	for p := 0; p < parts; p++ {
		if results[p].err != nil {
			return nil, results[p].err
		}
		leaves = append(leaves, results[p].refs...)
	}
	// Index levels: ~1-2% of the entries; built serially so their nodes are
	// laid down by one producer exactly as the serial builder would.
	sink := buildSink(st)
	defer sink.Close()
	root, err := buildLevels(sink, cfg, leaves, 1, true)
	if err != nil {
		return nil, err
	}
	if err := sink.Flush(); err != nil {
		return nil, err
	}
	return &Tree{src: sourceFor(st), cfg: cfg, root: root.id, count: root.count}, nil
}
