package index_test

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"

	"forkbase/internal/chunk"
	"forkbase/internal/chunker"
	"forkbase/internal/hash"
	"forkbase/internal/index"
	"forkbase/internal/mpt"
	"forkbase/internal/pos"
	"forkbase/internal/store"
)

// goroutineProbe records the most goroutines alive at any store call: a
// helper an operation started and joined before returning is still running
// when it reads nodes (Get) or lands chunks (Has, PutBatch).
type goroutineProbe struct {
	store.Store
	peak atomic.Int64
}

func (p *goroutineProbe) sample() {
	n := int64(runtime.NumGoroutine())
	for {
		if old := p.peak.Load(); n <= old || p.peak.CompareAndSwap(old, n) {
			return
		}
	}
}

func (p *goroutineProbe) Get(id hash.Hash) (*chunk.Chunk, error) { p.sample(); return p.Store.Get(id) }
func (p *goroutineProbe) Has(id hash.Hash) (bool, error)         { p.sample(); return p.Store.Has(id) }
func (p *goroutineProbe) PutBatch(cs []*chunk.Chunk) ([]bool, error) {
	p.sample()
	return p.Store.PutBatch(cs)
}

// TestCommitStartsNoGoroutine: with cores to spare, a bulk build, an
// incremental commit on any structure, a structural diff on either
// structure, a cross-structure diff and a three-way merge each run on the
// caller's goroutine from first read to last batch — a second core is used
// by serving a second request, never by a pool under one.
func TestCommitStartsNoGoroutine(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	cfg := chunker.DefaultConfig()
	probe := &goroutineProbe{Store: store.NewMemStore()}
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	trie, err := mpt.Build(probe, goldenRows(2000))
	must(err)
	seq, err := pos.BuildSeq(probe, cfg, goldenItems(20000))
	must(err)
	s := goldenStream(5)
	blob, err := pos.BuildBlob(probe, cfg, s.bytes(1<<18))
	must(err)

	base := int64(runtime.NumGoroutine())
	check := func(op string, run func()) {
		t.Helper()
		probe.peak.Store(0)
		run()
		if peak := probe.peak.Load(); peak == 0 || peak > base {
			t.Errorf("%s: %d goroutines alive inside its store calls, %d before it (0 = probe never reached)", op, peak, base)
		}
	}

	var tree *pos.Tree
	check("BuildMap", func() {
		tree, err = pos.BuildMap(probe, cfg, goldenRows(10000))
		must(err)
	})
	// The edits below are spread over the whole key space, so the diffs
	// leave many divergent spans and branch children behind their pruning.
	tree0, trie0 := tree, trie
	var ix index.VersionedIndex = trie
	var other index.VersionedIndex = tree0
	check("commits", func() {
		for i := 0; i < 20; i++ {
			key := []byte(fmt.Sprintf("row-%08d", (i*997)%10000))
			tree, err = tree.Insert(key, s.bytes(32))
			must(err)
			ix, err = ix.Apply([]index.Op{index.Put(key, s.bytes(32))})
			must(err)
			seq, err = seq.Splice(uint64(i*911), 1, [][]byte{s.bytes(16)})
			must(err)
			blob, err = blob.Splice(uint64(i*12007), 8, s.bytes(24))
			must(err)
			other, err = other.Apply([]index.Op{index.Put([]byte(fmt.Sprintf("row-%08d", (i*991+500)%10000)), s.bytes(32))})
			must(err)
		}
	})
	check("pos Diff", func() {
		_, _, err := tree0.Diff(tree)
		must(err)
	})
	check("mpt Diff", func() {
		_, _, err := trie0.Diff(ix.(*mpt.Trie))
		must(err)
	})
	check("pos-mpt DiffWith", func() {
		_, _, err := tree0.DiffWith(ix)
		must(err)
	})
	check("Merge3", func() {
		_, _, err := index.Merge3(tree0, tree, other, index.ResolveOurs)
		must(err)
	})
	if after := int64(runtime.NumGoroutine()); after > base {
		t.Errorf("%d goroutines after the operations, %d before", after, base)
	}
}
