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
// helper a write path started and joined before returning is still running
// when its chunks reach Has and PutBatch.
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

func (p *goroutineProbe) Has(id hash.Hash) (bool, error) { p.sample(); return p.Store.Has(id) }
func (p *goroutineProbe) PutBatch(cs []*chunk.Chunk) ([]bool, error) {
	p.sample()
	return p.Store.PutBatch(cs)
}

// TestCommitStartsNoGoroutine: with cores to spare, an incremental commit on
// any structure runs on the caller's goroutine from first read to last batch
// — a second core is used by running a second producer, never by a pool
// under one.
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
	tree, err := pos.BuildMap(probe, cfg, goldenRows(10000))
	must(err)
	trie, err := mpt.Build(probe, cfg, goldenRows(2000))
	must(err)
	seq, err := pos.BuildSeq(probe, cfg, goldenItems(20000))
	must(err)
	s := goldenStream(5)
	blob, err := pos.BuildBlob(probe, cfg, s.bytes(1<<18))
	must(err)

	base := int64(runtime.NumGoroutine())
	probe.peak.Store(0)
	var ix index.VersionedIndex = trie
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
	}
	if peak := probe.peak.Load(); peak == 0 || peak > base {
		t.Errorf("%d goroutines alive inside a commit's store calls, %d before it (0 = probe never reached)", peak, base)
	}
	if after := int64(runtime.NumGoroutine()); after > base {
		t.Errorf("%d goroutines after the commits, %d before", after, base)
	}
}
