package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"maps"
	"slices"
	"sync"
	"testing"

	"forkbase/internal/chunk"
	"forkbase/internal/chunker"
	"forkbase/internal/fnode"
	"forkbase/internal/hash"
	"forkbase/internal/index"
	"forkbase/internal/mpt"
	"forkbase/internal/pos"
	"forkbase/internal/store"
	"forkbase/internal/value"
)

// TestFNodeReadsHitTheNodeCache counts store reads: an FNode this engine
// saved is served from the decoded-node cache, so reading its version back,
// and committing on top of it, touch no chunk; without a cache each costs the
// one FNode Get it always did.
func TestFNodeReadsHitTheNodeCache(t *testing.T) {
	for _, tc := range []struct {
		name       string
		cacheBytes int64
		want       int64
	}{
		{"cache", 16 << 20, 0},
		{"no cache", 0, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cs := store.NewMemStore()
			db := Open(Options{Store: cs, Chunking: chunker.SmallConfig(), NodeCacheBytes: tc.cacheBytes})
			v1, err := db.Put("k", "", value.String("one"), nil)
			if err != nil {
				t.Fatal(err)
			}
			before := cs.Stats().Gets
			got, err := db.GetVersion("k", v1.UID)
			if err != nil {
				t.Fatal(err)
			}
			if s, _ := got.Value.AsString(); s != "one" || got.Seq != 1 {
				t.Fatalf("GetVersion = %q seq %d", s, got.Seq)
			}
			if gets := cs.Stats().Gets - before; gets != tc.want {
				t.Fatalf("GetVersion of a version just saved: %d store Gets, want %d", gets, tc.want)
			}
			// The next commit loads its parent for the Seq.
			before = cs.Stats().Gets
			v2, err := db.Put("k", "", value.String("two"), nil)
			if err != nil {
				t.Fatal(err)
			}
			if gets := cs.Stats().Gets - before; gets != tc.want || v2.Seq != 2 {
				t.Fatalf("Put over a saved head: %d store Gets (Seq %d), want %d", gets, v2.Seq, tc.want)
			}
		})
	}
}

// posIndexNaming hand-encodes a one-ref POS map index node whose child is
// target, whatever object target names: [level][n][splitKey][id][count].
func posIndexNaming(target hash.Hash) *chunk.Chunk {
	p := []byte{1, 1}
	p = binary.AppendUvarint(p, 3)
	p = append(p, "zzz"...)
	p = append(p, target[:]...)
	p = binary.AppendUvarint(p, 1)
	return chunk.New(chunk.TypeMapIndex, p)
}

// TestCachedObjectOfAnotherKind: POS nodes, MPT nodes and FNodes share one
// decoded-node cache keyed by chunk id, so a ref naming an object of another
// kind finds that object's decode in the cache.  Each reader must treat such
// a hit as a miss and report the mismatch from the store path — an error,
// never a panic.
func TestCachedObjectOfAnotherKind(t *testing.T) {
	db := Open(Options{Chunking: chunker.SmallConfig(), NodeCacheBytes: 16 << 20})
	cfg := db.Chunking()
	entries := make([]index.Entry, 2000)
	for i := range entries {
		entries[i] = index.Entry{Key: []byte(fmt.Sprintf("row-%05d", i)), Val: []byte("v")}
	}
	pv, err := value.NewMapWith(db.Store(), cfg, index.KindPOS, entries)
	if err != nil {
		t.Fatal(err)
	}
	mv, err := value.NewMapWith(db.Store(), cfg, index.KindMPT, entries)
	if err != nil {
		t.Fatal(err)
	}
	ver, err := db.Put("pos", "", pv, nil) // caches its FNode
	if err != nil {
		t.Fatal(err)
	}
	// Warm both roots into the cache.
	posTree, err := pos.LoadTree(db.Store(), cfg, pv.Root())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mpt.Load(db.Store(), mv.Root()); err != nil {
		t.Fatal(err)
	}
	if posTree.Len() != uint64(len(entries)) {
		t.Fatalf("POS root is not an index node over every row: Len %d", posTree.Len())
	}
	// readCached runs read, which must find target's decode in the cache, and
	// fails the test if it panics.
	readCached := func(t *testing.T, target hash.Hash, read func() error) error {
		t.Helper()
		if _, ok := db.NodeCache().Get(target); !ok {
			t.Fatalf("%s is not cached", target.Short())
		}
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("panicked: %v", r)
			}
		}()
		return read()
	}
	for _, tc := range []struct {
		name   string
		target hash.Hash
	}{
		{"POS ref names a cached MPT node", mv.Root()},
		{"POS ref names a cached FNode", ver.UID},
	} {
		t.Run(tc.name, func(t *testing.T) {
			idx := posIndexNaming(tc.target)
			store.MustPut(db.Store(), idx)
			tree, err := pos.LoadTree(db.Store(), cfg, idx.ID())
			if err != nil {
				t.Fatal(err)
			}
			err = readCached(t, tc.target, func() error { _, err := tree.Get([]byte("row-00001")); return err })
			if err == nil || errors.Is(err, index.ErrKeyNotFound) {
				t.Fatalf("read through a ref to a foreign object: err = %v, want a chunk-type error", err)
			}
		})
	}
	for _, tc := range []struct {
		name   string
		target hash.Hash
	}{
		{"MPT root names a cached POS node", pv.Root()},
		{"MPT root names a cached FNode", ver.UID},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if err := readCached(t, tc.target, func() error { _, err := mpt.Load(db.Store(), tc.target); return err }); err == nil {
				t.Fatal("loaded a foreign object as an MPT root")
			}
		})
	}
	t.Run("uid names a cached index node", func(t *testing.T) {
		for _, id := range []hash.Hash{pv.Root(), mv.Root()} {
			err := readCached(t, id, func() error { _, err := db.GetVersion("pos", id); return err })
			if !errors.Is(err, fnode.ErrNotFNode) {
				t.Fatalf("GetVersion(%s) = %v, want ErrNotFNode", id.Short(), err)
			}
		}
	})
}

// TestVersionsDoNotAliasCachedFNodes: a Version is the caller's to mutate.
// Its Bases and Meta are copies, never the cached FNode's own slices and
// map, so no mutation of a returned Version changes what the next read of
// that uid returns.
func TestVersionsDoNotAliasCachedFNodes(t *testing.T) {
	db := Open(Options{Chunking: chunker.SmallConfig(), NodeCacheBytes: 16 << 20})
	meta := map[string]string{"author": "ann"}
	base, err := db.Put("k", "", mapVal(t, db, map[string]string{"a": "1"}), meta)
	if err != nil {
		t.Fatal(err)
	}
	meta["author"] = "caller's map, changed after Put"
	if err := db.Branch("k", "dev", ""); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Put("k", "", mapVal(t, db, map[string]string{"a": "1", "b": "2"}), map[string]string{"author": "ann"}); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Put("k", "dev", mapVal(t, db, map[string]string{"a": "1", "c": "3"}), map[string]string{"author": "bo"}); err != nil {
		t.Fatal(err)
	}
	batch, err := db.WriteBatch([]WriteOp{{Key: "w", Value: value.String("x"), Meta: map[string]string{"m": "1"}}, {Key: "w", Value: value.String("y")}})
	if err != nil {
		t.Fatal(err)
	}

	hist, err := db.History("k", "", 0)
	if err != nil {
		t.Fatal(err)
	}
	merged, err := db.Merge("k", "", "dev", nil, map[string]string{"merge": "yes"})
	if err != nil {
		t.Fatal(err)
	}
	ff, err := db.Merge("k", "dev", "", nil, nil)
	if err != nil || !ff.FastForward {
		t.Fatalf("fast-forward merge: %+v %v", ff, err)
	}
	returned := map[string][]Version{
		"Put":        {base},
		"WriteBatch": batch,
		"History":    hist,
		"Merge":      {merged.Version, ff.Version},
	}
	getVersion := func(v Version) Version {
		t.Helper()
		got, err := db.GetVersion(v.Key, v.UID)
		if err != nil {
			t.Fatal(err)
		}
		return got
	}
	// want snapshots every version before anything is mutated.
	want := map[hash.Hash]Version{}
	for _, vs := range returned {
		for _, v := range vs {
			got := getVersion(v)
			want[v.UID] = Version{Bases: slices.Clone(got.Bases), Meta: maps.Clone(got.Meta)}
		}
	}
	scribble := func(v Version) {
		for i := range v.Bases {
			v.Bases[i] = hash.Of([]byte("scribbled"))
		}
		for k := range v.Meta {
			v.Meta[k] = "scribbled"
		}
		if v.Meta != nil {
			v.Meta["added"] = "scribbled"
		}
	}
	for _, vs := range returned {
		for _, v := range vs {
			scribble(v)
			scribble(getVersion(v))
		}
	}
	for name, vs := range returned {
		for _, v := range vs {
			got, w := getVersion(v), want[v.UID]
			if !slices.Equal(got.Bases, w.Bases) || !maps.Equal(got.Meta, w.Meta) {
				t.Fatalf("after mutating Versions, GetVersion(%s) from %s = bases %v meta %v, want %v %v",
					v.UID.Short(), name, got.Bases, got.Meta, w.Bases, w.Meta)
			}
		}
	}
	if got := want[base.UID].Meta["author"]; got != "ann" {
		t.Fatalf("saved Meta follows the caller's map: author = %q", got)
	}
	if len(want[batch[1].UID].Bases) != 1 || want[batch[1].UID].Bases[0] != batch[0].UID {
		t.Fatalf("chained batch version's bases = %v", want[batch[1].UID].Bases)
	}
}

// TestConcurrentReadersShareCachedFNodes: readers on several goroutines get
// the same cached FNodes while a writer saves new ones, and each mutates
// what it was handed; under -race any write reaching a shared FNode is a
// reported race.
func TestConcurrentReadersShareCachedFNodes(t *testing.T) {
	db := Open(Options{Chunking: chunker.SmallConfig(), NodeCacheBytes: 16 << 20})
	if _, err := db.Put("k", "", value.String("v0"), map[string]string{"n": "0"}); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				hist, err := db.History("k", "", 0)
				if err != nil {
					t.Error(err)
					return
				}
				for _, v := range hist {
					v.Meta["n"] = "scribbled"
					for i := range v.Bases {
						v.Bases[i] = hash.Hash{}
					}
				}
			}
		}()
	}
	for i := 1; i <= 50; i++ {
		if _, err := db.Put("k", "", value.String(fmt.Sprint("v", i)), map[string]string{"n": fmt.Sprint(i)}); err != nil {
			t.Error(err)
			break
		}
	}
	close(stop)
	wg.Wait()
	hist, err := db.History("k", "", 0)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range hist {
		if want := fmt.Sprint(len(hist) - 1 - i); v.Meta["n"] != want || i+1 < len(hist) && v.Bases[0] != hist[i+1].UID {
			t.Fatalf("version %d after concurrent readers: meta %v bases %v", i, v.Meta, v.Bases)
		}
	}
}
