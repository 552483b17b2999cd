package pos

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"forkbase/internal/chunker"
	"forkbase/internal/store"
)

// Differential tests for the parallel build and diff paths: for every worker
// count the parallel code must be byte-identical (roots, chunk sets) and
// order-identical (delta slices, stats) to the serial oracle.  Run under
// -race these also shake out data races in the fan-out itself.

var parWorkerCounts = []int{1, 2, 8}

func parConfigs() []chunker.Config {
	return []chunker.Config{
		chunker.DefaultConfig(),
		chunker.SmallConfig(),
	}
}

func TestBuildMapParallelMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, cfg := range parConfigs() {
		for _, n := range []int{0, 1, 37, 1000, 9000} {
			entries := randomEntries(rng, n)
			msSerial := store.NewMemStore()
			want, err := BuildMapSerial(msSerial, cfg, entries)
			if err != nil {
				t.Fatal(err)
			}
			for _, w := range parWorkerCounts {
				msPar := store.NewMemStore()
				got, err := BuildMapParallel(msPar, cfg, entries, w)
				if err != nil {
					t.Fatalf("workers=%d: %v", w, err)
				}
				if got.Root() != want.Root() {
					t.Fatalf("cfg=%+v n=%d workers=%d: parallel root %s != serial root %s",
						cfg, n, w, got.Root().Short(), want.Root().Short())
				}
				if got.Len() != want.Len() {
					t.Fatalf("n=%d workers=%d: len %d != %d", n, w, got.Len(), want.Len())
				}
				if msPar.Len() != msSerial.Len() {
					t.Fatalf("n=%d workers=%d: chunk count %d != %d",
						n, w, msPar.Len(), msSerial.Len())
				}
			}
		}
	}
}

// TestLeafCutsMatchBuilder pins the pre-scan against the actual leaf level:
// splitting the entry stream at *every* cut and building each slice
// separately must reproduce the serial builder's leaf refs one-to-one.
func TestLeafCutsMatchBuilder(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for _, cfg := range parConfigs() {
		entries := normalizeEntries(randomEntries(rng, 4000))
		cuts := leafCuts(cfg, entries)
		ms := store.NewMemStore()
		sink := buildSink(ms)
		lb := newLevelBuilder(sink, cfg, 0, true)
		for _, e := range entries {
			if err := lb.addEntry(e); err != nil {
				t.Fatal(err)
			}
		}
		refs, err := lb.finish()
		if err != nil {
			t.Fatal(err)
		}
		sink.Close()
		wantNodes := len(cuts)
		if len(cuts) == 0 || cuts[len(cuts)-1] != len(entries) {
			wantNodes++ // trailing node without a pattern boundary
		}
		if len(refs) != wantNodes {
			t.Fatalf("cfg=%+v: pre-scan predicts %d leaves, builder emitted %d",
				cfg, wantNodes, len(refs))
		}
	}
}

func editedTree(t *testing.T, base *Tree, rng *rand.Rand, edits int) *Tree {
	t.Helper()
	ops := make([]Op, 0, edits)
	for i := 0; i < edits; i++ {
		k := []byte(fmt.Sprintf("k%08d", rng.Intn(16000)))
		if rng.Intn(5) == 0 {
			ops = append(ops, Del(k))
		} else {
			ops = append(ops, Put(k, []byte(fmt.Sprintf("edit-%d", i))))
		}
	}
	nt, err := base.Edit(ops)
	if err != nil {
		t.Fatal(err)
	}
	return nt
}

func TestDiffParallelMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	ms := store.NewMemStore()
	cfg := chunker.SmallConfig()
	base, err := BuildMap(ms, cfg, randomEntries(rng, 8000))
	if err != nil {
		t.Fatal(err)
	}
	empty := NewEmptyTree(ms, cfg)
	for _, edits := range []int{1, 50, 2000} {
		other := editedTree(t, base, rng, edits)
		cases := []struct {
			name     string
			old, new *Tree
		}{
			{"fwd", base, other},
			{"rev", other, base},
			{"self", base, base},
			{"from-empty", empty, other},
			{"to-empty", other, empty},
		}
		for _, tc := range cases {
			wantD, wantS, err := tc.old.DiffSerial(tc.new)
			if err != nil {
				t.Fatal(err)
			}
			for _, w := range parWorkerCounts {
				gotD, gotS, err := tc.old.DiffParallel(tc.new, w)
				if err != nil {
					t.Fatalf("%s workers=%d: %v", tc.name, w, err)
				}
				if !reflect.DeepEqual(gotD, wantD) {
					t.Fatalf("%s edits=%d workers=%d: deltas diverge (%d vs %d)",
						tc.name, edits, w, len(gotD), len(wantD))
				}
				if gotS != wantS {
					t.Fatalf("%s edits=%d workers=%d: stats %+v != %+v",
						tc.name, edits, w, gotS, wantS)
				}
			}
		}
	}
}

// TestMerge3ParallelDeterministic pins the merge with concurrent side diffs:
// repeated merges of the same inputs yield one root, and that root equals
// building the expected merged record set from scratch (byte-identity via
// structural invariance).
func TestMerge3ParallelDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	ms := store.NewMemStore()
	cfg := chunker.SmallConfig()
	base, err := BuildMap(ms, cfg, randomEntries(rng, 6000))
	if err != nil {
		t.Fatal(err)
	}
	a := editedTree(t, base, rng, 400)
	b := editedTree(t, base, rng, 400)
	merged, _, err := Merge3(base, a, b, ResolveOurs)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		again, _, err := Merge3(base, a, b, ResolveOurs)
		if err != nil {
			t.Fatal(err)
		}
		if again.Root() != merged.Root() {
			t.Fatalf("merge %d: root %s != %s", i, again.Root().Short(), merged.Root().Short())
		}
	}
	// Oracle: rebuild the merged record set from scratch.
	it, err := merged.Iter()
	if err != nil {
		t.Fatal(err)
	}
	var entries []Entry
	for it.Next() {
		e := it.Entry()
		entries = append(entries, Entry{
			Key: append([]byte(nil), e.Key...),
			Val: append([]byte(nil), e.Val...),
		})
	}
	if err := it.Err(); err != nil {
		t.Fatal(err)
	}
	rebuilt, err := BuildMapSerial(store.NewMemStore(), cfg, entries)
	if err != nil {
		t.Fatal(err)
	}
	if rebuilt.Root() != merged.Root() {
		t.Fatalf("merged root %s != rebuilt root %s", merged.Root().Short(), rebuilt.Root().Short())
	}
}
