package pos

import (
	"encoding/binary"
	"fmt"
	"testing"

	"forkbase/internal/chunk"
	"forkbase/internal/chunker"
	"forkbase/internal/hash"
	"forkbase/internal/store"
)

// Pinned vectors for the index-level cut, in the style of the chunker's
// rolling vectors: a fixed SplitMix64 stream of child refs must always close
// index nodes after exactly these entries.  A change to the fanout rule, its
// two regions (no cut below half the expected fanout, all fanout bits below
// it, two fewer from it on) or the index hash state shows up here as a diff
// of literal integers rather than a silent reshape of every index level.

// vecRefs deterministically expands a seed into n child refs of the variant
// whose leaves are leaf: ascending split keys with a random suffix (map refs
// only), random ids and random counts.
func vecRefs(seed uint64, n int, leaf chunk.Type) []childRef {
	x := seed
	next := func() uint64 {
		x += 0x9E3779B97F4A7C15
		z := x
		z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
		z = (z ^ (z >> 27)) * 0x94D049BB133111EB
		return z ^ (z >> 31)
	}
	refs := make([]childRef, n)
	for i := range refs {
		var id hash.Hash
		for j := 0; j < len(id); j += 8 {
			binary.LittleEndian.PutUint64(id[j:], next())
		}
		refs[i] = childRef{id: id, count: 1 + next()%5000}
		if leaf == chunk.TypeMapLeaf {
			shift := next() % 64 // a suffix of 1 to 16 hex digits
			refs[i].splitKey = fmt.Appendf(nil, "key-%06d-%x", i, next()>>shift)
		}
	}
	return refs
}

var indexVectors = []struct {
	name string
	seed uint64
	n    int
	leaf chunk.Type
	cfg  chunker.Config
	cuts []int // entries in the level so far at every node close, in order
}{
	{
		name: "default-map",
		seed: 1,
		n:    2000,
		leaf: chunk.TypeMapLeaf,
		cfg:  chunker.DefaultConfig(),
		cuts: []int{
			50, 122, 196, 244, 313, 382, 424, 492, 531, 627,
			705, 744, 831, 900, 971, 1039, 1107, 1187, 1272, 1361,
			1401, 1434, 1563, 1627, 1704, 1747, 1852, 1905, 1940, 1987,
		},
	},
	{
		name: "small-map",
		seed: 2,
		n:    200,
		leaf: chunk.TypeMapLeaf,
		cfg:  chunker.SmallConfig(),
		cuts: []int{
			3, 9, 13, 19, 22, 25, 29, 33, 38, 40,
			44, 48, 52, 56, 60, 66, 70, 74, 76, 78,
			82, 87, 91, 95, 100, 102, 105, 110, 112, 114,
			119, 123, 125, 129, 134, 136, 138, 142, 146, 150,
			152, 154, 158, 163, 171, 173, 175, 180, 183, 187,
			192, 194,
		},
	},
	{
		name: "small-seq",
		seed: 3,
		n:    200,
		leaf: chunk.TypeSeqLeaf,
		cfg:  chunker.SmallConfig(),
		cuts: []int{
			7, 13, 17, 20, 24, 29, 34, 36, 41, 45,
			48, 52, 54, 58, 60, 62, 68, 74, 76, 79,
			82, 85, 89, 94, 96, 99, 103, 106, 110, 113,
			122, 126, 128, 133, 135, 140, 144, 148, 150, 154,
			160, 162, 165, 168, 172, 176, 179, 184, 188, 192,
			194,
		},
	},
}

// TestIndexGoldenCuts feeds each ref stream through a levelBuilder index
// level (the bulk scan over the node buffer) and through the byte-wise
// indexChunker oracle; both must cut after exactly the pinned entries.
func TestIndexGoldenCuts(t *testing.T) {
	for _, tc := range indexVectors {
		t.Run(tc.name, func(t *testing.T) {
			refs := vecRefs(tc.seed, tc.n, tc.leaf)

			sink := store.NewChunkSink(store.NewMemStore())
			lb := newLevelBuilder(sink, tc.cfg, 1, tc.leaf)
			var cuts []int
			for i, r := range refs {
				before := len(lb.emitted)
				if err := lb.addRef(r); err != nil {
					t.Fatal(err)
				}
				if len(lb.emitted) > before {
					cuts = append(cuts, i+1)
				}
			}
			sameEntryCuts(t, "levelBuilder", cuts, tc.cuts)

			oracle := newIndexChunker(tc.cfg)
			cuts = nil
			var enc []byte
			for i, r := range refs {
				if tc.leaf == chunk.TypeMapLeaf {
					enc = encodeChildRef(enc[:0], r)
				} else {
					enc = encodeSeqChildRef(enc[:0], r)
				}
				if oracle.Add(enc) {
					cuts = append(cuts, i+1)
				}
			}
			sameEntryCuts(t, "indexChunker", cuts, tc.cuts)
		})
	}
}

// sameEntryCuts fails t unless got equals want.
func sameEntryCuts(t *testing.T, how string, got, want []int) {
	t.Helper()
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("%s cuts after entries\n%#v\nwant\n%#v", how, got, want)
	}
}
