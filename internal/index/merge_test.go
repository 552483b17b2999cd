package index_test

import (
	"fmt"
	"testing"

	"forkbase/internal/chunker"
	"forkbase/internal/index"
	"forkbase/internal/mpt"
	"forkbase/internal/pos"
	"forkbase/internal/store"
	"forkbase/internal/value"
)

// mergeShape builds the merge that TestMergeReadBound and BenchmarkMerge3
// run: a 40k-row table of random 96-byte values, and two sides that each
// rewrite 8 consecutive rows, a quarter and three quarters into the keys.
func mergeShape(tb testing.TB, kind index.Kind, st store.Store) (base, a, b index.VersionedIndex) {
	tb.Helper()
	const rows = 40000
	s := goldenStream(7)
	entries := make([]index.Entry, rows)
	for i := range entries {
		entries[i] = index.Entry{Key: []byte(fmt.Sprintf("row-%08d", i)), Val: s.bytes(96)}
	}
	var err error
	switch kind {
	case index.KindPOS:
		base, err = pos.BuildMap(st, chunker.DefaultConfig(), entries)
	case index.KindMPT:
		base, err = mpt.Build(st, entries)
	}
	if err != nil {
		tb.Fatal(err)
	}
	edit := func(from int) index.VersionedIndex {
		ops := make([]index.Op, 8)
		for j := range ops {
			ops[j] = index.Put(entries[from+j].Key, s.bytes(96))
		}
		ix, err := base.Apply(ops)
		if err != nil {
			tb.Fatal(err)
		}
		return ix
	}
	return base, edit(rows / 4), edit(3 * rows / 4)
}

// TestMergeReadBound pins "a merge costs what it changed" on the read side,
// without a node cache: a three-way merge reads no more nodes than its two
// side diffs and its Apply read when each runs on its own, so nothing in
// the merge walks the merged index or the table.
func TestMergeReadBound(t *testing.T) {
	for _, kind := range kinds {
		t.Run(kind.String(), func(t *testing.T) {
			st := store.NewMemStore()
			base, a, b := mergeShape(t, kind, st)
			// Each count starts from freshly loaded handles, so the parts
			// and the merge begin from the same decoded state.
			load := func() []index.VersionedIndex {
				var out []index.VersionedIndex
				for _, in := range []index.VersionedIndex{base, a, b} {
					ix, err := value.LoadIndex(st, chunker.DefaultConfig(), in.Root(), kind)
					if err != nil {
						t.Fatal(err)
					}
					out = append(out, ix)
				}
				return out
			}
			reads := func(run func() error) int64 {
				t.Helper()
				before := st.Stats().Gets
				if err := run(); err != nil {
					t.Fatal(err)
				}
				return st.Stats().Gets - before
			}

			p := load()
			var db []index.Delta
			var applied index.VersionedIndex
			diffA := reads(func() (err error) { _, _, err = p[0].DiffWith(p[1]); return err })
			diffB := reads(func() (err error) { db, _, err = p[0].DiffWith(p[2]); return err })
			apply := reads(func() (err error) {
				ops := make([]index.Op, len(db)) // side b only puts
				for i, d := range db {
					ops[i] = index.Put(d.Key, d.To)
				}
				applied, err = p[1].Apply(ops)
				return err
			})

			m := load()
			var merged index.VersionedIndex
			merge := reads(func() (err error) { merged, _, err = index.Merge3(m[0], m[1], m[2], nil); return err })
			if merged.Root() != applied.Root() {
				t.Fatalf("merge root %s, parts root %s", merged.Root().Short(), applied.Root().Short())
			}
			if parts := diffA + diffB + apply; merge > parts {
				t.Fatalf("merge read %d nodes; its diffs (%d, %d) and Apply (%d) read %d on their own",
					merge, diffA, diffB, apply, parts)
			}
			t.Logf("merge read %d nodes: diffs %d + %d, Apply %d", merge, diffA, diffB, apply)
		})
	}
}

// BenchmarkMerge3 times a three-way merge of two disjoint 8-row edits of a
// 40k-row table held in a MemStore, on each index structure.
func BenchmarkMerge3(b *testing.B) {
	for _, kind := range kinds {
		b.Run(kind.String(), func(b *testing.B) {
			base, x, y := mergeShape(b, kind, store.NewMemStore())
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := index.Merge3(base, x, y, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
