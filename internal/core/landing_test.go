package core

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"forkbase/internal/chunk"
	"forkbase/internal/fnode"
	"forkbase/internal/hash"
	"forkbase/internal/index"
	"forkbase/internal/store"
	"forkbase/internal/value"
)

// TestCommitLandsWhatIsCompleteOrReached: FeedTable.Commit lands a carried
// chunk when every id it names is in the store or lands with it, in any
// order, or when a fresh op's Set reaches it through carried chunks, and
// nothing else.  A stale op applies only if its Set is held; an unstamped
// op is neither checked nor reaches; a commit of no ops that leaves a chunk
// out answers ErrCollected once the others landed.  A chunk carried twice
// lands once, and a chain of 100,000 links carried parents first lands
// whole, with allocations bounded per link.
func TestCommitLandsWhatIsCompleteOrReached(t *testing.T) {
	present := chunk.New(chunk.TypeBlobLeaf, []byte("present"))
	gone := hash.Of([]byte("gone"))
	a := names("a", present.ID()) // complete
	d := names("d", a.ID())       // complete once a lands
	b := names("b", gone)         // names what a sweep took
	c := names("c", b.ID())       // incomplete through b
	e1 := names("e1", present.ID())
	e2 := names("e2", e1.ID())
	e3 := names("e3", e2.ID()) // a three-link chain
	long := make([]*chunk.Chunk, 100000)
	for i, below := len(long)-1, present.ID(); i >= 0; i-- {
		long[i] = names(fmt.Sprint("l", i), below) // long[0] is the top
		below = long[i].ID()
	}
	type epoch int
	const (
		unstamped epoch = iota
		fresh
		stale
	)
	for _, row := range []struct {
		name    string
		cs      []*chunk.Chunk
		set     hash.Hash
		epoch   epoch
		noOps   bool
		lands   []*chunk.Chunk
		applies bool
		// allocs bounds the commit's allocations per carried chunk (0: any).
		allocs float64
	}{
		{name: "a put lands what is complete, in any order", cs: []*chunk.Chunk{d, a, b, c}, noOps: true, lands: []*chunk.Chunk{d, a}},
		{name: "a fresh op lands what it reaches", cs: []*chunk.Chunk{c, b}, set: c.ID(), epoch: fresh, lands: []*chunk.Chunk{c, b}, applies: true},
		{name: "a fresh op leaves out what it does not reach", cs: []*chunk.Chunk{a, b}, set: a.ID(), epoch: fresh, lands: []*chunk.Chunk{a}, applies: true},
		{name: "a stale op whose value is incomplete", cs: []*chunk.Chunk{c, b}, set: c.ID(), epoch: stale},
		{name: "a stale op whose value is complete", cs: []*chunk.Chunk{d, a}, set: d.ID(), epoch: stale, lands: []*chunk.Chunk{d, a}, applies: true},
		{name: "a stale op setting a held head", set: present.ID(), epoch: stale, applies: true},
		{name: "a stale op setting a missing head", set: gone, epoch: stale},
		{name: "an unstamped op", cs: []*chunk.Chunk{b}, set: gone, epoch: unstamped, applies: true},
		{name: "one id carried twice", cs: []*chunk.Chunk{a, d, a}, noOps: true, lands: []*chunk.Chunk{a, d}, applies: true},
		{name: "a three-link chain carried parents first", cs: []*chunk.Chunk{e3, e2, e1}, set: e3.ID(), epoch: stale, lands: []*chunk.Chunk{e3, e2, e1}, applies: true},
		{name: "a 100,000-link chain carried parents first", cs: long, noOps: true, lands: long, applies: true, allocs: 8},
	} {
		t.Run(row.name, func(t *testing.T) {
			st := store.NewMemStore()
			if _, err := st.Put(present); err != nil {
				t.Fatal(err)
			}
			ft := WithFeed(NewMemBranchTable(), NewFeed(0))
			var ops []HeadOp
			if !row.noOps {
				e := map[epoch]uint64{unstamped: 0, fresh: ft.Epoch(), stale: ft.Epoch() - 1}[row.epoch]
				ops = []HeadOp{{Key: "k", Branch: "master", Any: true, Set: row.set, Epoch: e}}
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			freshFlags, ok, err := ft.Commit(st, row.cs, ops)
			runtime.ReadMemStats(&after)
			if per := float64(after.Mallocs-before.Mallocs) / float64(len(row.cs)); row.allocs > 0 && per > row.allocs {
				t.Errorf("Commit made %.1f allocations per carried chunk, want at most %v", per, row.allocs)
			}
			if wantErr := !row.applies; wantErr != errors.Is(err, ErrCollected) || err == nil && ok != row.applies {
				t.Fatalf("Commit = %v, %v; want applied %v", ok, err, row.applies)
			}
			lands := make(map[*chunk.Chunk]bool, len(row.lands))
			for _, c := range row.lands {
				lands[c] = true
			}
			seen := make(map[*chunk.Chunk]bool, len(row.cs))
			for i, c := range row.cs {
				if has, _ := st.Has(c.ID()); has != lands[c] {
					t.Errorf("store has carried chunk %s = %v, want %v", c.ID().Short(), has, lands[c])
				}
				// A chunk's first landing is fresh, a second copy is not.
				first := !seen[c]
				seen[c] = true
				if err == nil && freshFlags[i] != (lands[c] && first) {
					t.Errorf("fresh flag %d of %s = %v, want %v", i, c.ID().Short(), freshFlags[i], lands[c] && first)
				}
			}
			if head, _, _ := ft.Head("k", "master"); (head == row.set && !head.IsZero()) != (row.applies && !row.noOps) {
				t.Errorf("head = %s after the commit; applies %v", head.Short(), row.applies)
			}
		})
	}
}

// names returns the FNode chunk tagged tag whose bases are ids.
func names(tag string, ids ...hash.Hash) *chunk.Chunk {
	return chunk.New(chunk.TypeFNode, fnode.New([]byte(tag), value.String(tag), ids, 2, nil).Encode())
}

// recordPuts is a store that keeps the chunks put through it while on.
type recordPuts struct {
	store.Store
	on  bool
	got []*chunk.Chunk
}

func (r *recordPuts) Unwrap() store.Store { return r.Store }

func (r *recordPuts) PutBatch(cs []*chunk.Chunk) ([]bool, error) {
	if r.on {
		r.got = append(r.got, cs...)
	}
	return r.Store.PutBatch(cs)
}

// BenchmarkCommitLanding times FeedTable.Commit over what a warm, clustered
// 8-row edit of a 40k-row map with 96-byte values carries (the nodes it
// rewrote and its FNode), under a fresh op and under a stale one.
func BenchmarkCommitLanding(b *testing.B) {
	rec := &recordPuts{Store: store.NewMemStore()}
	db := Open(Options{Store: rec, Branches: NewMemBranchTable(), NodeCacheBytes: 32 << 20})
	defer db.Close()
	rng := rand.New(rand.NewSource(1))
	row := func(i int) index.Entry {
		v := make([]byte, 96)
		rng.Read(v)
		return index.Entry{Key: []byte(fmt.Sprintf("k%06d", i)), Val: v}
	}
	es := make([]index.Entry, 40000)
	for i := range es {
		es[i] = row(i)
	}
	v, err := db.NewMapValue(es)
	if err == nil {
		_, err = db.Put("t", "", v, nil)
	}
	if err != nil {
		b.Fatal(err)
	}
	edit := func() Version {
		off := rng.Intn(len(es) - 8)
		rows := make([]index.Entry, 8)
		for i := range rows {
			rows[i] = row(off + i)
		}
		ver, err := db.EditMap("t", "", rows, nil, nil)
		if err != nil {
			b.Fatal(err)
		}
		return ver
	}
	for i := 0; i < 16; i++ {
		edit()
	}
	rec.on = true
	ver := edit()
	rec.on = false
	ft := WithFeed(NewMemBranchTable(), NewFeed(0))
	for _, bc := range []struct {
		name  string
		epoch uint64
	}{{"fresh", ft.Epoch()}, {"stale", ft.Epoch() - 1}} {
		ops := []HeadOp{{Key: "t", Branch: "master", Any: true, Set: ver.UID, Epoch: bc.epoch}}
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			b.ReportMetric(float64(len(rec.got)), "chunks/op")
			for i := 0; i < b.N; i++ {
				if _, ok, err := ft.Commit(rec.Store, rec.got, ops); err != nil || !ok {
					b.Fatalf("Commit = %v, %v", ok, err)
				}
			}
		})
	}
}
