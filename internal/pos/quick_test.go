package pos

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"forkbase/internal/index"
	"forkbase/internal/store"
)

// opsBatch is a generatable random edit workload for testing/quick.
type opsBatch struct {
	Seed  int64
	NOps  int
	Base  int // base tree size
	Shape int // 0: random ops; otherwise picks one of adversarialShapes
}

// Generate implements quick.Generator so batches stay within useful bounds.
func (opsBatch) Generate(r *rand.Rand, size int) reflect.Value {
	return reflect.ValueOf(opsBatch{
		Seed:  r.Int63(),
		NOps:  1 + r.Intn(60),
		Base:  300 + r.Intn(800), // at least four levels under testCfg
		Shape: r.Intn(3) * (1 + r.Intn(1<<16)),
	})
}

func (b opsBatch) baseEntries() []Entry {
	entries := make([]Entry, b.Base)
	for i := range entries {
		entries[i] = Entry{
			Key: []byte(fmt.Sprintf("key-%07d", i)),
			Val: []byte(fmt.Sprintf("val-%d", i)),
		}
	}
	return entries
}

func (b opsBatch) ops() []Op {
	rng := rand.New(rand.NewSource(b.Seed))
	ops := make([]Op, b.NOps)
	for i := range ops {
		switch rng.Intn(4) {
		case 0:
			ops[i] = Put([]byte(fmt.Sprintf("key-%07d", rng.Intn(b.Base))), []byte(fmt.Sprintf("upd-%d", rng.Int())))
		case 1:
			ops[i] = Put([]byte(fmt.Sprintf("ins-%07d", rng.Intn(10000))), []byte("new"))
		case 2:
			ops[i] = Del([]byte(fmt.Sprintf("key-%07d", rng.Intn(b.Base))))
		default:
			ops[i] = Del([]byte(fmt.Sprintf("ghost-%d", rng.Intn(1000))))
		}
	}
	return ops
}

// QuickProperty: incremental Edit ≡ EditRebuild ≡ from-scratch build, for
// arbitrary op batches — the SIRI structural-invariance property.
func TestQuickEditEquivalence(t *testing.T) {
	st := store.NewMemStore()
	f := func(b opsBatch) bool {
		base := b.baseEntries()
		tree, err := BuildMap(st, testCfg(), base)
		if err != nil {
			return false
		}
		ops, shape := b.ops(), "random"
		if b.Shape != 0 {
			layout, err := leafLayout(tree)
			if err != nil {
				return false
			}
			shapes := adversarialShapes(layout)
			sh := shapes[b.Shape%len(shapes)]
			// The shape rides along with the random ops, which land inside,
			// between and around its splices.
			ops, shape = append(ops, sh.ops...), sh.name
		}
		if err := checkEditEquivalence(st, tree, base, ops); err != nil {
			t.Logf("seed=%d nops=%d base=%d shape=%q: %v", b.Seed, b.NOps, b.Base, shape, err)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// deltaOps turns a diff into the edit that replays it: each delta becomes a
// put (To != nil) or a delete.
func deltaOps(deltas []index.Delta) []Op {
	ops := make([]Op, 0, len(deltas))
	for _, d := range deltas {
		if d.To == nil {
			ops = append(ops, Del(d.Key))
		} else {
			ops = append(ops, Put(d.Key, d.To))
		}
	}
	return ops
}

// QuickProperty: Edit(A, ops(Diff(A,B))) == B, in both directions, for
// arbitrary divergent trees.
func TestQuickDiffApplyRoundTrip(t *testing.T) {
	st := store.NewMemStore()
	f := func(b opsBatch) bool {
		a, err := BuildMap(st, testCfg(), b.baseEntries())
		if err != nil {
			return false
		}
		c, err := a.Edit(b.ops())
		if err != nil {
			return false
		}
		deltas, _, err := a.Diff(c)
		if err != nil {
			return false
		}
		applied, err := a.Edit(deltaOps(deltas))
		if err != nil {
			return false
		}
		if applied.Root() != c.Root() {
			return false
		}
		// And the reverse direction.
		back, _, err := c.Diff(a)
		if err != nil {
			return false
		}
		reverted, err := c.Edit(deltaOps(back))
		if err != nil {
			return false
		}
		return reverted.Root() == a.Root()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// QuickProperty: disjoint three-way merges commute and equal the sequential
// application of both edit sets.
func TestQuickMergeDisjointCommutes(t *testing.T) {
	st := store.NewMemStore()
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 200 + rng.Intn(600)
		entries := make([]Entry, n)
		for i := range entries {
			entries[i] = Entry{Key: []byte(fmt.Sprintf("key-%07d", i)), Val: []byte("base")}
		}
		base, err := BuildMap(st, testCfg(), entries)
		if err != nil {
			return false
		}
		// Side A edits even indexes, side B odd — guaranteed disjoint.
		var opsA, opsB []Op
		for i := 0; i < 10; i++ {
			ia := rng.Intn(n/2) * 2
			ib := rng.Intn(n/2)*2 + 1
			opsA = append(opsA, Put([]byte(fmt.Sprintf("key-%07d", ia)), []byte(fmt.Sprintf("A%d", i))))
			opsB = append(opsB, Put([]byte(fmt.Sprintf("key-%07d", ib)), []byte(fmt.Sprintf("B%d", i))))
		}
		a, err := base.Edit(opsA)
		if err != nil {
			return false
		}
		bb, err := base.Edit(opsB)
		if err != nil {
			return false
		}
		m1, _, err := index.Merge3(base, a, bb, nil)
		if err != nil {
			return false
		}
		m2, _, err := index.Merge3(base, bb, a, nil)
		if err != nil {
			return false
		}
		seq, err := base.Edit(append(append([]Op{}, opsA...), opsB...))
		if err != nil {
			return false
		}
		return m1.Root() == m2.Root() && m1.Root() == seq.Root()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// QuickProperty: tree content equals a sorted map model for random builds.
func TestQuickBuildModelEquivalence(t *testing.T) {
	st := store.NewMemStore()
	f := func(raw map[string]string) bool {
		entries := make([]Entry, 0, len(raw))
		for k, v := range raw {
			entries = append(entries, Entry{Key: []byte(k), Val: []byte(v)})
		}
		tree, err := BuildMap(st, testCfg(), entries)
		if err != nil {
			return false
		}
		if tree.Len() != uint64(len(raw)) {
			return false
		}
		got, err := tree.Entries()
		if err != nil {
			return false
		}
		keys := make([]string, 0, len(raw))
		for k := range raw {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		if len(got) != len(keys) {
			return false
		}
		for i, k := range keys {
			if string(got[i].Key) != k || string(got[i].Val) != raw[k] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// QuickProperty: sequence splice equals the slice-model splice.
func TestQuickSeqSpliceModel(t *testing.T) {
	st := store.NewMemStore()
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 100 + rng.Intn(500)
		items := make([][]byte, n)
		for i := range items {
			items[i] = []byte(fmt.Sprintf("item-%06d", i))
		}
		s, err := BuildSeq(st, testCfg(), items)
		if err != nil {
			return false
		}
		at := uint64(rng.Intn(n + 1))
		del := uint64(rng.Intn(20))
		if at+del > uint64(n) {
			del = uint64(n) - at
		}
		ins := make([][]byte, rng.Intn(10))
		for i := range ins {
			ins[i] = []byte(fmt.Sprintf("new-%d-%d", seed, i))
		}
		spliced, err := s.Splice(at, del, ins)
		if err != nil {
			return false
		}
		model := append(append(append([][]byte{}, items[:at]...), ins...), items[at+del:]...)
		fresh, err := BuildSeq(st, testCfg(), model)
		if err != nil {
			return false
		}
		return spliced.Root() == fresh.Root() && spliced.Len() == uint64(len(model))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// QuickProperty: blob round-trips arbitrary byte strings and splices match
// the byte-slice model.
func TestQuickBlobModel(t *testing.T) {
	st := store.NewMemStore()
	f := func(data []byte, at16 uint16, del8 uint8, ins []byte) bool {
		b, err := BuildBlob(st, testCfg(), data)
		if err != nil {
			return false
		}
		got, err := b.Bytes()
		if err != nil || !bytes.Equal(got, data) {
			return false
		}
		at := uint64(at16) % uint64(len(data)+1)
		del := uint64(del8)
		if at+del > uint64(len(data)) {
			del = uint64(len(data)) - at
		}
		spliced, err := b.Splice(at, del, ins)
		if err != nil {
			return false
		}
		model := append(append(append([]byte{}, data[:at]...), ins...), data[at+del:]...)
		sb, err := spliced.Bytes()
		if err != nil || !bytes.Equal(sb, model) {
			return false
		}
		fresh, err := BuildBlob(st, testCfg(), model)
		if err != nil {
			return false
		}
		return fresh.Root() == spliced.Root()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
