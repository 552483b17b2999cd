package pos

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"forkbase/internal/chunker"
	"forkbase/internal/hash"
	"forkbase/internal/store"
)

// The tests in this file pin appendRun, the copy of unchanged old entries
// that every re-chunk goes through: an edit that copies bytes its old nodes
// vouch for must cut exactly where hashing every byte would.

// runConfigs are the chunkings the run table covers: the test pages, whose
// MinSize is below the 48-byte window, and tight pages whose MaxSize is three
// times MinSize, so size cuts and pattern cuts interleave.
var runConfigs = []struct {
	name string
	cfg  chunker.Config
}{
	{"small", chunker.SmallConfig()},
	{"tight", chunker.Config{Q: 8, Window: 48, MinSize: 64, MaxSize: 192}},
}

// runBases are the tables the run table edits.  Values cycle through sizes
// below and above the window.  Mixed keys of 6 to 26 bytes make index refs
// of about 40 to 60 bytes, on both sides of the window; the 1-byte keys make
// refs of 35 bytes, shorter than it.
var runBases = []struct {
	name string
	rows func() []Entry
}{
	{"mixed", func() []Entry {
		return mixedRows(400, func(i int) []byte { return fmt.Appendf(nil, "k%05d%s", i, strings.Repeat("-", i%3*10)) })
	}},
	{"1-byte keys", func() []Entry { return mixedRows(256, func(i int) []byte { return []byte{byte(i)} }) }},
}

// mixedRows returns n sorted rows with value sizes cycling from 1 to 150
// bytes of random text.
func mixedRows(n int, key func(int) []byte) []Entry {
	rng := rand.New(rand.NewSource(int64(n)))
	sizes := []int{1, 10, 30, 47, 48, 60, 100, 150, 5}
	out := make([]Entry, n)
	for i := range out {
		out[i] = Entry{Key: key(i), Val: randText(rng, sizes[i%len(sizes)])}
	}
	return out
}

func randText(rng *rand.Rand, n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = "abcdefghijklmnopqrstuvwxyz012345"[rng.Intn(32)]
	}
	return b
}

// runRows derives the table's op batches from the leaves of a tree built
// under cfg: each row aims at a place where a copied run's proof ends.
func runRows(cfg chunker.Config, layout [][][]Entry) []editShape {
	var leaves [][]Entry
	for _, g := range layout {
		leaves = append(leaves, g...)
	}
	mid := leaves[len(leaves)/2]
	lastLeaf := leaves[len(leaves)-1]
	long := func(n int) []byte { return randText(rand.New(rand.NewSource(int64(n))), n) }
	suffixed := func(k []byte, i int) []byte { return append(append([]byte(nil), k...), fmt.Sprintf("+%04d", i)...) }

	// The entry of the middle leaf that starts inside its first MinSize
	// bytes, past the first entry when one does.
	early, off := 0, 0
	for j, e := range mid[:len(mid)-1] {
		if off += len(encodeEntry(nil, e)); off < cfg.MinSize {
			early = j + 1
		}
	}
	var grow, appends, scattered, shrink, shortLong []Op
	for i := 0; i < 2*cfg.MaxSize/40; i++ {
		grow = append(grow, Put(suffixed(mid[0].Key, i), long(30)))
	}
	for i := 0; i < 30; i++ {
		appends = append(appends, Put(suffixed(lastLeaf[len(lastLeaf)-1].Key, i), long(i*7%90+1)))
	}
	for i, l := range leaves {
		if i%3 == 0 {
			scattered = append(scattered, Put(l[len(l)/2].Key, long(len(l)+3)))
		}
	}
	for _, e := range mid[:len(mid)-1] {
		shrink = append(shrink, Put(e.Key, []byte("s")))
	}
	for _, e := range mid {
		if len(e.Val) < 48 {
			shortLong = append(shortLong, Put(e.Key, long(120)))
		} else {
			shortLong = append(shortLong, Put(e.Key, long(3)))
		}
	}
	// Exact: the first entry of every fourth leaf grows so that the leaf's
	// second-last entry ends exactly at MaxSize, where a size cut falls on
	// copied bytes.
	var exact []Op
	for i, l := range leaves {
		if i%4 != 0 || len(l) < 3 {
			continue
		}
		rest := 0
		for _, e := range l[1 : len(l)-1] {
			rest += len(encodeEntry(nil, e))
		}
		k := l[0].Key
		for n := 0; n < cfg.MaxSize; n++ {
			if uvarintLen(uint64(len(k)))+len(k)+uvarintLen(uint64(n))+n+rest == cfg.MaxSize {
				exact = append(exact, Put(k, long(n)))
				break
			}
		}
	}
	group := layout[len(layout)/2]
	// Every level-1 index node's last child changes, so its parent's cut
	// there may move and the re-chunk run on into the next node's first ref.
	var groupEnds, groupLasts []Op
	for _, g := range layout {
		l := g[len(g)-1]
		groupEnds = append(groupEnds, Del(l[len(l)-1].Key))
		groupLasts = append(groupLasts, Put(l[len(l)/2].Key, []byte("changed")))
	}
	delAll := func(es []Entry) []Op {
		var ops []Op
		for _, e := range es {
			ops = append(ops, Del(e.Key))
		}
		return ops
	}
	return []editShape{
		{"inside the first MinSize bytes", []Op{Put(mid[early].Key, long(len(mid[early].Val)+9))}},
		{"first entry", []Op{Put(mid[0].Key, long(len(mid[0].Val)+1))}},
		{"last entry", []Op{Put(mid[len(mid)-1].Key, long(len(mid[len(mid)-1].Val)+2))}},
		{"last entry deleted", []Op{Del(mid[len(mid)-1].Key)}},
		{"growth past MaxSize", grow},
		{"exactly MaxSize at an old entry's end", exact},
		{"an entry longer than MaxSize", []Op{Put(mid[len(mid)/2].Key, long(cfg.MaxSize+100))}},
		{"shrink below MinSize", shrink},
		{"leading entries deleted", delAll(mid[:len(mid)-1])},
		{"a whole node deleted", delAll(mid)},
		{"an index node's last leaf deleted", delAll(group[len(group)-1])},
		{"every index node's last entry deleted", groupEnds},
		{"every index node's last leaf changed", groupLasts},
		{"an index node's first leaf grown", []Op{Put(group[0][0].Key, long(len(group[0][0].Val)+40))}},
		{"appends past the end", appends},
		{"short and long swapped", shortLong},
		{"every third leaf", scattered},
	}
}

// TestEditRunsMatchRebuild runs the run table: every edit is byte-identical
// to EditRebuild and to a fresh BuildMap of the edited rows.
func TestEditRunsMatchRebuild(t *testing.T) {
	for _, rc := range runConfigs {
		for _, base := range runBases {
			rows := base.rows()
			st := store.NewMemStore()
			tree, err := BuildMap(st, rc.cfg, rows)
			if err != nil {
				t.Fatal(err)
			}
			layout, err := leafLayout(tree)
			if err != nil {
				t.Fatal(err)
			}
			if len(layout) < 2 {
				t.Fatalf("%s/%s: %d level-1 groups, want an index level above the leaves' parents", rc.name, base.name, len(layout))
			}
			for _, row := range runRows(rc.cfg, layout) {
				t.Run(rc.name+"/"+base.name+"/"+row.name, func(t *testing.T) {
					if err := checkEditEquivalence(st, tree, rows, row.ops); err != nil {
						t.Fatal(err)
					}
				})
			}
		}
	}
}

// encodeOps is the fuzz corpus form of a batch: per op a delete flag, then
// the length-prefixed key and value.
func encodeOps(ops []Op) []byte {
	var b []byte
	for _, o := range ops {
		flag := byte(0)
		if o.Delete {
			flag = 1
		}
		b = append(b, flag)
		b = binary.AppendUvarint(b, uint64(len(o.Key)))
		b = append(b, o.Key...)
		b = binary.AppendUvarint(b, uint64(len(o.Val)))
		b = append(b, o.Val...)
	}
	return b
}

// decodeOps reads encodeOps' form up to the first malformed op.
func decodeOps(b []byte) []Op {
	var ops []Op
	field := func() ([]byte, bool) {
		n, sz := binary.Uvarint(b)
		if sz <= 0 || n > uint64(len(b)-sz) {
			return nil, false
		}
		f := b[sz : sz+int(n)]
		b = b[sz+int(n):]
		return f, true
	}
	for len(b) > 0 {
		del := b[0]&1 == 1
		b = b[1:]
		k, ok := field()
		if !ok {
			break
		}
		v, ok := field()
		if !ok {
			break
		}
		if del {
			ops = append(ops, Del(k))
		} else {
			ops = append(ops, Put(k, v))
		}
	}
	return ops
}

// normalShiftRows are batches whose copied runs cross a leaf's normal point
// (2^Q, where the easy pattern starts to count): in every leaf that reaches
// it, the first entry grows by 24 bytes, moving the bytes before the point
// across it, or the first entry with at least 30 value bytes below the point
// shrinks to one byte, moving bytes past it back below.
func normalShiftRows(cfg chunker.Config, layout [][][]Entry) []editShape {
	var up, down []Op
	for _, g := range layout {
		for _, l := range g {
			size := 0
			for _, e := range l {
				size += len(encodeEntry(nil, e))
			}
			if size <= cfg.NormalSize() {
				continue
			}
			up = append(up, Put(l[0].Key, append(bytes.Repeat([]byte{'+'}, 24), l[0].Val...)))
			off := 0
			for _, e := range l {
				if off >= cfg.NormalSize() {
					break
				}
				if len(e.Val) >= 30 {
					down = append(down, Put(e.Key, []byte("s")))
					break
				}
				off += len(encodeEntry(nil, e))
			}
		}
	}
	if len(up) == 0 {
		return nil
	}
	return []editShape{{"runs shifted up across the normal point", up}, {"runs shifted down across the normal point", down}}
}

// FuzzEditMatchesRebuild edits the run table's trees with arbitrary batches,
// seeded with the table's rows and with runs shifted across the normal point.
func FuzzEditMatchesRebuild(f *testing.F) {
	for ci, rc := range runConfigs {
		for bi, base := range runBases {
			tree, err := BuildMap(store.NewMemStore(), rc.cfg, base.rows())
			if err != nil {
				f.Fatal(err)
			}
			layout, err := leafLayout(tree)
			if err != nil {
				f.Fatal(err)
			}
			for _, row := range append(runRows(rc.cfg, layout), normalShiftRows(rc.cfg, layout)...) {
				f.Add(uint8(ci), uint8(bi), encodeOps(row.ops))
			}
		}
	}
	f.Fuzz(func(t *testing.T, ci, bi uint8, enc []byte) {
		rc, base := runConfigs[int(ci)%len(runConfigs)], runBases[int(bi)%len(runBases)]
		rows := base.rows()
		st := store.NewMemStore()
		tree, err := BuildMap(st, rc.cfg, rows)
		if err != nil {
			t.Fatal(err)
		}
		if err := checkEditEquivalence(st, tree, rows, decodeOps(enc)); err != nil {
			t.Fatal(err)
		}
	})
}

// TestEditHashesAroundTheChange pins the hashing an edit pays on the two
// BenchmarkEditScattered shapes and on single-element list and blob splices
// (10-byte replacements in a 4 MiB random blob): the bytes the boundary
// hash reads, up to the pattern it stops at, are at most a fifth of the
// bytes the edit emits (a re-chunk that hashed every byte it copied reads
// about as many as it emits).  The map rows shrink values from 82 bytes to
// about 11, which moves easy-region cuts below 2^Q, where three in four no
// longer count; a leaf that merges into the next old one hashes that leaf's
// first MinSize bytes, which its old node never tested, up to its first
// pattern.
func TestEditHashesAroundTheChange(t *testing.T) {
	const rows, batch, edits = 100003, 8, 20
	cfg := chunker.DefaultConfig()
	ms := store.NewMemStore()
	tree, err := BuildMap(ms, cfg, genRows(rows))
	if err != nil {
		t.Fatal(err)
	}
	list, err := BuildSeq(ms, cfg, genItems(rows, 7))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(72))
	data := make([]byte, 4<<20)
	rng.Read(data)
	blob, err := BuildBlob(ms, cfg, data)
	if err != nil {
		t.Fatal(err)
	}
	mapEdit := func(stride int) func(i int) error {
		return func(i int) error {
			ops := make([]Op, batch)
			for j := range ops {
				ops[j] = Put(rowKey((i*131+j*stride)%rows), []byte(fmt.Sprintf("edit-%d-%d", i, j)))
			}
			_, err := tree.Edit(ops)
			return err
		}
	}
	for _, row := range []struct {
		name string
		edit func(i int) error
	}{
		{"clustered", mapEdit(1)},
		{"scattered", mapEdit(rows / batch)},
		{"list splice", func(i int) error {
			_, err := list.Splice(uint64(rng.Intn(rows)), 1, [][]byte{fmt.Appendf(nil, "edit-%d", i)})
			return err
		}},
		{"blob splice", func(i int) error {
			ins := make([]byte, 10)
			rng.Read(ins)
			_, err := blob.Splice(uint64(rng.Intn(len(data)-len(ins))), uint64(len(ins)), ins)
			return err
		}},
	} {
		before, found := ms.Stats().LogicalBytes, findBytes.Load()
		for i := 0; i < edits; i++ {
			if err := row.edit(i); err != nil {
				t.Fatal(err)
			}
		}
		emitted, hashed := ms.Stats().LogicalBytes-before, findBytes.Load()-found
		t.Logf("%s: %d B emitted, %d B hashed per edit", row.name, emitted/edits, hashed/edits)
		if emitted == 0 || hashed*5 > emitted {
			t.Errorf("%s: %d B handed to the boundary hash for %d B emitted, want at most a fifth", row.name, hashed, emitted)
		}
	}
}

// spliceConfigs are the chunkings FuzzSpliceMatchesBuild splices under: the
// test pages (MinSize below the window) and the run table's tight pages,
// where size cuts and pattern cuts interleave.
var spliceConfigs = []chunker.Config{testCfg(), runConfigs[1].cfg}

// spliceBase returns the value FuzzSpliceMatchesBuild splices: the 64 KiB
// random blob of TestBlobSpliceOracle, or a list of 500 items shaped like
// TestQuickSeqSpliceModel's.
func spliceBase(blob bool) (data []byte, items [][]byte) {
	if blob {
		data = make([]byte, 64*1024)
		rand.New(rand.NewSource(31)).Read(data)
		return data, nil
	}
	items = make([][]byte, 500)
	for i := range items {
		items[i] = []byte(fmt.Sprintf("item-%06d", i))
	}
	return nil, items
}

// spliceItems splits a fuzz insertion into list items at every zero byte.
func spliceItems(ins []byte) [][]byte {
	if len(ins) == 0 {
		return nil
	}
	return bytes.Split(ins, []byte{0})
}

// leafElems returns the element count of every leaf of the value rooted at
// root, in order.
func leafElems(st store.Store, root hash.Hash) ([]int, error) {
	n, err := sourceFor(st).Load(root)
	if err != nil {
		return nil, err
	}
	if n.isLeaf() {
		return []int{n.elems()}, nil
	}
	var out []int
	for i := 0; i < n.len(); i++ {
		sub, err := leafElems(st, n.ref(i).id)
		if err != nil {
			return nil, err
		}
		out = append(out, sub...)
	}
	return out, nil
}

// FuzzSpliceMatchesBuild splices a list or a blob at an arbitrary place:
// the result equals a fresh build of the spliced content, and the splice
// stores no chunk that its result does not reference.  The seeds are the
// TestBlobSpliceOracle and TestQuickSeqSpliceModel shapes, and splices near
// a leaf's start that shift the rest of a leaf reaching the normal point up
// or down across it.
func FuzzSpliceMatchesBuild(f *testing.F) {
	cfg := spliceConfigs[0]
	for _, blob := range []bool{true, false} {
		data, items := spliceBase(blob)
		var root hash.Hash
		st := store.NewMemStore()
		if blob {
			b, err := BuildBlob(st, cfg, data)
			if err != nil {
				f.Fatal(err)
			}
			root = b.Root()
		} else {
			s, err := BuildSeq(st, cfg, items)
			if err != nil {
				f.Fatal(err)
			}
			root = s.Root()
		}
		leaves, err := leafElems(st, root)
		if err != nil {
			f.Fatal(err)
		}
		// Shift by 24 bytes: 24 blob bytes, or two list items of 11 bytes
		// and a length prefix each.
		ins, del, width := bytes.Repeat([]byte{'+'}, 24), 24, 1
		if !blob {
			ins, del, width = []byte("item-+00000\x00item-+00001"), 2, 12
		}
		var up, down bool
		at := 0
		for _, n := range leaves {
			if n*width > cfg.NormalSize()+24 && !up {
				f.Add(blob, uint8(0), uint32(at+1), uint16(0), ins)
				up = true
			} else if n*width > cfg.NormalSize()+24 && !down {
				f.Add(blob, uint8(0), uint32(at+1), uint16(del), []byte(nil))
				down = true
			}
			at += n
		}
		if !up || !down {
			f.Fatalf("blob %v: no two leaves reach past the normal point", blob)
		}
	}
	rng := rand.New(rand.NewSource(31))
	for i := 0; i < 8; i++ {
		ins := make([]byte, rng.Intn(400))
		rng.Read(ins)
		f.Add(true, uint8(i), uint32(rng.Intn(64*1024+1)), uint16(rng.Intn(500)), ins)
		var items [][]byte
		for j := rng.Intn(10); j > 0; j-- {
			items = append(items, fmt.Appendf(nil, "new-%d-%d", i, j))
		}
		f.Add(false, uint8(i), uint32(rng.Intn(501)), uint16(rng.Intn(20)), bytes.Join(items, []byte{0}))
	}
	f.Fuzz(func(t *testing.T, blob bool, ci uint8, at uint32, del uint16, ins []byte) {
		cfg := spliceConfigs[int(ci)%len(spliceConfigs)]
		st := store.NewMemStore()
		data, items := spliceBase(blob)
		var splice, fresh func() (splicedValue, error)
		if blob {
			b, err := BuildBlob(st, cfg, data)
			if err != nil {
				t.Fatal(err)
			}
			pos := uint64(at) % uint64(len(data)+1)
			want := append(append(append([]byte(nil), data[:pos]...), ins...), data[min(pos+uint64(del), uint64(len(data))):]...)
			splice = func() (splicedValue, error) { return b.Splice(pos, uint64(del), ins) }
			fresh = func() (splicedValue, error) { return BuildBlob(st, cfg, want) }
		} else {
			s, err := BuildSeq(st, cfg, items)
			if err != nil {
				t.Fatal(err)
			}
			pos, add := uint64(at)%uint64(len(items)+1), spliceItems(ins)
			want := append(append(append([][]byte(nil), items[:pos]...), add...), items[min(pos+uint64(del), uint64(len(items))):]...)
			splice = func() (splicedValue, error) { return s.Splice(pos, uint64(del), add) }
			fresh = func() (splicedValue, error) { return BuildSeq(st, cfg, want) }
		}
		if err := checkSpliceEquivalence(st, splice, fresh); err != nil {
			t.Fatalf("splice at %d of %d, %d bytes inserted: %v", at, del, len(ins), err)
		}
	})
}

// splicedValue is what a splice returns, a *Seq or a *Blob.
type splicedValue interface {
	Root() hash.Hash
	ChunkIDs() ([]hash.Hash, error)
}

// checkSpliceEquivalence runs splice over st, the MemStore under the value
// it splices: its result equals fresh's, a build of the spliced content, and
// it stores no chunk that its result does not reference.
func checkSpliceEquivalence(st *store.MemStore, splice, fresh func() (splicedValue, error)) error {
	before := map[hash.Hash]bool{}
	for _, id := range st.IDs() {
		before[id] = true
	}
	got, err := splice()
	if err != nil {
		return fmt.Errorf("Splice: %w", err)
	}
	ids, err := got.ChunkIDs()
	if err != nil {
		return fmt.Errorf("ChunkIDs: %w", err)
	}
	for _, id := range ids {
		before[id] = true
	}
	for _, id := range st.IDs() {
		if !before[id] {
			c, _ := st.Get(id)
			return fmt.Errorf("Splice left orphan chunk %s (%s, %d B)", id.Short(), c.Type(), c.Size())
		}
	}
	want, err := fresh()
	if err != nil {
		return fmt.Errorf("fresh build: %w", err)
	}
	if got.Root() != want.Root() {
		return fmt.Errorf("spliced root %s != fresh build %s", got.Root().Short(), want.Root().Short())
	}
	return nil
}
