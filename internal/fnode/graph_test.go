package fnode

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"runtime"
	"slices"
	"sort"
	"testing"

	"forkbase/internal/chunk"
	"forkbase/internal/chunker"
	"forkbase/internal/hash"
	"forkbase/internal/index"
	"forkbase/internal/pos"
	"forkbase/internal/store"
	"forkbase/internal/value"
)

// goldenChunks returns one stored chunk per chunk type, by smallest id: a
// POS map, an MPT map, a list and a blob under the small chunking config,
// and a version object over each.
func goldenChunks(t testing.TB) []*chunk.Chunk {
	t.Helper()
	st, cfg := store.NewMemStore(), chunker.SmallConfig()
	entries := make([]pos.Entry, 400)
	items := make([][]byte, len(entries))
	var data []byte
	for i := range entries {
		entries[i] = pos.Entry{Key: []byte(fmt.Sprintf("row-%04d", i)), Val: []byte(fmt.Sprintf("val-%d", i))}
		items[i] = entries[i].Val
		data = append(data, entries[i].Key...)
	}
	var prev []hash.Hash
	for _, mk := range []func() (value.Value, error){
		func() (value.Value, error) { return value.NewMap(st, cfg, entries) },
		func() (value.Value, error) { return value.NewMapWith(st, cfg, index.KindMPT, entries) },
		func() (value.Value, error) { return value.NewList(st, cfg, items) },
		func() (value.Value, error) { return value.NewBlob(st, cfg, data) },
	} {
		v, err := mk()
		if err != nil {
			t.Fatal(err)
		}
		uid, err := New([]byte("obj"), v, prev, uint64(len(prev)+1), map[string]string{"by": "golden"}).Save(st)
		if err != nil {
			t.Fatal(err)
		}
		prev = append(prev, uid)
	}
	ids := st.IDs()
	sort.Slice(ids, func(i, j int) bool { return ids[i].Compare(ids[j]) < 0 })
	byType := map[chunk.Type]*chunk.Chunk{
		chunk.TypeCellar: chunk.New(chunk.TypeCellar, []byte("inline")),
		chunk.TypeTag:    chunk.New(chunk.TypeTag, []byte("master")),
	}
	for _, id := range ids {
		c, err := st.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		if byType[c.Type()] == nil {
			byType[c.Type()] = c
		}
	}
	var out []*chunk.Chunk
	for typ := chunk.TypeBlobLeaf; typ.Valid(); typ++ {
		if byType[typ] == nil {
			t.Fatalf("no golden chunk of type %s", typ)
		}
		out = append(out, byType[typ])
	}
	return out
}

// chunkOf splits a [type][payload] encoding into a chunk; false when the
// type byte names no chunk type.
func chunkOf(enc []byte) (*chunk.Chunk, bool) {
	if len(enc) == 0 || !chunk.Type(enc[0]).Valid() {
		return nil, false
	}
	return chunk.New(chunk.Type(enc[0]), enc[1:]), true
}

// hostileChunks are encodings (type byte + payload) a peer could hand heal
// or a replica in place of a real chunk.
func hostileChunks() map[string][]byte {
	uvarint := func(x uint64) []byte { return binary.AppendUvarint(nil, x) }
	cat := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
	fn := []byte{byte(chunk.TypeFNode)}
	key := cat(uvarint(3), []byte("obj"))
	str := cat(uvarint(2), []byte{byte(value.KindString), 'x'})
	return map[string][]byte{
		"unknown type":                         {0xEE, 1, 2, 3},
		"empty fnode":                          fn,
		"fnode truncated in the key":           cat(fn, uvarint(9), []byte("ob")),
		"fnode truncated after seq":            cat(fn, key, uvarint(1)),
		"fnode base count larger than bytes":   cat(fn, key, uvarint(1), uvarint(1<<40), make([]byte, 64)),
		"fnode base count overflows int":       cat(fn, key, uvarint(1), uvarint(1<<63)),
		"fnode meta count larger than bytes":   cat(fn, key, uvarint(1), uvarint(0), str, uvarint(1<<40)),
		"fnode meta count sized as a map hint": cat(fn, key, uvarint(1), uvarint(0), str, uvarint(1<<24)),
		"fnode with an unknown value kind":     cat(fn, key, uvarint(1), uvarint(0), uvarint(1), []byte{0x7F}, uvarint(0)),
		"fnode with a short composite":         cat(fn, key, uvarint(1), uvarint(0), uvarint(2), []byte{byte(value.KindMap), 0}, uvarint(0)),
		"fnode with an unknown index kind":     cat(fn, key, uvarint(1), uvarint(0), str, uvarint(0), []byte{0x7F}),
		"fnode with an MPT kind on a string":   cat(fn, key, uvarint(1), uvarint(0), str, uvarint(0), []byte{byte(index.KindMPT)}),
		"map index with a bogus child count":   cat([]byte{byte(chunk.TypeMapIndex), 1}, uvarint(1<<50), make([]byte, 40)),
		"seq index with a bogus child count":   cat([]byte{byte(chunk.TypeSeqIndex), 1}, uvarint(1<<50), make([]byte, 40)),
		"map index of level 0":                 {byte(chunk.TypeMapIndex), 0, 0},
		"mpt branch with children cut short":   cat([]byte{byte(chunk.TypeMPTNode), 2, 0xFF, 0xFF}, make([]byte, 40)),
		"mpt extension with an endless path":   cat([]byte{byte(chunk.TypeMPTNode), 1}, uvarint(1<<62)),
		"mpt node of an unknown kind":          {byte(chunk.TypeMPTNode), 9},
		"index node with no payload at all":    {byte(chunk.TypeSeqIndex)},
		"mpt node with no payload at all":      {byte(chunk.TypeMPTNode)},
		"fnode that is only a huge key count":  cat(fn, uvarint(1<<60)),
		"fnode with a zero-padded seq":         cat(fn, key, []byte{0x81, 0x00}, uvarint(0), str, uvarint(0)),
		"fnode whose value has a trailing byte": cat(fn, key, uvarint(1), uvarint(0), uvarint(1+hash.Size+2),
			[]byte{byte(value.KindMap)}, bytes.Repeat([]byte{7}, hash.Size), uvarint(5), []byte{0}, uvarint(0)),
		"fnode with meta keys out of order": cat(fn, key, uvarint(1), uvarint(0), str, uvarint(2),
			uvarint(1), []byte("b"), uvarint(0), uvarint(1), []byte("a"), uvarint(0)),
	}
}

func TestRefs(t *testing.T) {
	var fnodes, inner, leaves int
	for _, c := range goldenChunks(t) {
		refs, err := Refs(c)
		if err != nil {
			t.Fatalf("golden %s: %v", c.Type(), err)
		}
		switch c.Type() {
		case chunk.TypeFNode:
			f, _ := Decode(c.Data())
			if want := append(append([]hash.Hash(nil), f.Bases...), f.Value.Root()); !slices.Equal(refs, want) {
				t.Fatalf("FNode refs %v, want its bases and its value root %v", refs, want)
			}
			fnodes++
		case chunk.TypeMapIndex, chunk.TypeSeqIndex, chunk.TypeMPTNode:
			if len(refs) > 0 {
				inner++
			}
		default:
			if len(refs) != 0 {
				t.Fatalf("%s leaf has refs %v", c.Type(), refs)
			}
			leaves++
		}
	}
	if fnodes != 1 || inner < 2 || leaves < 5 {
		t.Fatalf("golden set covers %d FNodes, %d inner nodes, %d leaves", fnodes, inner, leaves)
	}
	// A primitive's FNode links its bases and nothing else.
	base := hash.Of([]byte("base"))
	prim := chunk.New(chunk.TypeFNode, New([]byte("k"), value.Int(7), []hash.Hash{base}, 2, nil).Encode())
	if refs, err := Refs(prim); err != nil || !slices.Equal(refs, []hash.Hash{base}) {
		t.Fatalf("primitive FNode refs %v (%v)", refs, err)
	}
	for name, enc := range hostileChunks() {
		c, ok := chunkOf(enc)
		if !ok {
			continue // rejected before Refs could see it
		}
		if refs, err := Refs(c); err == nil {
			t.Errorf("%s: accepted, refs %v", name, refs)
		}
	}
}

// FuzzRefs: Refs is what heal and replica sync run over bytes a peer sent,
// before anything has hashed them.  It must not panic, must not allocate by
// a length field instead of by the input, and an FNode it accepts must
// re-encode, value descriptor included, to the bytes it came from: one
// version, one uid.
func FuzzRefs(f *testing.F) {
	for _, c := range goldenChunks(f) {
		f.Add(append([]byte{byte(c.Type())}, c.Data()...))
	}
	for _, enc := range hostileChunks() {
		f.Add(enc)
	}
	f.Fuzz(func(t *testing.T, enc []byte) {
		c, ok := chunkOf(enc)
		if !ok {
			return
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		refs, err := Refs(c)
		runtime.ReadMemStats(&after)
		if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(1<<16+256*len(enc)); got > limit {
			t.Fatalf("%d-byte %s chunk allocated %d bytes (limit %d)", len(enc), c.Type(), got, limit)
		}
		if err == nil && len(refs)*hash.Size > len(enc) {
			t.Fatalf("%d refs out of %d bytes", len(refs), len(enc))
		}
		if err == nil && c.Type() == chunk.TypeFNode {
			f, _ := Decode(c.Data())
			if !bytes.Equal(f.Encode(), c.Data()) {
				t.Fatalf("accepted FNode %x re-encodes as %x", c.Data(), f.Encode())
			}
		}
	})
}

// TestWalk drives Walk over a graph wider than one batch: a version with
// 1500 bases, each a version of a primitive.
func TestWalk(t *testing.T) {
	st := store.NewMemStore()
	bases := make([]hash.Hash, 1500)
	for i := range bases {
		uid, err := New([]byte("k"), value.Int(int64(i)), nil, 1, nil).Save(st)
		if err != nil {
			t.Fatal(err)
		}
		bases[i] = uid
	}
	root, err := New([]byte("k"), value.Int(-1), bases, 2, nil).Save(st)
	if err != nil {
		t.Fatal(err)
	}

	var calls []int
	fetched := map[hash.Hash]int{}
	fetch := func(ids []hash.Hash) ([]*chunk.Chunk, error) {
		calls = append(calls, len(ids))
		for _, id := range ids {
			fetched[id]++
		}
		return st.GetBatch(ids)
	}
	seen := map[hash.Hash]bool{}
	// Zero and repeated roots are dropped.
	if err := Walk([]hash.Hash{root, {}, root}, seen, fetch, nil); err != nil {
		t.Fatal(err)
	}
	if want := []int{1, WalkBatch, WalkBatch, 1500 - 2*WalkBatch}; fmt.Sprint(calls) != fmt.Sprint(want) {
		t.Fatalf("fetch batches %v, want %v", calls, want)
	}
	if len(seen) != 1501 || len(fetched) != 1501 {
		t.Fatalf("seen %d, fetched %d, want 1501", len(seen), len(fetched))
	}
	for id, n := range fetched {
		if n != 1 {
			t.Fatalf("%s fetched %d times", id.Short(), n)
		}
	}

	// A shared seen set makes a second walk a no-op.
	calls = nil
	if err := Walk([]hash.Hash{root}, seen, fetch, nil); err != nil || len(calls) != 0 {
		t.Fatalf("second walk over the same seen set: %v, fetches %v", err, calls)
	}

	// A nil slot prunes: nothing below the root is asked for.
	calls = nil
	err = Walk([]hash.Hash{root}, map[hash.Hash]bool{}, func(ids []hash.Hash) ([]*chunk.Chunk, error) {
		calls = append(calls, len(ids))
		return make([]*chunk.Chunk, len(ids)), nil
	}, nil)
	if err != nil || fmt.Sprint(calls) != "[1]" {
		t.Fatalf("pruned walk: %v, fetches %v", err, calls)
	}

	// A fetch that answers for the wrong number of ids, or a chunk that
	// does not decode, ends the walk with an error.
	if err := Walk([]hash.Hash{root}, map[hash.Hash]bool{}, func([]hash.Hash) ([]*chunk.Chunk, error) { return nil, nil }, nil); err == nil {
		t.Fatal("short fetch accepted")
	}
	bad := chunk.New(chunk.TypeFNode, []byte{0xFF})
	if err := Walk([]hash.Hash{bad.ID()}, map[hash.Hash]bool{}, func([]hash.Hash) ([]*chunk.Chunk, error) { return []*chunk.Chunk{bad}, nil }, nil); err == nil {
		t.Fatal("undecodable chunk accepted")
	}
}
