package pos

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"forkbase/internal/chunk"
	"forkbase/internal/chunker"
	"forkbase/internal/hash"
	"forkbase/internal/store"
)

// formStore builds, into one store, the trees whose every node the node-form
// tests compare with the oracle: the map shapes of the edit tests at both of
// their geometries, a set (empty values), a list, a blob, and one index level
// over each index vector stream.
func formStore(t testing.TB) *store.MemStore {
	t.Helper()
	st := store.NewMemStore()
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	for _, sc := range shapeConfigs() {
		rows := genRows(sc.rows)
		_, err := BuildMap(st, sc.cfg, rows)
		must(err)
		set := make([]Entry, len(rows))
		for i, r := range rows {
			set[i] = Entry{Key: r.Key, Val: []byte{}}
		}
		_, err = BuildMap(st, sc.cfg, set)
		must(err)
		_, err = BuildSeq(st, sc.cfg, genItems(sc.rows, 5))
		must(err)
		var blob []byte
		for _, r := range rows {
			blob = append(blob, r.Val...)
		}
		_, err = BuildBlob(st, sc.cfg, blob)
		must(err)
	}
	sink := store.NewChunkSink(st)
	for _, vec := range indexVectors {
		lb := newLevelBuilder(sink, vec.cfg, 1, vec.isMap)
		for _, r := range vecRefs(vec.seed, vec.n, vec.isMap) {
			must(lb.addRef(r))
		}
		_, err := lb.finish()
		must(err)
	}
	must(sink.Flush())
	return st
}

// TestNodeFormMatchesOracle: over every node of the shape and vector trees —
// map, set, list and blob, at every level — the accessors of a decoded node
// return exactly the entries, refs and items the oracle decoders materialise,
// and the cache charge is the chunk plus its span table.
func TestNodeFormMatchesOracle(t *testing.T) {
	st := formStore(t)
	seen := map[string]int{}
	for _, id := range st.IDs() {
		c, err := st.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		n, size, err := decodeNode(c)
		if err != nil {
			t.Fatalf("%s %s: %v", c.Type(), id.Short(), err)
		}
		seen[fmt.Sprintf("%s@%d", c.Type(), n.level)]++
		if want := c.Size() + n.len()*spanBytes; size != want {
			t.Fatalf("%s %s: charged %d, want %d", c.Type(), id.Short(), size, want)
		}
		if err := matchOracle(c, n); err != nil {
			t.Fatalf("%s %s: %v", c.Type(), id.Short(), err)
		}
	}
	for _, want := range []string{"blob-leaf@0", "map-leaf@0", "map-index@1", "map-index@2", "map-index@3", "seq-leaf@0", "seq-index@1", "seq-index@2"} {
		if seen[want] == 0 {
			t.Errorf("no %s node among %v", want, seen)
		}
	}
	t.Logf("nodes compared: %v", seen)
}

// matchOracle reports the first way n's accessors disagree with the oracle
// decoder of c's type.
func matchOracle(c *chunk.Chunk, n *node) error {
	if n.typ != c.Type() || n.encSize != c.Size() {
		return fmt.Errorf("node is a %s of %d bytes", n.typ, n.encSize)
	}
	sameRefs := func(level uint8, refs []childRef) error {
		if n.level != level || n.len() != len(refs) {
			return fmt.Errorf("level %d with %d refs, oracle: level %d with %d", n.level, n.len(), level, len(refs))
		}
		for i, want := range refs {
			got := n.ref(i)
			if !bytes.Equal(got.splitKey, want.splitKey) || !bytes.Equal(n.key(i), want.splitKey) ||
				got.id != want.id || got.count != want.count || n.count(i) != want.count {
				return fmt.Errorf("ref %d: %q %s %d, oracle: %q %s %d", i, got.splitKey, got.id.Short(), got.count, want.splitKey, want.id.Short(), want.count)
			}
		}
		return nil
	}
	switch c.Type() {
	case chunk.TypeMapLeaf:
		entries, err := decodeMapLeaf(c.Data())
		if err != nil {
			return err
		}
		if n.level != 0 || n.len() != len(entries) {
			return fmt.Errorf("level %d with %d entries, oracle: %d", n.level, n.len(), len(entries))
		}
		for i, want := range entries {
			if got := n.entry(i); !bytes.Equal(got.Key, want.Key) || !bytes.Equal(got.Val, want.Val) || !bytes.Equal(n.key(i), want.Key) {
				return fmt.Errorf("entry %d: %q=%q, oracle: %q=%q", i, got.Key, got.Val, want.Key, want.Val)
			}
		}
	case chunk.TypeMapIndex:
		level, refs, err := decodeMapIndex(c.Data())
		if err != nil {
			return err
		}
		return sameRefs(level, refs)
	case chunk.TypeSeqLeaf:
		items, err := decodeSeqLeaf(c.Data())
		if err != nil {
			return err
		}
		if n.level != 0 || n.len() != len(items) {
			return fmt.Errorf("level %d with %d items, oracle: %d", n.level, n.len(), len(items))
		}
		for i, want := range items {
			if got := n.item(i); !bytes.Equal(got, want) {
				return fmt.Errorf("item %d: %q, oracle: %q", i, got, want)
			}
		}
	case chunk.TypeSeqIndex:
		level, refs, err := decodeSeqIndex(c.Data())
		if err != nil {
			return err
		}
		return sameRefs(level, refs)
	case chunk.TypeBlobLeaf:
		if n.len() != 0 || !bytes.Equal(n.data, c.Data()) {
			return fmt.Errorf("blob leaf with %d spans and %d bytes", n.len(), len(n.data))
		}
	}
	return nil
}

// reencode renders n back into its payload through the writer's encoders.
func reencode(n *node) []byte {
	if n.typ == chunk.TypeBlobLeaf {
		return append([]byte(nil), n.data...)
	}
	out := appendUvarint([]byte{n.level}, uint64(n.len()))
	for i := 0; i < n.len(); i++ {
		switch n.typ {
		case chunk.TypeMapLeaf:
			out = encodeEntry(out, n.entry(i))
		case chunk.TypeMapIndex:
			out = encodeChildRef(out, n.ref(i))
		case chunk.TypeSeqLeaf:
			out = encodeSeqItem(out, n.item(i))
		case chunk.TypeSeqIndex:
			out = encodeSeqChildRef(out, n.ref(i))
		}
	}
	return out
}

// oracleForm decodes a POS payload with the oracle decoders and re-encodes
// what they return: ok reports whether the oracle accepted it, elems how
// many elements it holds.
func oracleForm(typ chunk.Type, data []byte) (enc []byte, elems int, ok bool) {
	var err error
	switch typ {
	case chunk.TypeBlobLeaf:
		return data, len(data), true
	case chunk.TypeMapLeaf:
		var entries []Entry
		if entries, err = decodeMapLeaf(data); err == nil {
			enc, elems = appendUvarint([]byte{0}, uint64(len(entries))), len(entries)
			for _, e := range entries {
				enc = encodeEntry(enc, e)
			}
		}
	case chunk.TypeMapIndex, chunk.TypeSeqIndex:
		var level uint8
		var refs []childRef
		if typ == chunk.TypeMapIndex {
			level, refs, err = decodeMapIndex(data)
		} else {
			level, refs, err = decodeSeqIndex(data)
		}
		if err == nil {
			enc, elems = appendUvarint([]byte{level}, uint64(len(refs))), len(refs)
			for _, r := range refs {
				if typ == chunk.TypeMapIndex {
					enc = encodeChildRef(enc, r)
				} else {
					enc = encodeSeqChildRef(enc, r)
				}
			}
		}
	case chunk.TypeSeqLeaf:
		var items [][]byte
		if items, err = decodeSeqLeaf(data); err == nil {
			enc, elems = appendUvarint([]byte{0}, uint64(len(items))), len(items)
			for _, it := range items {
				enc = encodeSeqItem(enc, it)
			}
		}
	}
	return enc, elems, err == nil
}

// hostileNodes are malformed POS chunk encodings ([type][payload]), each
// of a kind no writer emits.
func hostileNodes() map[string][]byte {
	uv := func(x uint64) []byte { return binary.AppendUvarint(nil, x) }
	cat := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
	ml, mi := []byte{byte(chunk.TypeMapLeaf)}, []byte{byte(chunk.TypeMapIndex)}
	sl, si := []byte{byte(chunk.TypeSeqLeaf)}, []byte{byte(chunk.TypeSeqIndex)}
	id := make([]byte, hash.Size)
	return map[string][]byte{
		"map leaf count past the payload":   cat(ml, []byte{0}, uv(1<<40), []byte{1, 'k', 1, 'v'}),
		"seq index count past the payload":  cat(si, []byte{1}, uv(1<<50), id, uv(3)),
		"map leaf key length past the end":  cat(ml, []byte{0, 1}, uv(100), []byte("abc")),
		"map index key length past the end": cat(mi, []byte{1, 1}, uv(1<<20), id),
		"seq leaf item length past the end": cat(sl, []byte{0, 1}, uv(9), []byte("ab")),
		"map leaf with trailing bytes":      cat(ml, []byte{0, 1, 1, 'k', 1, 'v', 0}),
		"seq index with trailing bytes":     cat(si, []byte{1, 1}, id, uv(7), []byte{9}),
		"map index of level 0":              cat(mi, []byte{0, 1, 1, 'k'}, id, uv(1)),
		"seq index of level 0":              cat(si, []byte{0, 1}, id, uv(1)),
		"map leaf with a level byte":        cat(ml, []byte{1, 1, 1, 'k', 1, 'v'}),
		"seq leaf with a level byte":        cat(sl, []byte{2, 1, 1, 'x'}),
		"map index with no children":        cat(mi, []byte{1, 0}),
		"seq index with no children":        cat(si, []byte{1, 0}),
		"map leaf with no entries":          cat(ml, []byte{0, 0}),
		"seq leaf with no items":            cat(sl, []byte{0, 0}),
		"blob leaf with no bytes":           {byte(chunk.TypeBlobLeaf)},
		"map index cut in the child hash":   cat(mi, []byte{1, 1, 1, 'k'}, id[:20]),
		"seq index cut in the count":        cat(si, []byte{1, 1}, id, []byte{0x80}),
		"map leaf with a padded key length": cat(ml, []byte{0, 1, 0x81, 0x00, 'k', 1, 'v'}),
		"seq index with a padded count":     cat(si, []byte{1, 1}, id, []byte{0x85, 0x80, 0x00}),
		"node with no payload at all":       mi,
	}
}

// FuzzNodeDecode: decodeNode reads bytes a peer or a disk handed over.  It
// must not panic, must allocate by the input rather than by a length field,
// must accept exactly what the oracle decoders accept minus what no writer
// emits (no elements, a non-minimal varint), and every payload it accepts
// must re-encode byte-identically from its accessors.
func FuzzNodeDecode(f *testing.F) {
	st := store.NewMemStore()
	must := func(err error) {
		if err != nil {
			f.Fatal(err)
		}
	}
	cfg := chunker.SmallConfig()
	rows := genRows(400)
	_, err := BuildMap(st, cfg, rows)
	must(err)
	_, err = BuildSeq(st, cfg, genItems(400, 5))
	must(err)
	_, err = BuildBlob(st, cfg, bytes.Repeat([]byte("golden blob "), 400))
	must(err)
	golden := map[chunk.Type]int{}
	for _, id := range st.IDs() {
		c, err := st.Get(id)
		must(err)
		if golden[c.Type()] < 4 {
			golden[c.Type()]++
			f.Add(c.Encode())
		}
	}
	if len(golden) != 5 {
		f.Fatalf("golden seeds cover %d POS chunk types, want 5", len(golden))
	}
	for _, enc := range hostileNodes() {
		f.Add(enc)
	}
	f.Fuzz(func(t *testing.T, enc []byte) {
		c, err := chunk.Decode(enc)
		if err != nil {
			return
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		n, _, err := decodeNode(c)
		runtime.ReadMemStats(&after)
		if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(1<<16+32*len(enc)); got > limit {
			t.Fatalf("%d-byte %s chunk allocated %d bytes (limit %d)", len(enc), c.Type(), got, limit)
		}
		if !isPOSType(c.Type()) {
			return
		}
		oracle, elems, ok := oracleForm(c.Type(), c.Data())
		if want := ok && elems > 0 && bytes.Equal(oracle, c.Data()); (err == nil) != want {
			t.Fatalf("%s %x: decodeNode error %v, oracle accepts %v with %d elements, re-encodes identically %v",
				c.Type(), c.Data(), err, ok, elems, bytes.Equal(oracle, c.Data()))
		}
		if err != nil {
			return
		}
		if got := reencode(n); !bytes.Equal(got, c.Data()) {
			t.Fatalf("%s %x re-encodes as %x", c.Type(), c.Data(), got)
		}
		if err := matchOracle(c, n); err != nil {
			t.Fatal(err)
		}
	})
}

func isPOSType(t chunk.Type) bool {
	switch t {
	case chunk.TypeBlobLeaf, chunk.TypeMapLeaf, chunk.TypeMapIndex, chunk.TypeSeqLeaf, chunk.TypeSeqIndex:
		return true
	}
	return false
}

// TestHostileNodesAreRejected runs the hostile table through decodeNode: each
// row is an error, never a node, and never a panic.
func TestHostileNodesAreRejected(t *testing.T) {
	for name, enc := range hostileNodes() {
		c, err := chunk.Decode(enc)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if n, _, err := decodeNode(c); err == nil {
			t.Errorf("%s: decoded as a %s with %d elements", name, n.typ, n.len())
		}
	}
}

// TestZeroRefIndexIsCorruption: an index node without children — which no
// builder writes (BuildMap of nothing is the zero root) — is corruption to
// every read, wherever it sits, not a panic and not an absent key.
func TestZeroRefIndexIsCorruption(t *testing.T) {
	st := store.NewMemStore()
	empty := chunk.New(chunk.TypeMapIndex, []byte{1, 0})
	if _, err := st.Put(empty); err != nil {
		t.Fatal(err)
	}
	above := chunk.New(chunk.TypeMapIndex, encodeChildRef([]byte{2, 1}, childRef{splitKey: []byte("zzz"), id: empty.ID(), count: 5}))
	if _, err := st.Put(above); err != nil {
		t.Fatal(err)
	}
	good := mustBuild(t, st, genEntries(50, 1))
	for _, root := range []struct {
		name string
		id   hash.Hash
	}{{"root", empty.ID()}, {"below the root", above.ID()}} {
		if _, err := LoadTree(st, testCfg(), root.id); root.id == empty.ID() && err == nil {
			t.Errorf("%s: LoadTree accepted an index node without children", root.name)
		}
		// A handle that skipped LoadTree's check, as a caller holding a root
		// reference does.
		bad := &Tree{src: sourceFor(st), cfg: testCfg(), root: root.id, count: 5}
		for _, op := range []struct {
			name string
			run  func() error
		}{
			{"Get", func() error { _, err := bad.Get([]byte("key")); return err }},
			{"Has", func() error { _, err := bad.Has([]byte("key")); return err }},
			{"IterFrom", func() error {
				it, err := bad.IterFrom([]byte("key"))
				if err != nil {
					return err
				}
				for it.Next() {
				}
				return it.Err()
			}},
			{"Iter", func() error {
				it, err := bad.Iter()
				if err != nil {
					return err
				}
				for it.Next() {
				}
				return it.Err()
			}},
			{"Rank", func() error { _, err := bad.Rank([]byte("key")); return err }},
			{"At", func() error { _, err := bad.At(0); return err }},
			{"Diff", func() error { _, _, err := good.Diff(bad); return err }},
			{"Diff reversed", func() error { _, _, err := bad.Diff(good); return err }},
			{"Edit", func() error { _, err := bad.Edit([]Op{Put([]byte("key"), []byte("v"))}); return err }},
		} {
			err := func() (err error) {
				defer func() {
					if p := recover(); p != nil {
						err = fmt.Errorf("panic: %v", p)
					}
				}()
				return op.run()
			}()
			if err == nil || errors.Is(err, ErrKeyNotFound) || !strings.Contains(err.Error(), "empty map index") {
				t.Errorf("%s, %s: %v, want the empty index reported", root.name, op.name, err)
			}
		}
	}
}

// TestLoadTreeKeepsItsRoot: a handle from LoadTree reads from the root node
// it decoded for the count, so an uncached LoadTree + Get fetches exactly
// height nodes, and every later read on the handle one fewer.
func TestLoadTreeKeepsItsRoot(t *testing.T) {
	st := store.NewMemStore()
	entries := genEntries(3000, 4)
	built := mustBuild(t, st, entries)
	stats, err := built.ComputeStats()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Height < 3 {
		t.Fatalf("height %d: want at least 3 levels", stats.Height)
	}
	log := &getLog{Store: st}
	tree, err := LoadTree(log, testCfg(), built.Root())
	if err != nil {
		t.Fatal(err)
	}
	key := entries[1777].Key
	if v, err := tree.Get(key); err != nil || !bytes.Equal(v, entries[1777].Val) {
		t.Fatalf("Get: %q, %v", v, err)
	}
	if len(log.ids) != stats.Height {
		t.Fatalf("LoadTree + Get fetched %d nodes from a height-%d tree", len(log.ids), stats.Height)
	}
	for _, op := range []struct {
		name string
		run  func() error
	}{
		{"Get", func() error { _, err := tree.Get(key); return err }},
		{"Has", func() error { _, err := tree.Has(key); return err }},
		{"At", func() error { _, err := tree.At(1777); return err }},
		{"Rank", func() error { _, err := tree.Rank(key); return err }},
		{"Iter", func() error { _, err := tree.Iter(); return err }},
		{"IterFrom", func() error { _, err := tree.IterFrom(key); return err }},
	} {
		log.ids = nil
		if err := op.run(); err != nil {
			t.Fatalf("%s: %v", op.name, err)
		}
		for _, id := range log.ids {
			if id == tree.Root() {
				t.Errorf("%s fetched the root again", op.name)
			}
		}
		if len(log.ids) != stats.Height-1 {
			t.Errorf("%s fetched %d nodes below the root of a height-%d tree", op.name, len(log.ids), stats.Height)
		}
	}
}
