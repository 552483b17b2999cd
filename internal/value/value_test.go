package value

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"testing/quick"

	"forkbase/internal/chunker"
	"forkbase/internal/hash"
	"forkbase/internal/index"
	"forkbase/internal/pos"
	"forkbase/internal/store"
)

func cfg() chunker.Config { return chunker.SmallConfig() }

func TestPrimitiveRoundTrips(t *testing.T) {
	cases := []struct {
		v     Value
		kind  Kind
		check func(Value) error
	}{
		{String("hello"), KindString, func(v Value) error {
			s, err := v.AsString()
			if err != nil || s != "hello" {
				return fmt.Errorf("s=%q err=%v", s, err)
			}
			return nil
		}},
		{Int(-42), KindInt, func(v Value) error {
			i, err := v.AsInt()
			if err != nil || i != -42 {
				return fmt.Errorf("i=%d err=%v", i, err)
			}
			return nil
		}},
		{Float(3.5), KindFloat, func(v Value) error {
			f, err := v.AsFloat()
			if err != nil || f != 3.5 {
				return fmt.Errorf("f=%f err=%v", f, err)
			}
			return nil
		}},
		{Bool(true), KindBool, func(v Value) error {
			b, err := v.AsBool()
			if err != nil || !b {
				return fmt.Errorf("b=%v err=%v", b, err)
			}
			return nil
		}},
	}
	for _, c := range cases {
		t.Run(c.kind.String(), func(t *testing.T) {
			if c.v.Kind() != c.kind {
				t.Fatalf("kind = %v", c.v.Kind())
			}
			dec, err := Decode(c.v.Encode(), index.KindPOS)
			if err != nil {
				t.Fatalf("decode: %v", err)
			}
			if !dec.Equal(c.v) {
				t.Fatal("decode != original")
			}
			if err := c.check(dec); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestEncodeDecodeQuick(t *testing.T) {
	f := func(s string, i int64, b bool) bool {
		for _, v := range []Value{String(s), Int(i), Bool(b)} {
			d, err := Decode(v.Encode(), index.KindPOS)
			if err != nil || !d.Equal(v) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestWrongKindAccessors(t *testing.T) {
	v := String("x")
	if _, err := v.AsInt(); !errors.Is(err, ErrWrongKind) {
		t.Fatalf("AsInt on string: %v", err)
	}
	if _, err := v.AsBool(); !errors.Is(err, ErrWrongKind) {
		t.Fatalf("AsBool on string: %v", err)
	}
	if _, err := Int(1).AsString(); !errors.Is(err, ErrWrongKind) {
		t.Fatal("AsString on int")
	}
	st := store.NewMemStore()
	if _, err := v.MapTree(st, cfg()); !errors.Is(err, ErrWrongKind) {
		t.Fatal("MapTree on string")
	}
}

func TestDecodeErrors(t *testing.T) {
	bad := [][]byte{
		nil,
		{0},                // invalid kind
		{byte(KindInt), 1}, // short int
		{byte(KindBool)},   // missing payload
		{byte(KindMap), 1}, // composite too short
	}
	for i, b := range bad {
		if _, err := Decode(b, index.KindPOS); err == nil {
			t.Fatalf("case %d decoded", i)
		}
	}
}

func TestMapValue(t *testing.T) {
	st := store.NewMemStore()
	entries := []pos.Entry{
		{Key: []byte("a"), Val: []byte("1")},
		{Key: []byte("b"), Val: []byte("2")},
	}
	v, err := NewMap(st, cfg(), entries)
	if err != nil {
		t.Fatal(err)
	}
	if v.Kind() != KindMap || v.Count() != 2 {
		t.Fatalf("%v %d", v.Kind(), v.Count())
	}
	tr, err := v.MapTree(st, cfg())
	if err != nil {
		t.Fatal(err)
	}
	got, err := tr.Get([]byte("b"))
	if err != nil || string(got) != "2" {
		t.Fatalf("%q %v", got, err)
	}
	// Descriptor round trip preserves root and count.
	dec, err := Decode(v.Encode(), index.KindPOS)
	if err != nil || !dec.Equal(v) || dec.Count() != 2 {
		t.Fatalf("map descriptor round trip: %v", err)
	}
}

func TestSetValue(t *testing.T) {
	st := store.NewMemStore()
	v, err := NewSetWith(st, cfg(), index.KindPOS, [][]byte{[]byte("x"), []byte("y"), []byte("x")})
	if err != nil {
		t.Fatal(err)
	}
	if v.Count() != 2 {
		t.Fatalf("set count %d", v.Count())
	}
	tr, err := v.Index(st, cfg())
	if err != nil {
		t.Fatal(err)
	}
	ok, err := tr.Has([]byte("y"))
	if err != nil || !ok {
		t.Fatalf("set membership: %v %v", ok, err)
	}
}

func TestListValue(t *testing.T) {
	st := store.NewMemStore()
	items := [][]byte{[]byte("first"), []byte("second"), []byte("third")}
	v, err := NewList(st, cfg(), items)
	if err != nil {
		t.Fatal(err)
	}
	sq, err := v.Seq(st, cfg())
	if err != nil {
		t.Fatal(err)
	}
	got, err := sq.Get(1)
	if err != nil || string(got) != "second" {
		t.Fatalf("%q %v", got, err)
	}
}

func TestBlobValue(t *testing.T) {
	st := store.NewMemStore()
	data := bytes.Repeat([]byte("forkbase "), 10000)
	v, err := NewBlob(st, cfg(), data)
	if err != nil {
		t.Fatal(err)
	}
	if v.Count() != uint64(len(data)) {
		t.Fatalf("blob count %d", v.Count())
	}
	bl, err := v.Blob(st, cfg())
	if err != nil {
		t.Fatal(err)
	}
	got, err := bl.Bytes()
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("blob bytes mismatch: %v", err)
	}
}

func TestValueEqualContentAddressed(t *testing.T) {
	st := store.NewMemStore()
	a, err := NewMap(st, cfg(), []pos.Entry{{Key: []byte("k"), Val: []byte("v")}})
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewMap(st, cfg(), []pos.Entry{{Key: []byte("k"), Val: []byte("v")}})
	if err != nil {
		t.Fatal(err)
	}
	if !a.Equal(b) {
		t.Fatal("identical maps not Equal")
	}
	c, err := NewMap(st, cfg(), []pos.Entry{{Key: []byte("k"), Val: []byte("w")}})
	if err != nil {
		t.Fatal(err)
	}
	if a.Equal(c) {
		t.Fatal("different maps Equal")
	}
	if a.Equal(String("v")) {
		t.Fatal("map equals string")
	}
}

func TestChunkIDs(t *testing.T) {
	st := store.NewMemStore()
	items := make([][]byte, 2000)
	for i := range items {
		items[i] = []byte(fmt.Sprintf("item-%06d", i))
	}
	v, err := NewList(st, cfg(), items)
	if err != nil {
		t.Fatal(err)
	}
	ids, err := v.ChunkIDs(st, cfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) < 2 {
		t.Fatalf("list of 2000 items has %d chunks", len(ids))
	}
	// Primitives have no chunks.
	ids, err = String("x").ChunkIDs(st, cfg())
	if err != nil || ids != nil {
		t.Fatalf("primitive chunk ids: %v %v", ids, err)
	}
}

func TestDisplayForms(t *testing.T) {
	st := store.NewMemStore()
	m, _ := NewMap(st, cfg(), []pos.Entry{{Key: []byte("k"), Val: []byte("v")}})
	for _, tc := range []struct {
		v    Value
		want string
	}{
		{String("s"), "s"},
		{Int(7), "7"},
		{Bool(false), "false"},
		{Float(1.25), "1.25"},
	} {
		if got := tc.v.Display(); got != tc.want {
			t.Errorf("Display(%v) = %q, want %q", tc.v.Kind(), got, tc.want)
		}
	}
	if m.Display() == "" || m.Display() == "invalid" {
		t.Errorf("map display = %q", m.Display())
	}
}

func TestKindStrings(t *testing.T) {
	for k := KindString; k <= KindList; k++ {
		if k.String() == "" {
			t.Fatalf("kind %d has empty name", k)
		}
	}
	if !KindMap.Composite() || KindInt.Composite() {
		t.Fatal("Composite misclassifies")
	}
}

// TestDecodeTakesItsIndexKind: a descriptor decoded under the kind its FNode
// records loads that structure with the store reads of the value it was
// encoded from, and one decoded under the other structure fails the load
// instead of yielding rows.  A value that is not a map or set takes no kind.
func TestDecodeTakesItsIndexKind(t *testing.T) {
	st := store.NewMemStore()
	entries := []pos.Entry{{Key: []byte("a"), Val: []byte("1")}, {Key: []byte("b"), Val: []byte("2")}}
	for _, tc := range []struct{ kind, other index.Kind }{
		{index.KindPOS, index.KindMPT},
		{index.KindMPT, index.KindPOS},
	} {
		v, err := NewMapWith(st, cfg(), tc.kind, entries)
		if err != nil {
			t.Fatal(err)
		}
		dec, err := Decode(v.Encode(), tc.kind)
		if err != nil || dec.IndexKind() != tc.kind {
			t.Fatalf("%s: decoded kind %s (%v)", tc.kind, dec.IndexKind(), err)
		}
		gets := func(v Value) int64 {
			before := st.Stats().Gets
			ix, err := v.Index(st, cfg())
			if err != nil {
				t.Fatal(err)
			}
			if got, err := ix.Get([]byte("a")); err != nil || string(got) != "1" {
				t.Fatalf("%s: %q %v", tc.kind, got, err)
			}
			return st.Stats().Gets - before
		}
		if built, decoded := gets(v), gets(dec); decoded != built {
			t.Fatalf("%s: store reads: %d built, %d decoded; want the same", tc.kind, built, decoded)
		}
		wrong, err := Decode(v.Encode(), tc.other)
		if err != nil {
			t.Fatal(err)
		}
		if ix, err := wrong.Index(st, cfg()); err == nil {
			t.Fatalf("a %s root decoded as %s = a %s index of %d rows, want an error", tc.kind, tc.other, ix.Kind(), ix.Len())
		}
	}
	if _, err := Decode(String("s").Encode(), index.KindMPT); !errors.Is(err, ErrBadDescriptor) {
		t.Fatalf("string value under an MPT kind: %v, want ErrBadDescriptor", err)
	}
}

// TestUnknownIndexKindIsAnError: the build/load switch knows two structures;
// every other kind byte is an error from each entry point, never a panic or a
// nil index.
func TestUnknownIndexKindIsAnError(t *testing.T) {
	st := store.NewMemStore()
	entries := []pos.Entry{{Key: []byte("a"), Val: []byte("1")}}
	v, err := NewMap(st, cfg(), entries)
	if err != nil {
		t.Fatal(err)
	}
	for b := 2; b <= 255; b++ {
		k := index.Kind(b)
		if _, err := NewMapWith(st, cfg(), k, entries); err == nil {
			t.Errorf("NewMapWith(%s) built a map", k)
		}
		if _, err := NewSetWith(st, cfg(), k, [][]byte{[]byte("a")}); err == nil {
			t.Errorf("NewSetWith(%s) built a set", k)
		}
		for _, root := range []hash.Hash{{}, v.Root()} {
			if ix, err := LoadIndex(st, cfg(), root, k); err == nil || ix != nil {
				t.Errorf("LoadIndex(%s, %s) = %v, %v; want a nil index and an error", root.Short(), k, ix, err)
			}
		}
	}
}
