package codec

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"
)

func TestUvarintAcceptsOnlyTheMinimalForm(t *testing.T) {
	for _, x := range []uint64{0, 1, 0x7F, 0x80, 1 << 14, 1 << 63, math.MaxUint64} {
		enc := binary.AppendUvarint(nil, x)
		if got, n := Uvarint(append(enc, 0xAA)); got != x || n != len(enc) {
			t.Errorf("Uvarint(%x) = %d, %d; want %d, %d", enc, got, n, x, len(enc))
		}
	}
	for name, p := range map[string][]byte{
		"empty":                  nil,
		"truncated":              {0x80},
		"zero-padded one":        {0x81, 0x00},
		"zero-padded zero":       {0x80, 0x80, 0x00},
		"overflowing tenth byte": {0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x02},
		"eleven bytes":           {0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01},
		"zero-padded tenth byte": {0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x00},
	} {
		if x, n := Uvarint(p); n > 0 {
			t.Errorf("%s: Uvarint(%x) = %d, %d; want n <= 0", name, p, x, n)
		}
	}
}

func TestReaderLatchesItsFirstFailure(t *testing.T) {
	enc := binary.AppendUvarint(nil, 2)
	enc = append(enc, 'a', 'b')
	enc = binary.AppendVarint(enc, -3)
	r := NewReader(enc)
	if b, v := r.Bytes(), r.Varint(); !bytes.Equal(b, []byte("ab")) || v != -3 || !r.Done() {
		t.Fatalf("read %q, %d, done %v", b, v, r.Done())
	}
	r = NewReader(enc)
	if b := r.Take(1); cap(b) != 1 {
		t.Fatalf("Take returned cap %d: a caller's append would overwrite the input", cap(b))
	}

	// A count the remaining bytes cannot hold fails before it sizes anything,
	// and every read after it returns zero, however much input is left.
	r = NewReader(append(binary.AppendUvarint(nil, 3), make([]byte, 5)...))
	if n := r.Count(2, -1); n != 0 || !r.Bad() {
		t.Fatalf("Count(2) of 3 over 5 bytes = %d, bad %v", n, r.Bad())
	}
	if b, x, id := r.Byte(), r.Uvarint(), r.ID(); b != 0 || x != 0 || !id.IsZero() || r.Done() || r.Len() != 0 {
		t.Fatalf("after a failure: %d %d %v done %v len %d", b, x, id, r.Done(), r.Len())
	}

	r = NewReader([]byte{2, 0, 0})
	if n := r.Count(1, 3); n != 0 || r.Done() {
		t.Fatalf("Count wanting 3 read %d from a count of 2", n)
	}
	r = NewReader([]byte{7})
	if r.Check(r.Byte() < 5); r.Done() {
		t.Fatal("a failed Check left the reader done")
	}
}
