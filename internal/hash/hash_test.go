package hash

import (
	"bytes"
	"strings"
	"testing"
	"testing/quick"
)

func TestOfDeterministic(t *testing.T) {
	a := Of([]byte("hello"))
	b := Of([]byte("hello"))
	if a != b {
		t.Fatal("same input, different hashes")
	}
	c := Of([]byte("hello!"))
	if a == c {
		t.Fatal("different input, same hash")
	}
}

func TestOfPartsEqualsOf(t *testing.T) {
	f := func(a, b, c []byte) bool {
		joined := append(append(append([]byte{}, a...), b...), c...)
		return OfParts(a, b, c) == Of(joined)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestStringParseRoundTrip(t *testing.T) {
	f := func(data []byte) bool {
		h := Of(data)
		parsed, err := Parse(h.String())
		return err == nil && parsed == h
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestStringIsBase32(t *testing.T) {
	h := Of([]byte("forkbase"))
	s := h.String()
	if len(s) != StringLen {
		t.Fatalf("len(%q) = %d, want %d", s, len(s), StringLen)
	}
	const alphabet = "ABCDEFGHIJKLMNOPQRSTUVWXYZ234567"
	for _, r := range s {
		if !strings.ContainsRune(alphabet, r) {
			t.Fatalf("non-RFC4648-base32 rune %q in %q", r, s)
		}
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{"", "short", strings.Repeat("A", StringLen-1), strings.Repeat("~", StringLen)}
	for _, c := range cases {
		if _, err := Parse(c); err == nil {
			t.Fatalf("Parse(%q) succeeded", c)
		}
	}
}

func TestZero(t *testing.T) {
	var h Hash
	if !h.IsZero() {
		t.Fatal("zero hash not zero")
	}
	if Of(nil).IsZero() {
		t.Fatal("Of(nil) is zero")
	}
}

func TestCompare(t *testing.T) {
	a, b := Of([]byte("a")), Of([]byte("b"))
	if a.Compare(a) != 0 {
		t.Fatal("self-compare != 0")
	}
	if a.Compare(b) == 0 {
		t.Fatal("distinct hashes compare equal")
	}
	if a.Compare(b) != -b.Compare(a) {
		t.Fatal("compare not antisymmetric")
	}
	if a.Compare(b) != bytes.Compare(a[:], b[:]) {
		t.Fatal("compare disagrees with bytes.Compare")
	}
}

func TestShort(t *testing.T) {
	h := Of([]byte("y"))
	if len(h.Short()) != 10 {
		t.Fatalf("Short len = %d", len(h.Short()))
	}
	if !strings.HasPrefix(h.String(), h.Short()) {
		t.Fatal("Short is not a prefix of String")
	}
}
