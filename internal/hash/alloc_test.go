package hash

import "testing"

// The sink and verify hot paths hash every chunk through SumTagged/SumInto;
// these tests pin the pooled-digest API at zero allocations per call so a
// regression shows up as a test failure, not a profile.

func TestSumTaggedZeroAlloc(t *testing.T) {
	payload := make([]byte, 4096)
	for i := range payload {
		payload[i] = byte(i)
	}
	var sink Hash
	allocs := testing.AllocsPerRun(200, func() {
		sink = SumTagged(0x01, payload)
	})
	if allocs != 0 {
		t.Fatalf("SumTagged allocates %.1f objects per call, want 0", allocs)
	}
	_ = sink
}

func TestSumIntoZeroAlloc(t *testing.T) {
	data := make([]byte, 4096)
	for i := range data {
		data[i] = byte(i * 3)
	}
	var dst Hash
	allocs := testing.AllocsPerRun(200, func() {
		SumInto(&dst, data)
	})
	if allocs != 0 {
		t.Fatalf("SumInto allocates %.1f objects per call, want 0", allocs)
	}
}

// OfParts is the reference SumTagged and SumInto are checked against: the
// hash of the concatenation of parts, without materialising it.
func OfParts(parts ...[]byte) Hash {
	d := statePool.Get().(*digestState)
	d.h.Reset()
	for _, p := range parts {
		d.h.Write(p)
	}
	out := d.finish()
	statePool.Put(d)
	return out
}

func TestSumTaggedMatchesOfParts(t *testing.T) {
	payload := []byte("tagged digest equivalence")
	want := OfParts([]byte{0x2a}, payload)
	if got := SumTagged(0x2a, payload); got != want {
		t.Fatalf("SumTagged = %s, want %s", got, want)
	}
}

func TestSumIntoMatchesOf(t *testing.T) {
	data := []byte("plain digest equivalence")
	var got Hash
	SumInto(&got, data)
	if want := Of(data); got != want {
		t.Fatalf("SumInto = %s, want %s", got, want)
	}
}

func TestDigestsCounter(t *testing.T) {
	before := Digests()
	_ = Of([]byte("a"))
	_ = SumTagged(1, []byte("b"))
	var h Hash
	SumInto(&h, []byte("c"))
	_ = OfParts([]byte("d"), []byte("e"))
	if got := Digests() - before; got != 4 {
		t.Fatalf("Digests advanced by %d, want 4", got)
	}
}

func BenchmarkSumTagged4K(b *testing.B) {
	payload := make([]byte, 4096)
	b.SetBytes(int64(len(payload) + 1))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = SumTagged(0x01, payload)
	}
}

func BenchmarkSumInto4K(b *testing.B) {
	data := make([]byte, 4096)
	var dst Hash
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		SumInto(&dst, data)
	}
}
