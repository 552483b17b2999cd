package rolling

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// TestWindowEquivalence: after rolling a long stream, the hash must equal
// the hash of just the final window fed into a fresh hasher — the defining
// property of a rolling hash.
func TestWindowEquivalence(t *testing.T) {
	f := func(data []byte) bool {
		const w = 16
		if len(data) < w {
			return true
		}
		h1 := New(10, w)
		h1.Write(data)
		h2 := New(10, w)
		h2.Write(data[len(data)-w:])
		return h1.Sum64() == h2.Sum64()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestDeterministicAcrossInstances(t *testing.T) {
	data := make([]byte, 4096)
	rand.New(rand.NewSource(1)).Read(data)
	a, b := New(12, 48), New(12, 48)
	for i, by := range data {
		if a.Roll(by) != b.Roll(by) {
			t.Fatalf("divergence at byte %d", i)
		}
	}
}

func TestResetClearsState(t *testing.T) {
	h := New(12, 48)
	h.Write([]byte("some earlier unrelated content that fills the window"))
	h.Reset()
	after := New(12, 48)
	data := []byte("fresh stream fed to both hashers after the reset point")
	h.Write(data)
	after.Write(data)
	if h.Sum64() != after.Sum64() {
		t.Fatal("Reset did not clear window state")
	}
}

func TestPatternFrequency(t *testing.T) {
	// Over random data the pattern (q low bits zero) should fire roughly
	// once every 2^q bytes.  Use q=8 → expected every 256 bytes.
	const q, n = 8, 1 << 20
	rng := rand.New(rand.NewSource(42))
	data := make([]byte, n)
	rng.Read(data)
	h := New(q, 32)
	hits := 0
	for _, by := range data {
		h.Roll(by)
		if h.OnPattern() {
			hits++
		}
	}
	expected := n / (1 << q)
	if hits < expected/2 || hits > expected*2 {
		t.Fatalf("pattern fired %d times over %d bytes, expected ~%d", hits, n, expected)
	}
}

func TestOnPatternRequiresFullWindow(t *testing.T) {
	h := New(1, 32) // q=1: 50% of values match, so a short window would fire
	h.Roll(0)
	if h.OnPattern() && h.n != h.window {
		t.Fatal("pattern fired before window filled")
	}
}

func TestHashStaysWithinQBits(t *testing.T) {
	f := func(data []byte, qSeed uint8) bool {
		q := uint(qSeed%12) + 1
		h := New(q, 8)
		for _, by := range data {
			if v := h.Roll(by); v >= 1<<q {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestRot1(t *testing.T) {
	// Within q=4 bits: 0b1000 rotates to 0b0001.
	if got := rot1(0b1000, 4); got != 0b0001 {
		t.Fatalf("rot1(0b1000,4) = %04b", got)
	}
	if got := rot1(0b0101, 4); got != 0b1010 {
		t.Fatalf("rot1(0b0101,4) = %04b", got)
	}
}

func TestRotQComposition(t *testing.T) {
	// rotQ(v, n) must equal n applications of rot1.
	for _, q := range []uint{4, 7, 12} {
		for v := uint64(0); v < 1<<q; v += 3 {
			for n := uint(0); n < 2*q; n++ {
				want := v
				for i := uint(0); i < n; i++ {
					want = rot1(want, q)
				}
				if got := rotQ(v, n, q); got != want {
					t.Fatalf("rotQ(%d,%d,%d) = %d, want %d", v, n, q, got, want)
				}
			}
		}
	}
}

func TestNewPanicsOnBadArgs(t *testing.T) {
	for _, tc := range []struct {
		q uint
		w int
	}{{0, 8}, {64, 8}, {8, 0}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%d,%d) did not panic", tc.q, tc.w)
				}
			}()
			New(tc.q, tc.w)
		}()
	}
}

func TestGammaDeterministic(t *testing.T) {
	a, b := gamma(12), gamma(12)
	if a != b {
		t.Fatal("gamma table not deterministic")
	}
	mask := uint64(1<<12 - 1)
	for i, v := range a {
		if v&^mask != 0 {
			t.Fatalf("gamma[%d] = %x exceeds q bits", i, v)
		}
	}
}

func BenchmarkRoll(b *testing.B) {
	h := New(12, 48)
	data := make([]byte, 1<<16)
	rand.New(rand.NewSource(7)).Read(data)
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Write(data)
	}
}

// TestScanMatchesHasher proves the bulk scanner computes the exact boundary
// decisions of the byte-wise Hasher over contiguous chunk runs: for every
// (minSize, chunk split) the first pattern index at or past the min-size
// check must agree, including across incremental Find resumptions and the
// min-size hash skip.
func TestScanMatchesHasher(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, cfg := range []struct {
		q       uint
		window  int
		minSize int
	}{
		{12, 48, 512}, // default config shape: minSize > window, skip active
		{8, 48, 32},   // small config shape: minSize < window, no skip
		{10, 16, 16},  // minSize == window
	} {
		scan := NewScan(cfg.q, cfg.window)
		begin := scan.SkipStart(cfg.minSize)
		check := cfg.minSize - 1

		for trial := 0; trial < 30; trial++ {
			n := 200 + rng.Intn(8000)
			data := make([]byte, n)
			rng.Read(data)

			// Reference: byte-wise Hasher, fresh from a boundary.
			h := New(cfg.q, cfg.window)
			wantHit := -1
			for i, b := range data {
				h.Roll(b)
				if i+1 >= cfg.minSize && h.OnPattern() {
					wantHit = i
					break
				}
			}

			// Bulk: resume Find across random slice steps, like a builder
			// appending entries.
			gotHit := -1
			pos, hash := 0, uint64(0)
			for end := 0; end < n && gotHit < 0; {
				end += 1 + rng.Intn(97)
				if end > n {
					end = n
				}
				var hit int
				hit, hash = scan.Find(data[:end], pos, hash, begin, check)
				pos = end
				if hit >= 0 {
					gotHit = hit
				}
			}
			if gotHit != wantHit {
				t.Fatalf("q=%d w=%d min=%d trial %d: scan hit %d, hasher hit %d",
					cfg.q, cfg.window, cfg.minSize, trial, gotHit, wantHit)
			}
		}
	}
}

// TestScanSkipStart pins the min-size skip arithmetic.
func TestScanSkipStart(t *testing.T) {
	s := NewScan(12, 48)
	if got := s.SkipStart(512); got != 512-48 {
		t.Fatalf("SkipStart(512) = %d", got)
	}
	if got := s.SkipStart(32); got != 0 {
		t.Fatalf("SkipStart(32) = %d", got)
	}
}

// BenchmarkScanFind times the boundary scan every POS-Tree builder runs (map
// and list leaves, blob leaves) at the default geometry, with the builders'
// min-size skip.
func BenchmarkScanFind(b *testing.B) {
	data := make([]byte, 1<<16)
	rand.New(rand.NewSource(7)).Read(data)
	s := NewScan(12, 48)
	b.SetBytes(int64(len(data)))
	begin := s.SkipStart(512)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		start := 0
		for start < len(data) {
			hit, _ := s.Find(data[start:], 0, 0, begin, 511)
			if hit < 0 {
				break
			}
			start += hit + 1
		}
	}
}
