package rolling

import (
	"math/rand"
	"sync"
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
		return h1.hash == h2.hash
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
	if h.hash != after.hash {
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
	newHasher := func(q uint, w int) { New(q, w) }
	newScan := func(q uint, w int) { NewScan(q, w) }
	for _, tc := range []struct {
		name string
		new  func(uint, int)
		q    uint
		w    int
	}{
		{"New", newHasher, 0, 8},
		{"New", newHasher, 64, 8},
		{"New", newHasher, 8, 0},
		{"NewScan", newScan, 0, 8},
		{"NewScan", newScan, maxScanQ + 1, 8}, // its tables are uint32
		{"NewScan", newScan, 8, 0},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s(%d,%d) did not panic", tc.name, tc.q, tc.w)
				}
			}()
			tc.new(tc.q, tc.w)
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

// sameAsHasher drives Find the way the leaf builders do — the open chunk
// grows by appends of step() bytes (possibly none), Find resumes from the
// last position and state, and a hit restarts the chunk after it with fresh
// state, carrying the bytes already appended — and fails unless every call
// returns the hit and the state of a byte-wise Hasher fed the same chunk from
// the skip point, testing the full pattern below normal and the easy one
// from there.
func sameAsHasher(tb testing.TB, data []byte, q uint, window, minSize, normal int, step func() int) {
	tb.Helper()
	s := NewScan(q, window)
	begin, check := s.SkipStart(minSize), minSize-1
	ref := New(q, window)
	start, end, pos, h := 0, 0, 0, uint64(0)
	for start < len(data) {
		end = min(end+step(), len(data))
		node := data[start:end]
		hit, got := s.Find(node, pos, h, begin, check, normal)
		want := -1
		for ; pos < len(node); pos++ {
			if pos < begin {
				continue
			}
			ref.Roll(node[pos])
			if pos >= check && (pos < normal && ref.OnPattern() || pos >= normal && ref.OnEasyPattern()) {
				want = pos
				break
			}
		}
		if hit != want || got != ref.hash {
			tb.Fatalf("q=%d w=%d min=%d normal=%d, chunk at %d of %d bytes: Find = (%d, %#x), Hasher = (%d, %#x)",
				q, window, minSize, normal, start, len(node), hit, got, want, ref.hash)
		}
		switch {
		case hit >= 0:
			start += hit + 1
			pos, h = 0, 0
			ref.Reset()
		case end == len(data):
			return
		default:
			h = got
		}
	}
}

// TestScanMatchesHasher proves the de-rotated scanner makes the exact
// boundary decisions, and returns the exact state, of the byte-wise Hasher
// across every pattern width (q < 4 wraps the row offset more than once per
// step), windows that are multiples of q or shorter than it, min-sizes below,
// at and above the window, and normal points inside the window fill, just
// past the min-size and at 2^q, so the easy mask is tested in every rotation.
func TestScanMatchesHasher(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	data := make([]byte, 3000)
	for q := uint(1); q <= maxScanQ; q++ {
		for _, w := range []int{1, 3, 16, 48, 64} {
			for _, minSize := range []int{max(1, w/2), w, 2*w + 5} {
				for _, normal := range []int{w / 2, minSize + 7, 1 << min(q, 11)} {
					rng.Read(data)
					sameAsHasher(t, data, q, w, minSize, normal, func() int { return rng.Intn(100) })
				}
			}
		}
	}
}

// TestEasyPatternFrequency: past the normal point the pattern fires four
// times as often as the full one, and every full pattern is an easy one.
func TestEasyPatternFrequency(t *testing.T) {
	const q, n = 10, 1 << 20
	data := make([]byte, n)
	rand.New(rand.NewSource(43)).Read(data)
	h := New(q, 32)
	full, easy := 0, 0
	for _, by := range data {
		h.Roll(by)
		if h.OnPattern() {
			full++
			if !h.OnEasyPattern() {
				t.Fatal("a full pattern is not an easy one")
			}
		}
		if h.OnEasyPattern() {
			easy++
		}
	}
	if want := n >> EasyBits(q); easy < want*3/4 || easy > want*5/4 || easy < 3*full {
		t.Fatalf("easy pattern fired %d times (full %d) over %d bytes, expected ~%d", easy, full, n, want)
	}
}

// TestScanTablesShared: scanners built at once on several goroutines share
// one table per q (built once, read-only after) and cut identically.
func TestScanTablesShared(t *testing.T) {
	data := vecInput(7, 64<<10)
	hits := make([]int, 4)
	var wg sync.WaitGroup
	for k := range hits {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			s := NewScan(uint(9+k%2), DefaultWindow)
			hits[k], _ = s.Find(data, 0, 0, 0, 500, 1000)
		}(k)
	}
	wg.Wait()
	for k := 2; k < len(hits); k++ {
		if hits[k] != hits[k%2] {
			t.Fatalf("scanner %d cut at %d, scanner %d at %d", k, hits[k], k%2, hits[k%2])
		}
	}
	if a, b := NewScan(9, 48), NewScan(9, 16); &a.in[0][0] != &b.in[0][0] {
		t.Fatal("two scanners of the same q built two tables")
	}
}

// FuzzScan checks Find against the byte-wise Hasher on arbitrary bytes and
// geometries, in both regions of the two-region rule: the full pattern
// below the normal point, the easy mask from it on.  The input is a
// SplitMix64 stream (vecInput) followed by raw bytes, so the corpus stays
// small while the seeds are the chunker's three golden-vector inputs at
// their own geometries (q, w and minSize enter one below their value), plus
// a normal point below the window.
func FuzzScan(f *testing.F) {
	f.Add(uint64(1), uint32(128<<10), []byte(nil), uint16(11), uint16(47), uint16(2047), uint16(4096), uint16(777)) // DefaultConfig
	f.Add(uint64(2), uint32(16<<10), []byte(nil), uint16(7), uint16(47), uint16(127), uint16(256), uint16(301))     // SmallConfig
	f.Add(uint64(3), uint32(16<<10), []byte(nil), uint16(7), uint16(15), uint16(31), uint16(256), uint16(97))       // window 16
	f.Add(uint64(4), uint32(16<<10), []byte(nil), uint16(7), uint16(47), uint16(39), uint16(20), uint16(211))       // normal point below the window
	f.Fuzz(func(t *testing.T, seed uint64, n uint32, tail []byte, q, w, minSize, normal, stride uint16) {
		data := append(vecInput(seed, int(n%(256<<10))), tail...)
		k := 0
		sameAsHasher(t, data, uint(q%maxScanQ)+1, int(w%256)+1, int(minSize%4096)+1, int(normal%8192), func() int {
			k++
			return 1 + (k*int(stride))%1000
		})
	})
}

// vecInput deterministically expands a seed into n bytes with SplitMix64,
// the generator of the chunker's golden vectors.
func vecInput(seed uint64, n int) []byte {
	out := make([]byte, n)
	x := seed
	for i := 0; i < n; i += 8 {
		x += 0x9E3779B97F4A7C15
		z := x
		z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
		z = (z ^ (z >> 27)) * 0x94D049BB133111EB
		z ^= z >> 31
		for j := 0; j < 8 && i+j < n; j++ {
			out[i+j] = byte(z >> (8 * j))
		}
	}
	return out
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
// min-size skip and normal point.
func BenchmarkScanFind(b *testing.B) {
	data := make([]byte, 1<<16)
	rand.New(rand.NewSource(7)).Read(data)
	s := NewScan(12, 48)
	b.SetBytes(int64(len(data)))
	begin := s.SkipStart(2048)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		start := 0
		for start < len(data) {
			hit, _ := s.Find(data[start:], 0, 0, begin, 2047, 4096)
			if hit < 0 {
				break
			}
			start += hit + 1
		}
	}
}
