// Package rolling implements the cyclic polynomial rolling hash that
// POS-Tree uses for pattern detection (§II-A of the paper).
//
// Given a k-byte window (b1, ..., bk) the hash is
//
//	Φ(b1...bk) = δ(Φ(b0...bk-1)) ⊕ δ^k(Γ(b0)) ⊕ δ^0(Γ(bk))
//
// where Γ maps a byte to a pseudo-random integer in [0, 2^q), and δ rotates
// its input left by one bit within q bits (the q-th bit wraps to the lowest
// position).  A split pattern occurs when the q least-significant bits of Φ
// are all zero:
//
//	Φ(b1,...,bk) MOD 2^q == 0
//
// The expected distance between patterns is therefore 2^q bytes, which sets
// the average chunk size.
//
// Chunkers normalize the cut (FastCDC, Xia et al., USENIX ATC 2016) on this
// one hash: before a normal point a pattern needs all q bits zero, from it on
// only the low EasyBits(q) bits.  Chunk sizes then cluster around the normal
// point instead of spreading geometrically, and every full pattern still
// counts in the easy region, so a boundary cut without the normal point
// remains a candidate under it.
package rolling

import "sync"

// DefaultWindow is the number of bytes over which the hash is computed.
// 48 bytes is large enough for good boundary stability under local edits and
// small enough to re-synchronise quickly.
const DefaultWindow = 48

// Hasher is a cyclic polynomial (buzhash-style) rolling hash over a fixed
// window of bytes.  The zero value is not usable; construct with New.
//
// Hasher is not safe for concurrent use.
type Hasher struct {
	q      uint   // pattern bit-width; chunks average 2^q bytes
	mask   uint64 // 2^q - 1
	easy   uint64 // 2^EasyBits(q) - 1
	window int
	table  [256]uint64 // Γ
	shiftK [256]uint64 // δ^k(Γ(b)) precomputed per byte value

	hash uint64
	buf  []byte // ring buffer of the last `window` bytes
	pos  int    // next write position in buf
	n    int    // number of bytes currently in the window (≤ window)
}

// New returns a Hasher detecting patterns of width q bits over the given
// window size.  q must be in [1, 63]; window must be positive.
func New(q uint, window int) *Hasher {
	if q < 1 || q > 63 {
		panic("rolling: q out of range [1,63]")
	}
	if window <= 0 {
		panic("rolling: window must be positive")
	}
	h := &Hasher{
		q:      q,
		mask:   (uint64(1) << q) - 1,
		easy:   (uint64(1) << EasyBits(q)) - 1,
		window: window,
		buf:    make([]byte, window),
	}
	h.table = gamma(q)
	for b := 0; b < 256; b++ {
		h.shiftK[b] = rotQ(h.table[b], uint(window%int(q)), q)
	}
	return h
}

// Reset clears the window so the hasher can be reused from a chunk boundary.
// Resetting at every emitted boundary is what makes chunking a deterministic
// function of the byte stream following the boundary.
func (h *Hasher) Reset() {
	h.hash = 0
	h.pos = 0
	h.n = 0
}

// Roll feeds one byte into the window and returns the updated hash value.
func (h *Hasher) Roll(b byte) uint64 {
	if h.n == h.window {
		old := h.buf[h.pos]
		// Remove the contribution of the byte leaving the window: it has
		// been rotated window times since insertion, i.e. by window mod q.
		h.hash = rot1(h.hash, h.q) ^ h.shiftK[old] ^ h.table[b]
	} else {
		h.hash = rot1(h.hash, h.q) ^ h.table[b]
		h.n++
	}
	h.buf[h.pos] = b
	h.pos++
	if h.pos == h.window {
		h.pos = 0
	}
	return h.hash
}

// Write feeds a byte slice through the window; it returns the final hash.
func (h *Hasher) Write(p []byte) uint64 {
	for _, b := range p {
		h.Roll(b)
	}
	return h.hash
}

// OnPattern reports whether the current window ends on a split pattern,
// i.e. Φ MOD 2^q == 0.  The window must be full: requiring h.n == window
// prevents trivially empty windows from matching.
func (h *Hasher) OnPattern() bool {
	return h.n == h.window && h.hash&h.mask == 0
}

// OnEasyPattern reports whether the current window ends on a pattern of the
// easy region past a normal point: Φ MOD 2^EasyBits(q) == 0.  Every full
// pattern is also an easy one.
func (h *Hasher) OnEasyPattern() bool {
	return h.n == h.window && h.hash&h.easy == 0
}

// EasyBits is the pattern width past a normal point: two bits fewer than q,
// so patterns fire four times as often there, and at least one.
func EasyBits(q uint) uint { return max(q, 3) - 2 }

// maxScanQ is the widest pattern NewScan accepts: its tables hold q-bit
// values in uint32.
const maxScanQ = 30

// Scan finds split patterns over a *contiguous* chunk buffer, making the
// exact boundary decisions — and returning the exact hash — of feeding the
// buffer through Hasher.Roll, without a ring buffer: the byte leaving the
// window is read straight from the buffer at index i-window.  POS-Tree
// builders hold each open node's encoded bytes contiguously anyway, so every
// level, leaf or index, cuts with it; the state carried between calls is
// just (position, hash).
//
// The kernel runs in de-rotated form.  Rather than h_i, the hash after byte
// i, it keeps g_i = δ^{-(i+1)}(h_i).  A byte then adds the same term to g
// when it enters the window and when it leaves it, and the update is two
// table lookups and XORs with no rotate:
//
//	g_i = g_{i-1} ⊕ D[i][b_i] ⊕ D[i-w][b_{i-w}],  D[j][b] = δ^{-(j+1)}(Γ(b))
//
// D depends only on j mod q.  δ is a bijection on q bits, so h_i is zero —
// the split pattern — exactly when g_i is, and h_i's low EasyBits(q) bits
// are zero exactly when g_i's bits under δ^{-(i+1)} of that mask are: the
// easy mask rotates with i mod q too.
//
// Scan is a small immutable value over a table shared by every scanner of
// the same q, and therefore safe to share between goroutines.
type Scan struct {
	q, window int
	step      int // 4 mod q: the row advance of one unrolled step
	// in[r] and out[r] are the four rows an unrolled step reads for the
	// bytes entering and leaving the window when the first entering byte's
	// index is r mod q: two views of one shared list, out lagging in by
	// window mod q rows.
	in, out []*[4]row
	// full and easy[r] are the masks g must clear after each byte of the
	// step, before and past the normal point.
	full *[4]uint32
	easy []*[4]uint32
}

// row is one rotation of Γ, a row of D.
type row = [256]uint32

// tables holds, per q, D's four-row windows quads[j] = D[j..j+3] for
// j < 2q, built on first use.  D is periodic in j, so both views, started
// at any offset below q, read four consecutive rows without wrapping.
// easy[r] holds the easy masks in g's frame after the bytes r..r+3 (mod q)
// and full the q-bit mask four times.
var tables [maxScanQ + 1]scanTables

type scanTables struct {
	once  sync.Once
	quads []*[4]row
	full  *[4]uint32
	easy  []*[4]uint32
}

func derotated(q uint) *scanTables {
	t := &tables[q]
	t.once.Do(func() {
		g := gamma(q)
		d := make([]row, 2*q+3)
		for j := range d {
			for b, v := range g {
				d[j][b] = uint32(rotQ(v, q-uint(j+1)%q, q))
			}
		}
		t.quads = make([]*[4]row, 2*q)
		for j := range t.quads {
			t.quads[j] = (*[4]row)(d[j : j+4])
		}
		// The byte at index i leaves g = δ^{-(i+1)}(h): the easy mask of h,
		// de-rotated by i+1.
		em := make([]uint32, q+4)
		for k := range em {
			em[k] = uint32(rotQ(1<<EasyBits(q)-1, q-uint(k)%q, q))
		}
		t.full = &[4]uint32{1<<q - 1, 1<<q - 1, 1<<q - 1, 1<<q - 1}
		t.easy = make([]*[4]uint32, q)
		for r := range t.easy {
			t.easy[r] = (*[4]uint32)(em[r+1 : r+5])
		}
	})
	return t
}

// NewScan returns a scanner with the same pattern semantics as New(q, window).
// q must be in [1, maxScanQ]; window must be positive.
func NewScan(q uint, window int) Scan {
	if q < 1 || q > maxScanQ {
		panic("rolling: q out of range [1,30]")
	}
	if window <= 0 {
		panic("rolling: window must be positive")
	}
	t, lag := derotated(q), int(q)-window%int(q)
	return Scan{q: int(q), window: window, step: 4 % int(q), in: t.quads[:q], out: t.quads[lag : lag+int(q)], full: t.full, easy: t.easy}
}

// Find resumes scanning node[pos:] for the first split pattern, where node is
// the full byte run of the open chunk.  Hashing started at index begin
// (bytes before begin were skipped, legal because no boundary may fire until
// the window no longer overlaps them); a pattern only counts at indexes
// >= check (the min-size rule, 0-based: byte i is the (i+1)-th byte of the
// chunk).  Below index normal a pattern needs all q bits of the hash zero,
// from normal on the low EasyBits(q) bits.  It returns the index of the
// first boundary byte or -1, plus the hash state after the boundary byte or
// after node, the state to pass back in when more bytes arrive.  A check
// past the end of node never fires, so Find then just advances the state to
// len(node).
//
// Callers must keep begin <= check-window+1 so that every checkable index
// has a full window of hashed bytes behind it; begin = max(0, minSize-window)
// with check = minSize-1 satisfies this exactly.
func (s *Scan) Find(node []byte, pos int, h uint64, begin, check, normal int) (int, uint64) {
	n, q, w, in := len(node), s.q, s.window, s.in
	i := max(pos, begin)
	if i >= n {
		return -1, h
	}
	// r tracks i mod q; h, the hash after byte i-1, enters as δ^{-i}(h).
	r := i % q
	g := rotl(uint32(h), uint(q-r), uint(q))
	// Fill phase: the window is not yet full, so no byte leaves it.  At most
	// `window` bytes per chunk run here; pattern checks are possible only on
	// the byte that completes the window.
	for fillEnd := min(begin+w, n); i < fillEnd; i++ {
		g ^= in[r][0][node[i]]
		mask := s.full[0]
		if i >= normal {
			mask = s.easy[r][0]
		}
		if r++; r == q {
			r = 0
		}
		if g&mask == 0 && i >= check && i-begin+1 >= w {
			return i, uint64(rotl(g, uint(r), uint(q)))
		}
	}
	// Steady state, the full-mask region first.
	mid := min(max(normal, i), n)
	hit, g, r := s.steady(node, i, mid, g, r, check, false)
	if hit < 0 {
		hit, g, r = s.steady(node, mid, n, g, r, check, true)
	}
	return hit, uint64(rotl(g, uint(r), uint(q))) // r == (hit+1 or n) mod q
}

// steady scans node[i:end) with a full window behind every byte, r = i mod
// q, testing g against the full mask, or against the easy masks when easy is
// set, after each byte.  It returns the first counted pattern or -1, and g
// and r after it or after end.
func (s *Scan) steady(node []byte, i, end int, g uint32, r, check int, easy bool) (int, uint32, int) {
	if i >= end {
		return -1, g, r
	}
	q, in, out := s.q, s.in, s.out
	// lead[k] enters the window as trail[k] leaves it.
	lead := node[i:end]
	trail := node[i-s.window:][:len(lead)]
	// Four bytes a step: x_j is what the step's first j+1 bytes XOR into
	// g, so its byte j hits exactly when g ^ x_j clears mask j — when g == x_j
	// under the full mask — and the only loop-carried work is the final XOR.
	for len(lead) >= 4 {
		a, b := lead[:4], trail[:4]
		l, t := in[r], out[r]
		x0 := l[0][a[0]] ^ t[0][b[0]]
		x1 := x0 ^ l[1][a[1]] ^ t[1][b[1]]
		x2 := x1 ^ l[2][a[2]] ^ t[2][b[2]]
		x3 := x2 ^ l[3][a[3]] ^ t[3][b[3]]
		m := s.full
		if easy {
			m = s.easy[r]
		}
		if !easy && (g == x0 || g == x1 || g == x2 || g == x3) ||
			easy && ((g^x0)&m[0] == 0 || (g^x1)&m[1] == 0 || (g^x2)&m[2] == 0 || (g^x3)&m[3] == 0) {
			for j, x := range [4]uint32{x0, x1, x2, x3} {
				if at := end - len(lead) + j; (g^x)&m[j] == 0 && at >= check {
					return at, g ^ x, (r + j + 1) % q
				}
			}
		}
		g ^= x3
		if r += s.step; r >= q {
			r -= q
		}
		lead, trail = lead[4:], trail[4:]
	}
	for ; len(lead) > 0; lead, trail = lead[1:], trail[1:] {
		g ^= in[r][0][lead[0]] ^ out[r][0][trail[0]]
		mask := s.full[0]
		if easy {
			mask = s.easy[r][0]
		}
		if r++; r == q {
			r = 0
		}
		if at := end - len(lead); g&mask == 0 && at >= check {
			return at, g, r
		}
	}
	return -1, g, r
}

// SkipStart returns the index at which hashing may begin for a chunk whose
// first boundary check happens at index minSize-1: the preceding bytes can
// never be inside a checked window, so scanning them is pure waste.
func (s *Scan) SkipStart(minSize int) int {
	if minSize > s.window {
		return minSize - s.window
	}
	return 0
}

// rot1 rotates v left by one bit within q bits: the q-th bit is pushed back
// to the lowest position (δ in the paper).
func rot1(v uint64, q uint) uint64 {
	v <<= 1
	v |= (v >> q) & 1
	return v & ((uint64(1) << q) - 1)
}

// rotl rotates the q-bit value v left by n ≤ q bits: δ^n without a division.
func rotl(v uint32, n, q uint) uint32 {
	return (v<<n | v>>(q-n)) & (1<<q - 1)
}

// rotQ applies rot1 n times.
func rotQ(v uint64, n, q uint) uint64 {
	n %= q
	mask := (uint64(1) << q) - 1
	v &= mask
	return ((v << n) | (v >> (q - n))) & mask
}

// gamma builds the byte-substitution table Γ: a fixed, platform-independent
// pseudo-random mapping from bytes to integers in [0, 2^q).  Determinism
// matters: every ForkBase instance must chunk identically or content
// addressing breaks, so the table is derived from a fixed SplitMix64 stream
// rather than any runtime randomness.
func gamma(q uint) [256]uint64 {
	var t [256]uint64
	mask := (uint64(1) << q) - 1
	s := uint64(0x9E3779B97F4A7C15) // fixed seed
	for i := 0; i < 256; i++ {
		s += 0x9E3779B97F4A7C15
		z := s
		z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
		z = (z ^ (z >> 27)) * 0x94D049BB133111EB
		z ^= z >> 31
		t[i] = z & mask
	}
	return t
}
