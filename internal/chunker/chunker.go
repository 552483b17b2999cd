// Package chunker holds the content-defined chunking configuration — the
// rolling-hash pattern width and window of package rolling plus minimum and
// maximum chunk sizes — and ByteChunker, the byte-at-a-time reference form of
// the leaf cut.  The POS-Tree builders cut every level with rolling.Scan
// over their contiguous node buffers (pos.newLevelScan).
//
// The leaf cut is normalized in two regions on the one rolling hash: a
// pattern at chunk offset i >= MinSize-1 counts when all Q hash bits are zero
// below offset NormalSize() = 2^Q, and when the low rolling.EasyBits(Q) bits
// are zero from there on.  Chunk sizes then bunch around 2^Q instead of
// spreading geometrically past MinSize, so the nodes an edit lands in — drawn
// in proportion to their size — are barely larger than the mean.
//
// Because the min/max guards and the rolling hash are deterministic
// functions of the bytes following the previous boundary, chunking remains a
// pure function of the stream — the property that makes POS-Tree
// structurally invariant.
package chunker

import (
	"fmt"

	"forkbase/internal/rolling"
)

// Config controls chunk-boundary detection.
type Config struct {
	// Q is the pattern bit-width; chunks average about 2^Q bytes.
	Q uint
	// Window is the rolling hash window size in bytes.
	Window int
	// MinSize suppresses patterns before this many bytes of a chunk,
	// avoiding degenerate tiny chunks.
	MinSize int
	// MaxSize forces a boundary after this many bytes even without a
	// pattern, bounding worst-case node size.
	MaxSize int
}

// Validate rejects configurations that would chunk nonsensically, so a bad
// config fails at DB open instead of deep inside the first build.  It
// checks the *explicit* values: zero-value fields are filled by the same
// defaults the chunkers apply (Normalized), and a fully zero Config means
// "use defaults" and should not be validated at all.
func (c Config) Validate() error {
	if c.Q < 1 || c.Q > 30 {
		return fmt.Errorf("chunker: Q=%d out of range [1,30] (expected chunk size is 2^Q bytes)", c.Q)
	}
	if c.Window <= 0 {
		return fmt.Errorf("chunker: Window=%d must be positive", c.Window)
	}
	if c.Window > 1<<20 {
		return fmt.Errorf("chunker: Window=%d is absurd (max 1 MiB)", c.Window)
	}
	if c.MinSize <= 0 {
		return fmt.Errorf("chunker: MinSize=%d must be positive", c.MinSize)
	}
	if c.MinSize >= c.MaxSize {
		return fmt.Errorf("chunker: MinSize=%d must be smaller than MaxSize=%d", c.MinSize, c.MaxSize)
	}
	return nil
}

// DefaultConfig yields ~4 KiB average chunks, the sweet spot the ForkBase
// paper uses for page-level deduplication: MinSize is half of 2^Q, so with
// the normalized cut the mean stays near 4.3 KiB.
func DefaultConfig() Config {
	return Config{Q: 12, Window: rolling.DefaultWindow, MinSize: 1 << 11, MaxSize: 1 << 16}
}

// SmallConfig yields ~270 B average chunks, for tests that want deep trees
// from small inputs.
func SmallConfig() Config {
	return Config{Q: 8, Window: rolling.DefaultWindow, MinSize: 1 << 7, MaxSize: 1 << 12}
}

// NormalSize is the chunk offset from which the easy pattern counts: 2^Q.
func (c Config) NormalSize() int { return 1 << c.Q }

// Normalized returns the config with zero or inconsistent fields replaced by
// the same defaults the chunkers apply internally, so callers that read the
// bounds directly (the bulk-scanning node builders) agree with the chunkers.
func (c Config) Normalized() Config { return c.validate() }

func (c Config) validate() Config {
	if c.Q == 0 {
		c.Q = 12
	}
	if c.Window <= 0 {
		c.Window = rolling.DefaultWindow
	}
	if c.MinSize <= 0 {
		c.MinSize = 1
	}
	if c.MaxSize < c.MinSize {
		c.MaxSize = c.MinSize * 64
	}
	return c
}

// ByteChunker consumes bytes and reports boundaries.
// Not safe for concurrent use.
type ByteChunker struct {
	cfg Config
	h   *rolling.Hasher
	n   int // bytes since last boundary
}

// NewByteChunker returns a chunker with the given configuration.
func NewByteChunker(cfg Config) *ByteChunker {
	cfg = cfg.validate()
	return &ByteChunker{cfg: cfg, h: rolling.New(cfg.Q, cfg.Window)}
}

// Write feeds p into the chunker and returns the offsets (relative to the
// start of p) immediately after which a boundary occurs.
func (b *ByteChunker) Write(p []byte) []int {
	var cuts []int
	for i, by := range p {
		if b.roll(by) {
			cuts = append(cuts, i+1)
			b.reset()
		}
	}
	return cuts
}

// roll feeds one byte and reports whether a boundary occurs after it,
// without resetting.
func (b *ByteChunker) roll(by byte) bool {
	b.h.Roll(by)
	b.n++
	if b.n >= b.cfg.MaxSize {
		return true
	}
	if b.n <= b.cfg.NormalSize() { // offset n-1 is below 2^Q
		return b.n >= b.cfg.MinSize && b.h.OnPattern()
	}
	return b.n >= b.cfg.MinSize && b.h.OnEasyPattern()
}

func (b *ByteChunker) reset() {
	b.h.Reset()
	b.n = 0
}

// Reset restarts the chunker at a boundary.
func (b *ByteChunker) Reset() { b.reset() }
