// Package chunker turns byte streams and entry streams into content-defined
// chunks using the rolling-hash pattern of package rolling.
//
// Two chunkers are provided:
//
//   - ByteChunker splits a raw byte stream (used for blob leaves).
//   - EntryChunker splits a stream of variable-length entries so that no
//     entry straddles a chunk boundary; if the pattern fires mid-entry the
//     boundary is extended to the end of that entry, exactly as described in
//     §II-A of the paper ("If a pattern occurs in the middle of an entry,
//     the page boundary is extended to cover the whole entry").
//
// Both enforce minimum and maximum chunk sizes.  Because the min/max guards
// and the rolling hash are deterministic functions of the bytes following
// the previous boundary, chunking remains a pure function of the stream —
// the property that makes POS-Tree structurally invariant.
package chunker

import (
	"fmt"

	"forkbase/internal/rolling"
)

// Config controls chunk-boundary detection.
type Config struct {
	// Q is the pattern bit-width; expected chunk size is 2^Q bytes.
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
// paper uses for page-level deduplication.
func DefaultConfig() Config {
	return Config{Q: 12, Window: rolling.DefaultWindow, MinSize: 1 << 9, MaxSize: 1 << 16}
}

// SmallConfig yields ~256 B average chunks; useful for index levels and for
// tests that want deep trees from small inputs.
func SmallConfig() Config {
	return Config{Q: 8, Window: rolling.DefaultWindow, MinSize: 1 << 5, MaxSize: 1 << 12}
}

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

// Roll feeds a single byte; it returns true if a boundary occurs after it.
func (b *ByteChunker) Roll(by byte) bool {
	if b.roll(by) {
		b.reset()
		return true
	}
	return false
}

// roll feeds one byte and reports whether a boundary occurs after it,
// without resetting.
func (b *ByteChunker) roll(by byte) bool {
	b.h.Roll(by)
	b.n++
	if b.n >= b.cfg.MaxSize {
		return true
	}
	return b.n >= b.cfg.MinSize && b.h.OnPattern()
}

func (b *ByteChunker) reset() {
	b.h.Reset()
	b.n = 0
}

// Reset restarts the chunker at a boundary.
func (b *ByteChunker) Reset() { b.reset() }

// SplitBytes slices data into content-defined segments.  The concatenation of
// the returned segments equals data, every segment except possibly the last
// ends at a pattern (or the max-size guard), and the split depends only on
// the content of data.
func SplitBytes(data []byte, cfg Config) [][]byte {
	if len(data) == 0 {
		return nil
	}
	c := NewByteChunker(cfg)
	var out [][]byte
	start := 0
	for i := 0; i < len(data); i++ {
		if c.Roll(data[i]) {
			out = append(out, data[start:i+1])
			start = i + 1
		}
	}
	if start < len(data) {
		out = append(out, data[start:])
	}
	return out
}

// EntryChunker consumes whole entries (as encoded byte slices) and decides
// after each entry whether a node boundary occurs.
// Not safe for concurrent use.
type EntryChunker struct {
	cfg     Config
	h       *rolling.Hasher
	bytes   int // bytes since last boundary
	entries int // entries since last boundary
	// MaxEntries optionally bounds entries per node (0 = no bound).
	MaxEntries int
}

// NewEntryChunker returns an entry-aligned chunker.
func NewEntryChunker(cfg Config) *EntryChunker {
	cfg = cfg.validate()
	return &EntryChunker{cfg: cfg, h: rolling.New(cfg.Q, cfg.Window)}
}

// Add feeds one encoded entry and reports whether the node should be closed
// after it.  A pattern anywhere inside the entry (at or past MinSize) closes
// the node at the entry's end — the "extend the boundary to cover the whole
// entry" rule.
func (e *EntryChunker) Add(encoded []byte) bool {
	hit := false
	for _, by := range encoded {
		e.h.Roll(by)
		e.bytes++
		if !hit && e.bytes >= e.cfg.MinSize && e.h.OnPattern() {
			hit = true
		}
	}
	e.entries++
	if e.bytes >= e.cfg.MaxSize {
		hit = true
	}
	if e.MaxEntries > 0 && e.entries >= e.MaxEntries {
		hit = true
	}
	if hit {
		e.Reset()
	}
	return hit
}

// Reset restarts the chunker at a node boundary.
func (e *EntryChunker) Reset() {
	e.h.Reset()
	e.bytes = 0
	e.entries = 0
}

// indexFanoutBits chooses the expected children per index node (2^bits) so
// that index nodes stay size-proportionate to leaves: an index entry is
// ~48 bytes (split key + 32-byte hash + count), so matching the 2^Q leaf
// target gives bits ≈ Q-6, clamped so reduction stays geometric (≥4× per
// level) and nodes stay bounded (≤256 children on average).
func indexFanoutBits(q uint) uint {
	bits := int(q) - 6
	if bits < 2 {
		bits = 2
	}
	if bits > 8 {
		bits = 8
	}
	return uint(bits)
}

// IndexMaxEntries bounds index-node width regardless of pattern luck.
const IndexMaxEntries = 1 << 10

// IndexChunker decides node boundaries for POS-Tree *index* levels with
// entry-granular patterns: after each entry the rolling hash's low
// IndexFanoutBits bits decide the split, so the boundary probability is
// independent of entry size.  Combined with a two-entry minimum this
// guarantees every index level at most halves the node count — byte-granular
// patterns cannot promise that when entries are longer than the expected
// pattern distance, which would stall tree construction.
//
// Like the byte-granular chunker it is a pure function of the entry stream,
// so structural invariance and incremental-edit re-synchronisation hold
// unchanged.
type IndexChunker struct {
	h       *rolling.Hasher
	mask    uint64
	entries int
}

// NewIndexChunker returns an index-level chunker for the configuration.
func NewIndexChunker(cfg Config) *IndexChunker {
	cfg = cfg.validate()
	bits := indexFanoutBits(cfg.Q)
	if cfg.Q < bits {
		bits = cfg.Q
	}
	return &IndexChunker{
		h:    rolling.New(cfg.Q, cfg.Window),
		mask: (uint64(1) << bits) - 1,
	}
}

// Add feeds one encoded index entry; it reports whether the node closes
// after it.
func (c *IndexChunker) Add(encoded []byte) bool {
	c.h.Write(encoded)
	c.entries++
	hit := c.entries >= 2 && c.h.Sum64()&c.mask == 0
	if c.entries >= IndexMaxEntries {
		hit = true
	}
	if hit {
		c.Reset()
	}
	return hit
}

// Reset restarts the chunker at a node boundary.
func (c *IndexChunker) Reset() {
	c.h.Reset()
	c.entries = 0
}

// Boundary is the decision interface shared by the entry-granular leaf
// chunker and the index chunker.
type Boundary interface {
	// Add feeds one encoded entry and reports whether a node boundary
	// occurs after it.
	Add(encoded []byte) bool
	// Reset restarts the decision state at a boundary.
	Reset()
}

var (
	_ Boundary = (*EntryChunker)(nil)
	_ Boundary = (*IndexChunker)(nil)
)
