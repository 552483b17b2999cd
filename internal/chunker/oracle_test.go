package chunker

import "forkbase/internal/rolling"

// The one-shot splitter and the entry-aligned chunker below are reference
// forms of the leaf cut, kept for the tests: the builders cut with
// rolling.Scan over their node buffers, and these byte-at-a-time forms must
// reproduce the same golden vectors.

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

// Roll feeds a single byte; it returns true if a boundary occurs after it.
func (b *ByteChunker) Roll(by byte) bool {
	if b.roll(by) {
		b.reset()
		return true
	}
	return false
}

// EntryChunker consumes whole entries (as encoded byte slices) and decides
// after each entry whether a node boundary occurs.  If the pattern fires
// mid-entry the boundary is extended to the end of that entry, as §II-A of
// the paper describes ("If a pattern occurs in the middle of an entry, the
// page boundary is extended to cover the whole entry").
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
// after it.  A pattern anywhere inside the entry (at or past MinSize; the
// easy one past NormalSize) closes the node at the entry's end.
func (e *EntryChunker) Add(encoded []byte) bool {
	hit := false
	for _, by := range encoded {
		e.h.Roll(by)
		e.bytes++
		if !hit && e.bytes >= e.cfg.MinSize {
			if e.bytes <= e.cfg.NormalSize() {
				hit = e.h.OnPattern()
			} else {
				hit = e.h.OnEasyPattern()
			}
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
