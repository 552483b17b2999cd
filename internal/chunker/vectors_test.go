package chunker

import (
	"testing"

	"forkbase/internal/rolling"
)

// FastCDC-2020-style pinned vectors for the rolling-hash chunker: a fixed
// SplitMix64-generated input must always cut at exactly these offsets. Any
// change to the Γ table, the rolling update, the min/max clamping or the
// two-region rule (full pattern below 2^Q, easy one from there) shows up
// here as a diff of literal integers rather than a silent re-chunk of every
// stored object (which would destroy cross-version dedup).

// vecInput deterministically expands a seed into n bytes with SplitMix64.
// Self-contained on purpose: the vectors must not depend on math/rand's
// generator remaining stable across Go releases.
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

var rollingVectors = []struct {
	name string
	seed uint64
	n    int
	cfg  Config
	cuts []int // end offset of every chunk, in order; last == n
}{
	{
		name: "default-128k",
		seed: 1,
		n:    128 << 10,
		cfg:  DefaultConfig(),
		cuts: []int{
			2734, 7667, 12987, 15612, 19727, 23126, 26351, 30828, 35962, 42092,
			44179, 48410, 54444, 59296, 64573, 69354, 74739, 78040, 82214, 89150,
			91447, 95682, 100840, 104827, 109010, 112114, 117133, 121711, 126231, 131072,
		},
	},
	{
		name: "small-16k",
		seed: 2,
		n:    16 << 10,
		cfg:  SmallConfig(),
		cuts: []int{
			307, 639, 850, 1055, 1316, 1509, 1793, 2064, 2261, 2641,
			2943, 3230, 3389, 3787, 4195, 4455, 4729, 4987, 5390, 5656,
			5969, 6385, 6777, 6922, 7137, 7275, 7618, 8014, 8230, 8527,
			8683, 8913, 9132, 9424, 9554, 9840, 10117, 10419, 10571, 10782,
			11071, 11373, 11656, 11819, 11975, 12259, 12646, 12873, 13142, 13439,
			13692, 14091, 14520, 14855, 15147, 15335, 15708, 15932, 16205, 16333,
			16384,
		},
	},
	{
		name: "window16-16k",
		seed: 3,
		n:    16 << 10,
		cfg:  tcfg(),
		cuts: []int{
			261, 373, 717, 758, 1024, 1290, 1369, 1437, 1590, 1767,
			2110, 2298, 2331, 2389, 2764, 3106, 3435, 3488, 3642, 3729,
			3962, 4423, 4768, 5051, 5122, 5344, 5379, 5740, 5863, 5945,
			6166, 6332, 6609, 6881, 7111, 7346, 7428, 7843, 8030, 8338,
			8715, 8855, 8921, 9237, 9422, 9825, 9904, 9942, 10114, 10374,
			10631, 10972, 11119, 11417, 11562, 11837, 12098, 12164, 12289, 12599,
			12910, 13045, 13416, 13503, 13653, 14021, 14359, 14570, 14631, 14878,
			15185, 15444, 15717, 15884, 16232, 16329, 16379, 16384,
		},
	},
}

// sameCuts fails t unless got equals want.
func sameCuts(t *testing.T, how string, got, want []int) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d chunks, want %d", how, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: chunk %d ends at %d, want %d", how, i, got[i], want[i])
		}
	}
}

func TestRollingGoldenVectors(t *testing.T) {
	for _, tc := range rollingVectors {
		t.Run(tc.name, func(t *testing.T) {
			var cuts []int
			off := 0
			for i, s := range SplitBytes(vecInput(tc.seed, tc.n), tc.cfg) {
				off += len(s)
				cuts = append(cuts, off)
				if off != tc.n && (len(s) < tc.cfg.MinSize || len(s) > tc.cfg.MaxSize) {
					t.Fatalf("chunk %d size %d outside [%d, %d]", i, len(s), tc.cfg.MinSize, tc.cfg.MaxSize)
				}
			}
			sameCuts(t, "SplitBytes", cuts, tc.cuts)
		})
	}
}

// TestRollingStreamingMatchesVectors pins that the streaming forms cut where
// the one-shot splitter does: ByteChunker fed in awkward write sizes,
// EntryChunker fed uneven entries (none straddling a pinned cut, so the
// whole-entry rule never moves a boundary), and rolling.Scan.Find resumed over
// uneven appends with the builders' min-size skip and max-size clamp.
func TestRollingStreamingMatchesVectors(t *testing.T) {
	for _, tc := range rollingVectors {
		t.Run(tc.name, func(t *testing.T) {
			data := vecInput(tc.seed, tc.n)
			// The tail after the final content-defined boundary is the last
			// chunk; SplitBytes emits it, the streaming forms leave it pending.
			withTail := func(cuts []int) []int {
				if len(cuts) == 0 || cuts[len(cuts)-1] != tc.n {
					cuts = append(cuts, tc.n)
				}
				return cuts
			}

			bc := NewByteChunker(tc.cfg)
			var cuts []int
			for i := 0; i < len(data); {
				step := min(1+(i%777), len(data)-i)
				for _, rel := range bc.Write(data[i : i+step]) {
					cuts = append(cuts, i+rel)
				}
				i += step
			}
			sameCuts(t, "ByteChunker", withTail(cuts), tc.cuts)

			ec := NewEntryChunker(tc.cfg)
			cuts = nil
			for off, next := 0, 0; off < len(data); {
				end := min(off+1+(off*7)%61, tc.cuts[next])
				if ec.Add(data[off:end]) {
					cuts = append(cuts, end)
				}
				if end == tc.cuts[next] {
					next++
				}
				off = end
			}
			sameCuts(t, "EntryChunker", withTail(cuts), tc.cuts)

			sameCuts(t, "Scan.Find", withTail(scanCuts(data, tc.cfg)), tc.cuts)
		})
	}
}

// scanCuts chunks data the way the POS-Tree leaf builders do: the open chunk
// grows by uneven appends (never past MaxSize), Find resumes from the last
// scanned position and hash, and a hit or a full chunk closes it, carrying
// any bytes past the hit into the next chunk with fresh scan state.
func scanCuts(data []byte, cfg Config) []int {
	cfg = cfg.Normalized()
	s := rolling.NewScan(cfg.Q, cfg.Window)
	begin, check := s.SkipStart(cfg.MinSize), cfg.MinSize-1
	var cuts []int
	start, end := 0, 0 // the open chunk is data[start:end]
	pos, h := 0, uint64(0)
	for start < len(data) {
		end = min(end+1+(end%301), start+cfg.MaxSize, len(data))
		hit, nh := s.Find(data[start:end], pos, h, begin, check, cfg.NormalSize())
		switch {
		case hit >= 0:
			start += hit + 1
		case end-start >= cfg.MaxSize:
			start = end
		case end == len(data):
			return cuts
		default:
			pos, h = end-start, nh
			continue
		}
		cuts = append(cuts, start)
		pos, h = 0, 0
	}
	return cuts
}
