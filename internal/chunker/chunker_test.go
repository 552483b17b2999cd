package chunker

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

func tcfg() Config { return Config{Q: 8, Window: 16, MinSize: 32, MaxSize: 4096} }

func TestSplitBytesReassembles(t *testing.T) {
	f := func(data []byte) bool {
		segs := SplitBytes(data, tcfg())
		var joined []byte
		for _, s := range segs {
			joined = append(joined, s...)
		}
		return bytes.Equal(joined, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestSplitBytesDeterministic(t *testing.T) {
	data := make([]byte, 100*1024)
	rand.New(rand.NewSource(5)).Read(data)
	a := SplitBytes(data, tcfg())
	b := SplitBytes(data, tcfg())
	if len(a) != len(b) {
		t.Fatalf("nondeterministic: %d vs %d segments", len(a), len(b))
	}
	for i := range a {
		if !bytes.Equal(a[i], b[i]) {
			t.Fatalf("segment %d differs", i)
		}
	}
}

func TestSplitBytesRespectsBounds(t *testing.T) {
	data := make([]byte, 256*1024)
	rand.New(rand.NewSource(9)).Read(data)
	cfg := tcfg()
	segs := SplitBytes(data, cfg)
	for i, s := range segs {
		if len(s) > cfg.MaxSize {
			t.Fatalf("segment %d size %d > max %d", i, len(s), cfg.MaxSize)
		}
		if i < len(segs)-1 && len(s) < cfg.MinSize {
			t.Fatalf("non-final segment %d size %d < min %d", i, len(s), cfg.MinSize)
		}
	}
	if len(segs) < 10 {
		t.Fatalf("suspiciously few segments: %d", len(segs))
	}
}

func TestSplitBytesAverageNearTarget(t *testing.T) {
	data := make([]byte, 1<<20)
	rand.New(rand.NewSource(13)).Read(data)
	cfg := Config{Q: 10, Window: 32, MinSize: 64, MaxSize: 1 << 14}
	segs := SplitBytes(data, cfg)
	avg := float64(len(data)) / float64(len(segs))
	// Expected ~2^10 = 1024; allow a factor of 2 either way.
	if avg < 512 || avg > 2048 {
		t.Fatalf("average segment %f, expected near 1024", avg)
	}
}

// TestLocalEditLocality: editing a few bytes must change only nearby
// segments — the content-defined-chunking property that powers dedup.
func TestLocalEditLocality(t *testing.T) {
	data := make([]byte, 512*1024)
	rand.New(rand.NewSource(21)).Read(data)
	edited := append([]byte(nil), data...)
	copy(edited[256*1024:], "XYZZY")

	cfg := tcfg()
	a := SplitBytes(data, cfg)
	b := SplitBytes(edited, cfg)

	segSet := map[string]bool{}
	for _, s := range a {
		segSet[string(s)] = true
	}
	changed := 0
	for _, s := range b {
		if !segSet[string(s)] {
			changed++
		}
	}
	if changed > 5 {
		t.Fatalf("%d of %d segments changed after a 5-byte edit", changed, len(b))
	}
}

func TestSplitEmpty(t *testing.T) {
	if segs := SplitBytes(nil, tcfg()); segs != nil {
		t.Fatalf("empty input produced %d segments", len(segs))
	}
}

func TestByteChunkerWriteMatchesRoll(t *testing.T) {
	data := make([]byte, 64*1024)
	rand.New(rand.NewSource(3)).Read(data)
	c1 := NewByteChunker(tcfg())
	cuts1 := c1.Write(data)
	c2 := NewByteChunker(tcfg())
	var cuts2 []int
	for i, by := range data {
		if c2.Roll(by) {
			cuts2 = append(cuts2, i+1)
		}
	}
	if len(cuts1) != len(cuts2) {
		t.Fatalf("Write %d cuts, Roll %d cuts", len(cuts1), len(cuts2))
	}
	for i := range cuts1 {
		if cuts1[i] != cuts2[i] {
			t.Fatalf("cut %d: %d vs %d", i, cuts1[i], cuts2[i])
		}
	}
}

func TestEntryChunkerAlignment(t *testing.T) {
	// Whatever the content, boundaries fall only after whole entries, and
	// the same entry stream always chunks identically.
	rng := rand.New(rand.NewSource(17))
	entries := make([][]byte, 2000)
	for i := range entries {
		e := make([]byte, 10+rng.Intn(100))
		rng.Read(e)
		entries[i] = e
	}
	run := func() []int {
		ec := NewEntryChunker(tcfg())
		var cuts []int
		for i, e := range entries {
			if ec.Add(e) {
				cuts = append(cuts, i)
			}
		}
		return cuts
	}
	a, b := run(), run()
	if len(a) == 0 {
		t.Fatal("no boundaries over 2000 entries")
	}
	if len(a) != len(b) {
		t.Fatalf("nondeterministic entry chunking")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("cut %d: %d vs %d", i, a[i], b[i])
		}
	}
}

func TestEntryChunkerMaxSizeForcesBoundary(t *testing.T) {
	cfg := Config{Q: 20, Window: 16, MinSize: 1, MaxSize: 100} // pattern nearly never fires
	ec := NewEntryChunker(cfg)
	big := make([]byte, 150)
	if !ec.Add(big) {
		t.Fatal("max-size guard did not force a boundary")
	}
}

func TestEntryChunkerMaxEntries(t *testing.T) {
	cfg := Config{Q: 30, Window: 16, MinSize: 1, MaxSize: 1 << 30}
	ec := NewEntryChunker(cfg)
	ec.MaxEntries = 3
	fired := 0
	for i := 0; i < 9; i++ {
		if ec.Add([]byte{1, 2, 3}) {
			fired++
		}
	}
	if fired != 3 {
		t.Fatalf("MaxEntries fired %d times, want 3", fired)
	}
}

func TestValidate(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
		ok   bool
	}{
		{"default", DefaultConfig(), true},
		{"small", SmallConfig(), true},
		{"test", tcfg(), true},
		{"zero q", Config{Q: 0, Window: 48, MinSize: 1, MaxSize: 2}, false},
		{"absurd q", Config{Q: 40, Window: 48, MinSize: 1, MaxSize: 2}, false},
		{"zero window", Config{Q: 12, Window: 0, MinSize: 1, MaxSize: 2}, false},
		{"absurd window", Config{Q: 12, Window: 1 << 21, MinSize: 1, MaxSize: 2}, false},
		{"min>=max", Config{Q: 12, Window: 48, MinSize: 64, MaxSize: 64}, false},
		{"min>max", Config{Q: 12, Window: 48, MinSize: 65, MaxSize: 64}, false},
		{"zero min", Config{Q: 12, Window: 48, MinSize: 0, MaxSize: 64}, false},
	}
	for _, c := range cases {
		if err := c.cfg.Validate(); (err == nil) != c.ok {
			t.Errorf("%s: Validate() = %v, want ok=%v", c.name, err, c.ok)
		}
	}
}

func TestConfigValidateDefaults(t *testing.T) {
	c := Config{}.validate()
	if c.Q == 0 || c.Window <= 0 || c.MinSize <= 0 || c.MaxSize < c.MinSize {
		t.Fatalf("validate left bad config: %+v", c)
	}
	d := DefaultConfig()
	if d.MaxSize < d.MinSize || d.Q != 12 {
		t.Fatalf("DefaultConfig: %+v", d)
	}
	s := SmallConfig()
	if s.Q != 8 {
		t.Fatalf("SmallConfig: %+v", s)
	}
}
