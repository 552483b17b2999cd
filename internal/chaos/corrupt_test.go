package chaos_test

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"forkbase/internal/chaos"
	"forkbase/internal/chunk"
	"forkbase/internal/store"
)

// writeSegments fills a small-segment FileStore so several sealed segments
// exist, then closes it and returns the directory.
func writeSegments(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	s, err := store.OpenFileStoreWith(dir, store.FileStoreOptions{SegmentSize: 2048})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 60; i++ {
		c := chunk.New(chunk.TypeBlobLeaf, bytes.Repeat([]byte{byte(i), byte(i >> 8)}, 100))
		if _, err := s.Put(c); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	return dir
}

// idleProxy is a proxy nothing ever dials: Agitator rounds only arm faults,
// so no backing server is needed.
func idleProxy(t *testing.T) *chaos.Proxy {
	t.Helper()
	p, err := chaos.NewProxy("127.0.0.1:9")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Close() })
	return p
}

// class is the first word of an Agitator round description — stable across
// runs even though proxy addresses differ.
func class(desc string) string {
	if i := strings.IndexByte(desc, ' '); i > 0 {
		return desc[:i]
	}
	return desc
}

// TestCorruptFileDeterministic: the same (seed, nFlips) flips the same bits,
// so a corruption scenario replays exactly.
func TestCorruptFileDeterministic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "f")
	payload := bytes.Repeat([]byte{0xAB}, 4096)
	var rounds [2][]byte
	for round := 0; round < 2; round++ {
		if err := os.WriteFile(path, payload, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := chaos.CorruptFile(path, 42, 5); err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if bytes.Equal(got, payload) {
			t.Fatal("corruption flipped nothing")
		}
		rounds[round] = got
	}
	if !bytes.Equal(rounds[0], rounds[1]) {
		t.Fatal("same seed produced different corruption")
	}
}

// TestCorruptSegmentSparesActiveTail: the victim is always a sealed segment,
// never the highest-numbered (active) one, and the damage is visible to a
// reopening store's recovery classifier.
func TestCorruptSegmentSparesActiveTail(t *testing.T) {
	dir := writeSegments(t)
	segs, err := chaos.SegmentFiles(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) < 3 {
		t.Fatalf("want several segments, got %d", len(segs))
	}
	active := segs[len(segs)-1]
	for seed := int64(0); seed < 8; seed++ {
		victim, err := chaos.CorruptSegment(dir, seed, 1)
		if err != nil {
			t.Fatal(err)
		}
		if victim == active {
			t.Fatalf("seed %d corrupted the active tail %s", seed, victim)
		}
	}
	s, err := store.OpenFileStoreWith(dir, store.FileStoreOptions{SegmentSize: 2048})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	st, _, ok := s.LastScrub()
	if !ok || st.Corrupt+st.Torn == 0 {
		t.Fatalf("recovery saw no damage after 8 corruption rounds: %+v", st)
	}
}

// TestCorruptSegmentNeedsSealed: a store with only an active tail has
// nothing safe to corrupt; the injector says so instead of rotting a live
// append target.
func TestCorruptSegmentNeedsSealed(t *testing.T) {
	dir := t.TempDir()
	s, err := store.OpenFileStoreWith(dir, store.FileStoreOptions{SegmentSize: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.Put(chunk.New(chunk.TypeBlobLeaf, []byte("only one segment"))); err != nil {
		t.Fatal(err)
	}
	if _, err := chaos.CorruptSegment(dir, 1, 1); err == nil {
		t.Fatal("expected an error with no sealed segments")
	}
}

// TestAgitatorDiskEvents: with a disk opted in, the seeded schedule includes
// disk-rot rounds, and the same seed replays the same class sequence.
func TestAgitatorDiskEvents(t *testing.T) {
	run := func(dir string) []string {
		ag := chaos.NewAgitator(7, idleProxy(t))
		ag.MaxOutage = 2 // nanoseconds: keep holds instant
		ag.AddDisk(dir)
		var classes []string
		for i := 0; i < 40; i++ {
			classes = append(classes, class(ag.Round()))
		}
		return classes
	}
	a := run(writeSegments(t))
	b := run(writeSegments(t))

	disk := 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("round %d diverged: %q vs %q", i, a[i], b[i])
		}
		if a[i] == "disk" {
			disk++
		}
	}
	if disk == 0 {
		t.Fatal("40 rounds with a disk opted in never drew the disk class")
	}
}

// TestAgitatorNoDiskKeepsSchedule: without AddDisk the schedule never draws
// the disk class — existing seeded storms replay unchanged.
func TestAgitatorNoDiskKeepsSchedule(t *testing.T) {
	ag := chaos.NewAgitator(7, idleProxy(t))
	ag.MaxOutage = 2
	for i := 0; i < 40; i++ {
		if class(ag.Round()) == "disk" {
			t.Fatal("disk class drawn without AddDisk")
		}
	}
}
