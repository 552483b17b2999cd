package pos

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"forkbase/internal/chunk"
	"forkbase/internal/chunker"
	"forkbase/internal/hash"
	"forkbase/internal/index"
	"forkbase/internal/store"
)

func genItems(n int, seed int64) [][]byte {
	rng := rand.New(rand.NewSource(seed))
	out := make([][]byte, n)
	for i := range out {
		out[i] = []byte(fmt.Sprintf("item-%06d-%d", i, rng.Intn(1<<16)))
	}
	return out
}

func TestSeqBuildAndGet(t *testing.T) {
	st := store.NewMemStore()
	for _, n := range []int{0, 1, 10, 1000, 5000} {
		items := genItems(n, 3)
		s, err := BuildSeq(st, testCfg(), items)
		if err != nil {
			t.Fatal(err)
		}
		if s.Len() != uint64(n) {
			t.Fatalf("n=%d: Len=%d", n, s.Len())
		}
		for _, i := range []int{0, n / 3, n / 2, n - 1} {
			if i < 0 || i >= n {
				continue
			}
			got, err := s.Get(uint64(i))
			if err != nil || !bytes.Equal(got, items[i]) {
				t.Fatalf("n=%d Get(%d) = %q, %v", n, i, got, err)
			}
		}
		if _, err := s.Get(uint64(n)); !errors.Is(err, index.ErrOutOfRange) {
			t.Fatalf("n=%d out-of-range err = %v", n, err)
		}
	}
}

func TestSeqStructuralInvariance(t *testing.T) {
	st := store.NewMemStore()
	items := genItems(3000, 5)
	a, err := BuildSeq(st, testCfg(), items)
	if err != nil {
		t.Fatal(err)
	}
	// Build via two different splice paths.
	b, err := BuildSeq(st, testCfg(), items[:1000])
	if err != nil {
		t.Fatal(err)
	}
	b, err = b.Splice(1000, 0, items[1000:])
	if err != nil {
		t.Fatal(err)
	}
	if a.Root() != b.Root() {
		t.Fatalf("append path root %s != bulk %s", b.Root().Short(), a.Root().Short())
	}
	// Insert in the middle.
	c, err := BuildSeq(st, testCfg(), append(append([][]byte{}, items[:500]...), items[1500:]...))
	if err != nil {
		t.Fatal(err)
	}
	c, err = c.Splice(500, 0, items[500:1500])
	if err != nil {
		t.Fatal(err)
	}
	if a.Root() != c.Root() {
		t.Fatalf("mid-insert path root %s != bulk %s", c.Root().Short(), a.Root().Short())
	}
}

func TestSeqSpliceOracle(t *testing.T) {
	st := store.NewMemStore()
	rng := rand.New(rand.NewSource(11))
	model := genItems(800, 9)
	s, err := BuildSeq(st, testCfg(), model)
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 25; round++ {
		at := uint64(rng.Intn(len(model) + 1))
		del := uint64(rng.Intn(20))
		if at+del > uint64(len(model)) {
			del = uint64(len(model)) - at
		}
		ins := genItems(rng.Intn(15), int64(round+1000))
		s, err = s.Splice(at, del, ins)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		// Update the model.
		next := make([][]byte, 0, len(model)-int(del)+len(ins))
		next = append(next, model[:at]...)
		next = append(next, ins...)
		next = append(next, model[at+del:]...)
		model = next
		if s.Len() != uint64(len(model)) {
			t.Fatalf("round %d: len %d != model %d", round, s.Len(), len(model))
		}
		// Structural invariance: the spliced tree must equal a fresh build.
		fresh, err := BuildSeq(st, testCfg(), model)
		if err != nil {
			t.Fatal(err)
		}
		if s.Root() != fresh.Root() {
			t.Fatalf("round %d: spliced root %s != fresh root %s", round, s.Root().Short(), fresh.Root().Short())
		}
	}
	got, err := s.Items()
	if err != nil {
		t.Fatal(err)
	}
	for i := range model {
		if !bytes.Equal(got[i], model[i]) {
			t.Fatalf("item %d = %q want %q", i, got[i], model[i])
		}
	}
}

func TestSeqDeleteAll(t *testing.T) {
	st := store.NewMemStore()
	s, err := BuildSeq(st, testCfg(), genItems(100, 1))
	if err != nil {
		t.Fatal(err)
	}
	s, err = s.Splice(0, 100, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !s.Root().IsZero() || s.Len() != 0 {
		t.Fatalf("delete-all: root=%s len=%d", s.Root().Short(), s.Len())
	}
}

func TestSeqLoadRoundTrip(t *testing.T) {
	st := store.NewMemStore()
	items := genItems(500, 5)
	s, err := BuildSeq(st, testCfg(), items)
	if err != nil {
		t.Fatal(err)
	}
	l, err := LoadSeq(st, testCfg(), s.Root())
	if err != nil {
		t.Fatal(err)
	}
	if l.Len() != s.Len() {
		t.Fatalf("loaded len %d", l.Len())
	}
	v, err := l.Get(321)
	if err != nil || !bytes.Equal(v, items[321]) {
		t.Fatalf("loaded get: %q %v", v, err)
	}
}

func TestBlobBuildAndRead(t *testing.T) {
	st := store.NewMemStore()
	rng := rand.New(rand.NewSource(77))
	data := make([]byte, 300*1024)
	rng.Read(data)
	b, err := BuildBlob(st, testCfg(), data)
	if err != nil {
		t.Fatal(err)
	}
	if b.Size() != uint64(len(data)) {
		t.Fatalf("size %d", b.Size())
	}
	got, err := b.Bytes()
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("Bytes mismatch (err=%v)", err)
	}
	p := make([]byte, 1000)
	n, err := b.ReadAt(p, 123456)
	if err != nil || n != 1000 || !bytes.Equal(p, data[123456:124456]) {
		t.Fatalf("ReadAt: n=%d err=%v", n, err)
	}
}

func TestBlobEmptyAndSmall(t *testing.T) {
	st := store.NewMemStore()
	b, err := BuildBlob(st, testCfg(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !b.Root().IsZero() || b.Size() != 0 {
		t.Fatalf("empty blob root=%s size=%d", b.Root().Short(), b.Size())
	}
	b, err = BuildBlob(st, testCfg(), []byte("hi"))
	if err != nil {
		t.Fatal(err)
	}
	got, err := b.Bytes()
	if err != nil || string(got) != "hi" {
		t.Fatalf("small blob: %q %v", got, err)
	}
}

// TestBlobDedupSingleWordEdit is the unit-level version of the paper's Fig 4
// scenario: two nearly identical ~340 KB payloads must share almost all
// chunks.
func TestBlobDedupSingleWordEdit(t *testing.T) {
	st := store.NewMemStore()
	rng := rand.New(rand.NewSource(2020))
	data := make([]byte, 340*1024)
	for i := range data {
		data[i] = byte('a' + rng.Intn(26))
	}
	cfg := chunker.DefaultConfig()
	if _, err := BuildBlob(st, cfg, data); err != nil {
		t.Fatal(err)
	}
	before := st.Stats()

	edited := append([]byte(nil), data...)
	copy(edited[170*1024:], "REPLACED")
	if _, err := BuildBlob(st, cfg, edited); err != nil {
		t.Fatal(err)
	}
	after := st.Stats()
	added := after.PhysicalBytes - before.PhysicalBytes
	if added > int64(len(data))/20 {
		t.Fatalf("second load added %d bytes (> 5%% of %d) — dedup broken", added, len(data))
	}
	t.Logf("first load: %d bytes physical; second load added only %d bytes", before.PhysicalBytes, added)
}

func TestBlobSpliceOracle(t *testing.T) {
	st := store.NewMemStore()
	rng := rand.New(rand.NewSource(31))
	model := make([]byte, 64*1024)
	rng.Read(model)
	b, err := BuildBlob(st, testCfg(), model)
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 15; round++ {
		at := uint64(rng.Intn(len(model) + 1))
		del := uint64(rng.Intn(500))
		if at+del > uint64(len(model)) {
			del = uint64(len(model)) - at
		}
		ins := make([]byte, rng.Intn(400))
		rng.Read(ins)
		b, err = b.Splice(at, del, ins)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		next := make([]byte, 0, len(model)-int(del)+len(ins))
		next = append(next, model[:at]...)
		next = append(next, ins...)
		next = append(next, model[at+del:]...)
		model = next
		if b.Size() != uint64(len(model)) {
			t.Fatalf("round %d: size %d != %d", round, b.Size(), len(model))
		}
		fresh, err := BuildBlob(st, testCfg(), model)
		if err != nil {
			t.Fatal(err)
		}
		if b.Root() != fresh.Root() {
			t.Fatalf("round %d: spliced blob root != fresh build", round)
		}
	}
	got, err := b.Bytes()
	if err != nil || !bytes.Equal(got, model) {
		t.Fatalf("final content mismatch (err=%v)", err)
	}
}

// TestBlobLeavesMatchByteChunker: BuildBlob cuts its leaves exactly where
// chunker.ByteChunker, the byte-at-a-time reference, cuts the same bytes,
// under the default and small pages and a config whose MinSize is below the
// window, over random bytes around a run without patterns that only MaxSize
// cuts.
func TestBlobLeavesMatchByteChunker(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  chunker.Config
	}{
		{"default", chunker.DefaultConfig()},
		{"small", chunker.SmallConfig()},
		{"MinSize below the window", testCfg()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg
			rng := rand.New(rand.NewSource(int64(cfg.MaxSize)))
			head, tail := make([]byte, 8*cfg.MaxSize), make([]byte, cfg.MaxSize+77)
			rng.Read(head)
			rng.Read(tail)
			data := append(append(head, patternFree(t, cfg, 3*cfg.MaxSize+123)...), tail...)

			var want []int
			prev := 0
			for _, cut := range chunker.NewByteChunker(cfg).Write(data) {
				want, prev = append(want, cut-prev), cut
			}
			if prev < len(data) {
				want = append(want, len(data)-prev)
			}
			full := 0
			for _, size := range want {
				if size == cfg.MaxSize {
					full++
				}
			}
			if full < 2 {
				t.Fatalf("%d leaves of MaxSize among %d: the run does not reach the size cut", full, len(want))
			}

			b, err := BuildBlob(store.NewMemStore(), cfg, data)
			if err != nil {
				t.Fatal(err)
			}
			got, err := blobLeafSizes(b)
			if err != nil {
				t.Fatal(err)
			}
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("BuildBlob leaves of\n%v\nByteChunker cuts\n%v", got, want)
			}
		})
	}
}

// patternFree returns n bytes repeating a 7-byte period in whose windows no
// pattern fires under cfg, so that only MaxSize cuts them.  A run of one
// byte value will not do: when q divides the window, its hash is zero, which
// is a pattern.
func patternFree(t *testing.T, cfg chunker.Config, n int) []byte {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	period := make([]byte, 7)
	for try := 0; try < 100; try++ {
		rng.Read(period)
		run := bytes.Repeat(period, n/len(period)+1)[:n]
		cuts := chunker.NewByteChunker(cfg).Write(run)
		sizeOnly := len(cuts) == n/cfg.MaxSize
		for k, cut := range cuts {
			sizeOnly = sizeOnly && cut == (k+1)*cfg.MaxSize
		}
		if sizeOnly {
			return run
		}
	}
	t.Fatal("no pattern-free period found")
	return nil
}

// blobLeafSizes returns the sizes of b's leaves in order.
func blobLeafSizes(b *Blob) ([]int, error) {
	var sizes []int
	var walk func(id hash.Hash) error
	walk = func(id hash.Hash) error {
		n, err := b.src.Load(id)
		if err != nil {
			return err
		}
		if n.typ == chunk.TypeBlobLeaf {
			sizes = append(sizes, len(n.data))
			return nil
		}
		for i := 0; i < n.len(); i++ {
			if err := walk(n.ref(i).id); err != nil {
				return err
			}
		}
		return nil
	}
	return sizes, walk(b.root)
}
