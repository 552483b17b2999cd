package baseline

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
)

func genRows(n int, seed int64) map[string][]byte {
	rng := rand.New(rand.NewSource(seed))
	out := make(map[string][]byte, n)
	for i := 0; i < n; i++ {
		out[fmt.Sprintf("key-%06d", i)] = []byte(fmt.Sprintf("value-%d-%d", i, rng.Intn(1000)))
	}
	return out
}

func mutate(rows map[string][]byte, nMods int, seed int64) map[string][]byte {
	rng := rand.New(rand.NewSource(seed))
	out := make(map[string][]byte, len(rows))
	for k, v := range rows {
		out[k] = v
	}
	keys := make([]string, 0, len(rows))
	for k := range rows {
		keys = append(keys, k)
	}
	for i := 0; i < nMods; i++ {
		k := keys[rng.Intn(len(keys))]
		out[k] = []byte(fmt.Sprintf("mutated-%d-%d", seed, i))
	}
	return out
}

func testVersionedStore(t *testing.T, s VersionedStore) {
	t.Helper()
	v0 := genRows(500, 1)
	i0 := s.Commit(v0)
	v1 := mutate(v0, 5, 2)
	i1 := s.Commit(v1)
	v2 := mutate(v1, 5, 3)
	i2 := s.Commit(v2)

	for i, want := range []map[string][]byte{v0, v1, v2} {
		got, err := s.Read([]int{i0, i1, i2}[i])
		if err != nil {
			t.Fatalf("%s read v%d: %v", s.Name(), i, err)
		}
		if len(got) != len(want) {
			t.Fatalf("%s v%d size %d != %d", s.Name(), i, len(got), len(want))
		}
		for k, v := range want {
			if !bytes.Equal(got[k], v) {
				t.Fatalf("%s v%d key %q = %q want %q", s.Name(), i, k, got[k], v)
			}
		}
	}
	if _, err := s.Read(99); err == nil {
		t.Fatalf("%s read of unknown version succeeded", s.Name())
	}
	if s.StorageBytes() <= 0 {
		t.Fatalf("%s reports no storage", s.Name())
	}
}

func TestFullCopy(t *testing.T)   { testVersionedStore(t, NewFullCopy()) }
func TestGitFile(t *testing.T)    { testVersionedStore(t, NewGitFile()) }
func TestDeltaChain(t *testing.T) { testVersionedStore(t, NewDeltaChain()) }

func TestStorageOrdering(t *testing.T) {
	// For a many-versions-small-changes workload:
	// full-copy ≈ git-file  >>  delta-chain.
	full, git, delta := NewFullCopy(), NewGitFile(), NewDeltaChain()
	rows := genRows(1000, 7)
	for v := 0; v < 10; v++ {
		full.Commit(rows)
		git.Commit(rows)
		delta.Commit(rows)
		rows = mutate(rows, 3, int64(v+10))
	}
	// Every version differs, so git-file cannot share anything and stays in
	// the same ballpark as full-copy (modulo serialization overhead).
	ratio := float64(git.StorageBytes()) / float64(full.StorageBytes())
	if ratio < 0.8 || ratio > 1.5 {
		t.Fatalf("git-file/full-copy ratio %.2f out of range", ratio)
	}
	if git.StorageBytes() < delta.StorageBytes()*2 {
		t.Fatalf("git-file %d not substantially larger than delta-chain %d",
			git.StorageBytes(), delta.StorageBytes())
	}
}

func TestGitFileDedupsIdenticalVersions(t *testing.T) {
	g := NewGitFile()
	rows := genRows(100, 1)
	g.Commit(rows)
	before := g.StorageBytes()
	g.Commit(rows) // identical content
	if g.StorageBytes() != before {
		t.Fatal("identical version stored twice")
	}
}

func TestDeltaChainDeletes(t *testing.T) {
	d := NewDeltaChain()
	v0 := map[string][]byte{"a": []byte("1"), "b": []byte("2")}
	d.Commit(v0)
	v1 := map[string][]byte{"a": []byte("1")}
	d.Commit(v1)
	got, err := d.Read(1)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := got["b"]; ok {
		t.Fatal("delete not replayed")
	}
	got, err = d.Read(0)
	if err != nil || len(got) != 2 {
		t.Fatalf("v0 damaged: %v %v", got, err)
	}
	if len(d.deltas) != 2 {
		t.Fatalf("chain length %d", len(d.deltas))
	}
}

func TestBPlusTreeBasics(t *testing.T) {
	bt := NewBPlusTree(8)
	n := 2000
	for i := 0; i < n; i++ {
		bt.Insert([]byte(fmt.Sprintf("k-%06d", i)), []byte(fmt.Sprintf("v-%d", i)))
	}
	if bt.Len() != n {
		t.Fatalf("len = %d", bt.Len())
	}
	for _, i := range []int{0, 1, 999, 1999} {
		v, ok := bt.Get([]byte(fmt.Sprintf("k-%06d", i)))
		if !ok || string(v) != fmt.Sprintf("v-%d", i) {
			t.Fatalf("get %d = %q %v", i, v, ok)
		}
	}
	if _, ok := bt.Get([]byte("missing")); ok {
		t.Fatal("found missing key")
	}
	// Overwrite.
	bt.Insert([]byte("k-000001"), []byte("updated"))
	if v, _ := bt.Get([]byte("k-000001")); string(v) != "updated" {
		t.Fatalf("overwrite = %q", v)
	}
	if bt.Len() != n {
		t.Fatalf("overwrite changed len to %d", bt.Len())
	}
}

// TestBPlusTreeOrderDependence demonstrates the paper's motivation: the
// same record set inserted in different orders yields mostly different
// pages — classic B+-trees are NOT structurally invariant.
func TestBPlusTreeOrderDependence(t *testing.T) {
	n := 5000
	keys := make([][]byte, n)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("k-%06d", i))
	}
	sorted := NewBPlusTree(32)
	for _, k := range keys {
		sorted.Insert(k, k)
	}
	shuffled := NewBPlusTree(32)
	rng := rand.New(rand.NewSource(9))
	for _, i := range rng.Perm(n) {
		shuffled.Insert(keys[i], keys[i])
	}
	shared, ta, tb := SharedPages(sorted, shuffled)
	if float64(shared)/float64(min(ta, tb)) > 0.5 {
		t.Fatalf("B+-tree unexpectedly shares %d/%d pages across insertion orders", shared, min(ta, tb))
	}
	t.Logf("B+-tree page sharing across insertion orders: %d shared of %d/%d", shared, ta, tb)
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
