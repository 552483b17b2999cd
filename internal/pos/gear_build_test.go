package pos

import (
	"bytes"
	"fmt"
	"testing"

	"forkbase/internal/chunker"
	"forkbase/internal/store"
)

func gearCfg() chunker.Config {
	return chunker.Config{Q: 8, Window: 48, MinSize: 1 << 5, MaxSize: 1 << 12, Algo: chunker.AlgoGear}
}

// TestGearBuildAndEdit pins the gear-mode builder: structural invariance
// (edit == rebuild, byte-identical roots) must hold exactly as with the
// rolling hash, and the two algorithms must produce *different* chunkings
// (otherwise the mode switch is inert).
func TestGearBuildAndEdit(t *testing.T) {
	st := store.NewMemStore()
	cfg := gearCfg()
	entries := make([]Entry, 0, 5000)
	for i := 0; i < 5000; i++ {
		entries = append(entries, Entry{
			Key: []byte(fmt.Sprintf("key-%06d", i)),
			Val: []byte(fmt.Sprintf("value-%d", i*7)),
		})
	}
	tree, err := BuildMap(st, cfg, entries)
	if err != nil {
		t.Fatalf("BuildMap(gear): %v", err)
	}
	if tree.Len() != 5000 {
		t.Fatalf("Len = %d", tree.Len())
	}
	for i := 0; i < len(entries); i += 500 {
		e := entries[i]
		got, err := tree.Get(e.Key)
		if err != nil || !bytes.Equal(got, e.Val) {
			t.Fatalf("Get(%q) = %q, %v", e.Key, got, err)
		}
	}

	// Incremental edit must land on the same root as a from-scratch build
	// of the edited record set (SIRI invariance under gear chunking).
	ops := []Op{
		Put([]byte("key-002500"), []byte("EDITED")),
		Del([]byte("key-004000")),
		Put([]byte("key-zzz"), []byte("new")),
	}
	edited, err := tree.Edit(ops)
	if err != nil {
		t.Fatalf("Edit: %v", err)
	}
	rebuilt, err := tree.EditRebuild(ops)
	if err != nil {
		t.Fatalf("EditRebuild: %v", err)
	}
	if edited.Root() != rebuilt.Root() {
		t.Fatalf("gear edit root %s != rebuild root %s", edited.Root().Short(), rebuilt.Root().Short())
	}

	// The legacy per-chunk builder (byte-wise EntryChunker) must agree with
	// the bulk-scanning sink builder under gear, exactly as it does under
	// the rolling hash.
	legacy, err := buildMapPerChunk(store.NewMemStore(), cfg, entries)
	if err != nil {
		t.Fatalf("buildMapPerChunk(gear): %v", err)
	}
	if legacy.Root() != tree.Root() {
		t.Fatalf("gear legacy root %s != sink root %s", legacy.Root().Short(), tree.Root().Short())
	}

	// The mode switch must actually change the chunking.
	rollingCfg := cfg
	rollingCfg.Algo = chunker.AlgoRolling
	rollingTree, err := BuildMap(store.NewMemStore(), rollingCfg, entries)
	if err != nil {
		t.Fatalf("BuildMap(rolling): %v", err)
	}
	if rollingTree.Root() == tree.Root() {
		t.Fatal("gear and rolling builds produced identical roots — the algorithm switch is inert")
	}
}
