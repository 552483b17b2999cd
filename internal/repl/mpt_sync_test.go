package repl

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"forkbase/internal/core"
	"forkbase/internal/index"
	"forkbase/internal/value"
)

// TestFollowerSyncsMPTPrimary pins the acceptance criterion that the
// replication Merkle prune walks MPT value graphs through fnode.Refs's MPT
// arm: a replica of an MPT-rooted primary converges
// byte-identically, and an incremental update transfers only the delta
// subgraph (the prune actually prunes).
func TestFollowerSyncsMPTPrimary(t *testing.T) {
	primary := core.Open(core.Options{Index: index.KindMPT})
	entries := make([]index.Entry, 3000)
	for i := range entries {
		entries[i] = index.Entry{
			Key: []byte(fmt.Sprintf("key-%06d", i)),
			Val: []byte(fmt.Sprintf("val-%d-gen0", i)),
		}
	}
	if _, err := primary.BuildAndPut("obj", "master", nil, func() (value.Value, error) {
		return primary.NewMapValue(entries)
	}); err != nil {
		t.Fatal(err)
	}

	f, replica := startFollower(t, primary, Options{Poll: 10 * time.Millisecond})
	if err := f.WaitCaughtUp(30 * time.Second); err != nil {
		t.Fatalf("cold catch-up: %v", err)
	}
	cold := f.Stats()
	if cold.ChunksFetched == 0 {
		t.Fatal("nothing fetched")
	}

	// Incremental update: the prune must skip the shared subgraph.
	if _, err := primary.EditMap("obj", "master",
		[]index.Entry{{Key: []byte("key-001500"), Val: []byte("val-1500-gen1")}}, nil, nil); err != nil {
		t.Fatal(err)
	}
	if err := f.WaitCaughtUp(30 * time.Second); err != nil {
		t.Fatalf("delta catch-up: %v", err)
	}
	delta := f.Stats()
	fetched := delta.ChunksFetched - cold.ChunksFetched
	if fetched == 0 {
		t.Fatal("delta sync fetched nothing")
	}
	if fetched > cold.ChunksFetched/4 {
		t.Fatalf("delta sync fetched %d chunks vs %d cold — the MPT prune is not pruning", fetched, cold.ChunksFetched)
	}

	// Convergence: same head uid, and the replica's MPT decodes end to end
	// with the edit applied.
	pHead, err := primary.Head("obj", "master")
	if err != nil {
		t.Fatal(err)
	}
	rHead, err := replica.Head("obj", "master")
	if err != nil {
		t.Fatal(err)
	}
	if pHead != rHead {
		t.Fatalf("replica head %s != primary head %s", rHead.Short(), pHead.Short())
	}
	ver, err := replica.Get("obj", "master")
	if err != nil {
		t.Fatal(err)
	}
	if ver.Value.IndexKind() != index.KindMPT {
		t.Fatalf("replicated version records index %s", ver.Value.IndexKind())
	}
	ix, err := replica.IndexOf(ver)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ix.Get([]byte("key-001500"))
	if err != nil || !bytes.Equal(got, []byte("val-1500-gen1")) {
		t.Fatalf("replica Get = %q, %v", got, err)
	}
	if ix.Len() != 3000 {
		t.Fatalf("replica Len = %d", ix.Len())
	}
	if _, err := replica.VerifyVersion("obj", ver.UID, true); err != nil {
		t.Fatalf("replica verify: %v", err)
	}
}
