package repl

import (
	"fmt"
	"testing"
	"time"

	"forkbase/internal/core"
	"forkbase/internal/obs"
	"forkbase/internal/pos"
	"forkbase/internal/server"
	"forkbase/internal/store"
	"forkbase/internal/value"
)

// startPrimaryServer runs a primary the way cmd/forkbased does: one store,
// one feed-wrapped branch table shared by the TCP server and the engine,
// the server metered in reg.
func startPrimaryServer(tb testing.TB, reg *obs.Registry) (*core.DB, string) {
	tb.Helper()
	st := store.NewMemStore()
	feed := core.NewFeed(0)
	heads := core.WithFeed(core.NewMemBranchTable(), feed)
	eng := core.Open(core.Options{Store: st, Branches: heads})
	srv := server.New(st, heads, nil)
	srv.AttachFeed(feed)
	srv.SetMetrics(reg)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { srv.Close() })
	return eng, addr
}

// TestColdPullCountsRequests: a cold follower over TCP lists the primary's
// heads a page of keys per request and pins nothing, by the server's
// per-opcode meter — no Keys or Branches request, no opcode the server does
// not know (where the retired pins would land), and at most ⌈heads/page⌉ + 1
// Heads requests: 2 here, where every head fits one page.
func TestColdPullCountsRequests(t *testing.T) {
	reg := obs.NewRegistry()
	primary, addr := startPrimaryServer(t, reg)
	mkObjects(t, primary, 200, 2, 20)
	roots, _, _ := heads(t, primary)
	cl, err := server.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	src := &countingSource{Source: NewRemoteSource(cl)}
	eng, st, bt := mkReplica()
	f := NewFollower(src, st, bt, Options{Poll: 20 * time.Millisecond})
	f.Start()
	defer f.Close()
	if err := f.WaitCaughtUp(60 * time.Second); err != nil {
		t.Fatal(err)
	}
	requireConverged(t, primary, eng)
	count := func(op string) float64 {
		n, _ := reg.Value("forkbase_server_requests_total", op)
		return n
	}
	if n := count("Heads"); n < 1 || n > 2 {
		t.Errorf("%d heads listed in %v Heads requests, want 1 or 2", len(roots), n)
	}
	for _, op := range []string{"Keys", "Branches", "unknown"} {
		if n := count(op); n != 0 {
			t.Errorf("%v %s requests, want 0", n, op)
		}
	}
	if src.pins.Load() != 0 || src.unpins.Load() != 0 || count("GetChunks") == 0 {
		t.Errorf("%d pins, %d unpins, %v GetChunks", src.pins.Load(), src.unpins.Load(), count("GetChunks"))
	}
}

func TestFollowerOverTCP(t *testing.T) {
	primary, addr := startPrimaryServer(t, obs.NewRegistry())
	if _, err := primary.BuildAndPut("obj", "master", nil, func() (value.Value, error) {
		return value.NewMap(primary.Store(), primary.Chunking(), mapEntries(3000, 0))
	}); err != nil {
		t.Fatal(err)
	}

	cl, err := server.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	eng, st, bt := mkReplica()
	f := NewFollower(NewRemoteSource(cl), st, bt, Options{Poll: 50 * time.Millisecond})
	f.Start()
	defer f.Close()
	if err := f.WaitCaughtUp(60 * time.Second); err != nil {
		t.Fatal(err)
	}
	requireConverged(t, primary, eng)

	// Incremental commits over the wire.
	for i := 0; i < 3; i++ {
		if _, err := primary.EditMap("obj", "master",
			[]pos.Entry{{Key: []byte(fmt.Sprintf("key-%06d", i)), Val: []byte("tcp-edit")}},
			nil, nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.WaitCaughtUp(60 * time.Second); err != nil {
		t.Fatal(err)
	}
	requireConverged(t, primary, eng)

	// The wire transfer must show Merkle pruning: far fewer bytes for the
	// three edits than the cold copy.
	st2 := f.Stats()
	if st2.ChunksSkipped == 0 {
		t.Fatalf("no pruning over TCP: %+v", st2)
	}
}

func TestFollowerSurvivesPrimaryRestart(t *testing.T) {
	// A replica must ride through its primary going away: backoff, then
	// resume when a new primary appears at the same address.  The restarted
	// primary has a fresh feed (seq reset), which the follower detects as
	// truncation and handles with a snapshot.
	st := store.NewMemStore()
	feed := core.NewFeed(0)
	heads := core.WithFeed(core.NewMemBranchTable(), feed)
	primary := core.Open(core.Options{Store: st, Branches: heads})
	srv := server.New(st, heads, nil)
	srv.AttachFeed(feed)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := primary.Put("a", "master", value.String("v1"), nil); err != nil {
		t.Fatal(err)
	}

	cl, err := server.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	eng, lst, lbt := mkReplica()
	f := NewFollower(NewRemoteSource(cl), lst, lbt, Options{
		Poll: 20 * time.Millisecond, RetryMin: 10 * time.Millisecond, RetryMax: 100 * time.Millisecond,
	})
	f.Start()
	defer f.Close()
	if err := f.WaitCaughtUp(30 * time.Second); err != nil {
		t.Fatal(err)
	}

	// Kill the primary's listener; the follower starts erroring and backs off.
	srv.Close()
	deadline := time.Now().Add(10 * time.Second)
	for f.Stats().Errors == 0 {
		if time.Now().After(deadline) {
			t.Fatal("follower never noticed the dead primary")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// "Restart" the primary at the same address: same store and branches,
	// fresh feed (as a process restart would have).
	feed2 := core.NewFeed(0)
	heads2 := core.WithFeed(heads.BranchTable, feed2)
	primary2 := core.Open(core.Options{Store: st, Branches: heads2})
	srv2 := server.New(st, heads2, nil)
	srv2.AttachFeed(feed2)
	if _, err := srv2.Listen(addr); err != nil {
		t.Fatalf("rebind %s: %v", addr, err)
	}
	defer srv2.Close()
	if _, err := primary2.Put("b", "master", value.String("v2"), nil); err != nil {
		t.Fatal(err)
	}

	if err := f.WaitCaughtUp(60 * time.Second); err != nil {
		t.Fatal(err)
	}
	requireConverged(t, primary2, eng)
	if f.Stats().Snapshots < 2 {
		t.Fatalf("restart should force a snapshot catch-up: %+v", f.Stats())
	}
}
