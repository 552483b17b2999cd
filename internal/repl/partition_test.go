package repl

import (
	"fmt"
	"testing"
	"time"

	"forkbase/internal/chaos"
	"forkbase/internal/core"
	"forkbase/internal/retry"
	"forkbase/internal/server"
	"forkbase/internal/store"
	"forkbase/internal/value"
)

// TestFollowerOneWayPartitionSnapshotsAndConverges pins the nastiest feed
// failure: a one-way partition where the follower can send requests but
// never sees responses.  While it is blind, the primary commits past the
// feed ring's retention, so after the heal the follower's cursor is
// truncated and the only road back is a snapshot catch-up.  The follower
// must (a) never hang — every blind round fails within its deadline budget,
// (b) fall back to a snapshot, and (c) converge byte-identical.
func TestFollowerOneWayPartitionSnapshotsAndConverges(t *testing.T) {
	// Primary with a tiny feed ring, so a short blind window truncates.
	st := store.NewMemStore()
	feed := core.NewFeed(8)
	heads := core.WithFeed(core.NewMemBranchTable(), feed)
	primary := core.Open(core.Options{Store: st, Branches: heads})
	srv := server.New(st, heads, nil)
	srv.AttachFeed(feed)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	proxy, err := chaos.NewProxy(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()

	cl, err := server.DialWithOptions(proxy.Addr(), server.ClientOptions{
		DialTimeout: time.Second,
		OpTimeout:   150 * time.Millisecond,
		Retry:       retry.Policy{Attempts: 2, Base: 5 * time.Millisecond, Max: 20 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	eng, lst, lbt := mkReplica()
	f := NewFollower(NewRemoteSource(cl), lst, lbt, Options{
		Poll:     30 * time.Millisecond,
		RetryMin: 10 * time.Millisecond,
		RetryMax: 50 * time.Millisecond,
	})
	f.Start()
	defer f.Close()

	if _, err := primary.Put("obj", "", value.String("before the storm"), nil); err != nil {
		t.Fatal(err)
	}
	if err := f.WaitCaughtUp(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if lag, err := f.Lag(); err != nil || lag != 0 {
		t.Fatalf("caught-up follower: Lag = %d, %v; want 0, nil", lag, err)
	}

	// Blind the follower: requests flow, responses stall.
	proxy.Partition(chaos.ToClient, true)

	// Commit past the ring capacity while the follower is blind.
	for i := 0; i < 20; i++ {
		if _, err := primary.Put(fmt.Sprintf("k%d", i), "", value.String(fmt.Sprintf("v%d", i)), nil); err != nil {
			t.Fatal(err)
		}
	}
	// Let the follower burn a few blind rounds (each must time out, not
	// hang); its readiness probe must fail too, since it cannot reach the
	// primary.
	time.Sleep(400 * time.Millisecond)
	if _, err := f.Lag(); err == nil {
		t.Fatal("partitioned follower reaches its primary")
	}

	proxy.Heal()

	if err := f.WaitCaughtUp(15 * time.Second); err != nil {
		t.Fatalf("no convergence after heal: %v", err)
	}
	requireConverged(t, primary, eng)

	s := f.Stats()
	if s.Snapshots < 2 {
		t.Fatalf("snapshots = %d, want >= 2 (initial + post-truncation fallback)", s.Snapshots)
	}
	if s.Errors == 0 {
		t.Fatal("partition left no error trace in stats")
	}
	if lag, err := f.Lag(); err != nil || lag != 0 {
		t.Fatalf("lag after convergence: %d %v", lag, err)
	}
}
