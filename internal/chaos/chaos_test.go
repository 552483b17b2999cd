package chaos_test

import (
	"errors"
	"testing"
	"time"

	"forkbase/internal/chaos"
	"forkbase/internal/chunk"
	"forkbase/internal/core"
	"forkbase/internal/hash"
	"forkbase/internal/retry"
	"forkbase/internal/server"
	"forkbase/internal/store"
)

// startProxied brings up a server behind a chaos proxy and returns a client
// with tight timeouts (so fault tests fail fast instead of waiting out
// production deadlines).
func startProxied(t *testing.T) (*chaos.Proxy, *server.Client) {
	t.Helper()
	srv := server.New(store.NewMemStore(), core.NewMemBranchTable(), nil)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	p, err := chaos.NewProxy(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Close() })
	cl, err := server.DialWithOptions(p.Addr(), server.ClientOptions{
		DialTimeout: time.Second,
		OpTimeout:   200 * time.Millisecond,
		Retry:       retry.Policy{Attempts: 4, Base: 5 * time.Millisecond, Max: 20 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	return p, cl
}

func TestProxyForwardsTransparently(t *testing.T) {
	_, cl := startProxied(t)
	rs := server.NewRemoteStore(cl)
	c := chunk.New(chunk.TypeBlobLeaf, []byte("through the proxy"))
	if fresh, err := rs.Put(c); err != nil || !fresh {
		t.Fatalf("put: %v %v", fresh, err)
	}
	got, err := rs.Get(c.ID())
	if err != nil || string(got.Data()) != "through the proxy" {
		t.Fatalf("get: %v %v", got, err)
	}
}

func TestProxyLatencyAndBandwidthSlowButDeliver(t *testing.T) {
	p, cl := startProxied(t)
	rs := server.NewRemoteStore(cl)
	p.SetLatency(10 * time.Millisecond)
	p.SetBandwidth(256 << 10)
	c := chunk.New(chunk.TypeBlobLeaf, []byte("slow lane"))
	start := time.Now()
	if _, err := rs.Put(c); err != nil {
		t.Fatalf("put under latency: %v", err)
	}
	if time.Since(start) < 15*time.Millisecond {
		t.Fatal("latency injection had no effect")
	}
	p.Heal()
}

func TestProxyOneWayPartitionTimesOutThenHeals(t *testing.T) {
	p, cl := startProxied(t)
	rs := server.NewRemoteStore(cl)
	c := chunk.New(chunk.TypeBlobLeaf, []byte("partitioned"))
	if _, err := rs.Put(c); err != nil {
		t.Fatal(err)
	}
	// Requests flow, responses stall: the op must fail within its retry
	// budget, not hang.
	p.Partition(chaos.ToClient, true)
	start := time.Now()
	_, err := rs.Get(c.ID())
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("read through a one-way partition succeeded")
	}
	if bound := cl.MaxBlock(0); elapsed > bound {
		t.Fatalf("op blocked %v, deadline budget is %v", elapsed, bound)
	}
	p.Heal()
	if got, err := rs.Get(c.ID()); err != nil || string(got.Data()) != "partitioned" {
		t.Fatalf("get after heal: %v %v", got, err)
	}
}

func TestProxyMidFrameCutIsRetriedForReads(t *testing.T) {
	p, cl := startProxied(t)
	rs := server.NewRemoteStore(cl)
	c := chunk.New(chunk.TypeBlobLeaf, []byte("torn frame"))
	if _, err := rs.Put(c); err != nil {
		t.Fatal(err)
	}
	// Tear the next response mid-frame; the read is idempotent, so the
	// client redials and retries to success.
	p.CutNext(chaos.ToClient, 3)
	if got, err := rs.Get(c.ID()); err != nil || string(got.Data()) != "torn frame" {
		t.Fatalf("get through cut: %v %v", got, err)
	}
	if _, _, cuts := p.Stats(); cuts != 1 {
		t.Fatalf("cuts = %d, want 1", cuts)
	}
}

func TestProxyDropAllForcesTransparentRedial(t *testing.T) {
	p, cl := startProxied(t)
	rs := server.NewRemoteStore(cl)
	c := chunk.New(chunk.TypeBlobLeaf, []byte("resilient"))
	if _, err := rs.Put(c); err != nil {
		t.Fatal(err)
	}
	p.DropAll()
	if got, err := rs.Get(c.ID()); err != nil || string(got.Data()) != "resilient" {
		t.Fatalf("get after reset: %v %v", got, err)
	}
}

// TestCASLostReplyRecoversViaProbe pins the ambiguous-outcome protocol: a
// CAS whose reply is torn off the wire DID execute server-side; the client
// must not blindly re-send it (double execution) and must resolve the
// ambiguity by probing the head.
func TestCASLostReplyRecoversViaProbe(t *testing.T) {
	p, cl := startProxied(t)
	bt := server.NewRemoteBranchTable(cl)
	uid := hash.Of([]byte("v1"))
	p.CutNext(chaos.ToClient, 2)
	ok, err := bt.CompareAndSet("k", "master", hash.Hash{}, uid)
	if err != nil || !ok {
		t.Fatalf("CAS with lost reply: ok=%v err=%v", ok, err)
	}
	got, found, err := bt.Head("k", "master")
	if err != nil || !found || got != uid {
		t.Fatalf("head after ambiguous CAS: %v %v %v", got.Short(), found, err)
	}
}

// TestApplyLostReplyRecoversViaProbe: the same for a multi-op Apply — a
// rename whose reply is torn off — the probe checks every head it moved.
func TestApplyLostReplyRecoversViaProbe(t *testing.T) {
	p, cl := startProxied(t)
	bt := server.NewRemoteBranchTable(cl)
	uid := hash.Of([]byte("v1"))
	if ok, err := bt.CompareAndSet("k", "master", hash.Hash{}, uid); err != nil || !ok {
		t.Fatalf("create: ok=%v err=%v", ok, err)
	}
	p.CutNext(chaos.ToClient, 2)
	rename := []core.HeadOp{{Key: "k", Branch: "master", Expect: uid}, {Key: "k", Branch: "main", Set: uid}}
	if ok, err := bt.Apply(rename); err != nil || !ok {
		t.Fatalf("rename with lost reply: ok=%v err=%v", ok, err)
	}
	if branches, err := bt.Branches("k"); err != nil || len(branches) != 1 || branches["main"] != uid {
		t.Fatalf("branches after ambiguous rename: %v %v", branches, err)
	}
}

// TestPutAmbiguousIsNotResent pins the idempotency gate for mutations with
// no probe: a torn Commit reply to a single Put surfaces ErrAmbiguous
// instead of being silently re-sent.
func TestPutAmbiguousIsNotResent(t *testing.T) {
	p, cl := startProxied(t)
	rs := server.NewRemoteStore(cl)
	p.CutNext(chaos.ToClient, 2)
	_, err := rs.Put(chunk.New(chunk.TypeBlobLeaf, []byte("maybe landed")))
	if !errors.Is(err, server.ErrAmbiguous) {
		t.Fatalf("torn put reply: want ErrAmbiguous, got %v", err)
	}
}

func TestFlakyStoreSchedule(t *testing.T) {
	fs := chaos.NewFlakyStore(store.NewMemStore())
	fs.FailEvery(2)
	c := chunk.New(chunk.TypeBlobLeaf, []byte("flaky"))
	if _, err := fs.Put(c); err != nil { // op 1: passes
		t.Fatalf("op 1: %v", err)
	}
	if _, err := fs.Get(c.ID()); !errors.Is(err, store.ErrUnavailable) { // op 2: fails
		t.Fatalf("op 2: want ErrUnavailable, got %v", err)
	}
	if got, err := fs.Get(c.ID()); err != nil || string(got.Data()) != "flaky" { // op 3
		t.Fatalf("op 3: %v %v", got, err)
	}
	fs.FailEvery(0)
	fs.SetDown(true)
	if _, err := fs.Has(c.ID()); !errors.Is(err, store.ErrUnavailable) {
		t.Fatalf("down store served: %v", err)
	}
	fs.SetDown(false)
	if ok, err := fs.Has(c.ID()); err != nil || !ok {
		t.Fatalf("after outage: %v %v", ok, err)
	}
	if fs.Failures() != 2 {
		t.Fatalf("failures = %d, want 2", fs.Failures())
	}
}

// TestCrashAtRotateRecovers simulates a process crash at the
// rotate.before-seal point and verifies the store reopens with every
// acknowledged chunk intact.
func TestCrashAtRotateRecovers(t *testing.T) {
	dir := t.TempDir()
	fs, err := store.OpenFileStoreWith(dir, store.FileStoreOptions{SegmentSize: 2048})
	if err != nil {
		t.Fatal(err)
	}
	fs.SetCrashHook(chaos.PanicAt(store.CrashRotateBeforeSeal, 1))
	var ids []hash.Hash
	crashed := false
	func() {
		defer func() {
			r := recover()
			if r == nil {
				return
			}
			if _, ok := r.(chaos.Crash); !ok {
				panic(r) // a real bug, not the simulated crash
			}
			crashed = true
		}()
		for i := 0; i < 200; i++ {
			c := chunk.New(chunk.TypeBlobLeaf, append([]byte{byte(i), byte(i >> 8)}, make([]byte, 64)...))
			if _, err := fs.Put(c); err != nil {
				t.Errorf("put %d: %v", i, err)
				return
			}
			ids = append(ids, c.ID()) // acknowledged: must survive the crash
		}
	}()
	if !crashed {
		t.Fatal("store never reached the rotate crash point")
	}
	fs.Close()
	re, err := store.OpenFileStoreWith(dir, store.FileStoreOptions{SegmentSize: 2048})
	if err != nil {
		t.Fatalf("reopen after crash: %v", err)
	}
	defer re.Close()
	for i, id := range ids {
		if _, err := re.Get(id); err != nil {
			t.Fatalf("acknowledged chunk %d lost in crash: %v", i, err)
		}
	}
}

func TestAgitatorIsSeedDeterministic(t *testing.T) {
	run := func() []string {
		srv := server.New(store.NewMemStore(), core.NewMemBranchTable(), nil)
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		p, err := chaos.NewProxy(addr)
		if err != nil {
			t.Fatal(err)
		}
		defer p.Close()
		a := chaos.NewAgitator(42, p)
		a.MaxOutage = 2 * time.Millisecond // keep the test fast
		var kinds []string
		for i := 0; i < 8; i++ {
			desc := a.Round()
			kinds = append(kinds, desc[:4]) // fault class prefix; addrs differ per run
		}
		return kinds
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("schedules diverge at round %d: %q vs %q", i, a[i], b[i])
		}
	}
}
