package chaos_test

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"forkbase/internal/chaos"
	"forkbase/internal/chunk"
	"forkbase/internal/core"
	"forkbase/internal/hash"
	"forkbase/internal/repl"
	"forkbase/internal/retry"
	"forkbase/internal/server"
	"forkbase/internal/store"
	"forkbase/internal/value"
)

// soakSeed makes the soak reproducible: rerunning with the same seed replays
// the same fault schedule.
const soakSeed = 20

// TestChaosSoak is the robustness soak: a seeded fault schedule — connection
// resets, latency spikes, one-way partitions and mid-frame cuts — runs over
// a primary and a following replica while a writer and a latency prober keep
// working through the faults, and crash points then hit the file store.
// After the storm heals the pass criteria are exact: zero lost acknowledged
// writes, byte-identical convergence on the replica, and no client op ever
// blocked past its deadline budget.
func TestChaosSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos soak skipped in -short mode")
	}
	const rounds, outage = 40, 60 * time.Millisecond
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	listen := func(srv *server.Server) string {
		t.Helper()
		addr, err := srv.Listen("127.0.0.1:0")
		must(err)
		t.Cleanup(func() { srv.Close() })
		return addr
	}
	var proxies []*chaos.Proxy
	proxy := func(addr string) *chaos.Proxy {
		t.Helper()
		p, err := chaos.NewProxy(addr)
		must(err)
		t.Cleanup(func() { p.Close() })
		proxies = append(proxies, p)
		return p
	}
	copts := server.ClientOptions{
		DialTimeout: time.Second,
		OpTimeout:   250 * time.Millisecond,
		Retry:       retry.Policy{Attempts: 4, Base: 10 * time.Millisecond, Max: 50 * time.Millisecond},
	}
	dial := func(p *chaos.Proxy) *server.Client {
		t.Helper()
		cl, err := server.DialWithOptions(p.Addr(), copts)
		must(err)
		t.Cleanup(func() { cl.Close() })
		return cl
	}

	// ---- Primary: engine + feed + TCP service, behind two chaos proxies
	// (the writer's and the follower's faults are independent).
	pst := store.NewMemStore()
	feed := core.NewFeed(64) // small ring: blind windows force snapshot fallback
	pheads := core.WithFeed(core.NewMemBranchTable(), feed)
	prim := core.Open(core.Options{Store: pst, Branches: pheads})
	defer prim.Close()
	srv := server.New(pst, pheads, nil)
	srv.AttachFeed(feed)
	addr := listen(srv)
	pWriter, pFollower := proxy(addr), proxy(addr)

	// The writer runs a full engine over the faulty wire: every Put is
	// remote chunk writes plus a remote CAS, exercising reconnect, resend
	// gating and the ambiguity probe.
	wcl := dial(pWriter)
	rdb := core.Open(core.Options{Store: server.NewRemoteStore(wcl), Branches: server.NewRemoteBranchTable(wcl)})
	defer rdb.Close()

	replica := core.Open(core.Options{})
	defer replica.Close()
	follower := repl.NewFollower(repl.NewRemoteSource(dial(pFollower)), replica.Store(), replica.BranchTable(), repl.Options{
		Poll:     50 * time.Millisecond,
		RetryMin: 10 * time.Millisecond,
		RetryMax: 100 * time.Millisecond,
	})
	follower.Start()
	defer follower.Close()

	// ---- Background workload: a writer and a latency prober run through
	// every fault window, not just between them.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	loop := func(body func(seq int)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for seq := 0; ; seq++ {
				select {
				case <-stop:
					return
				default:
				}
				body(seq)
				time.Sleep(5 * time.Millisecond)
			}
		}()
	}

	// Each map is written by one workload goroutine and read only after
	// wg.Wait().
	acked := map[string]string{} // key -> acknowledged payload
	var ambiguous, rejected int
	loop(func(seq int) {
		key := fmt.Sprintf("k%05d", seq)
		val := fmt.Sprintf("payload-%d-%d", soakSeed, seq)
		switch _, err := rdb.Put(key, "", value.String(val), nil); {
		case err == nil:
			acked[key] = val
		case errors.Is(err, server.ErrAmbiguous):
			ambiguous++
		default:
			rejected++
		}
	})

	// Prober: read-only ops against the primary through the faulty proxy.
	// Whatever the schedule does, each op must resolve — success or failure —
	// within the client's worst-case deadline budget.
	pcl := dial(pWriter)
	probeBT := server.NewRemoteBranchTable(pcl)
	var probeOps int
	var maxOp time.Duration
	loop(func(int) {
		t0 := time.Now()
		_, _, _ = probeBT.Head("k00000", "")
		if d := time.Since(t0); d > maxOp {
			maxOp = d
		}
		probeOps++
	})

	// ---- The storm: a seeded agitator walks the fault schedule over both
	// proxies while the workload runs.
	ag := chaos.NewAgitator(soakSeed, proxies...)
	ag.MaxOutage = outage
	faults := map[string]int{}
	for i := 0; i < rounds; i++ {
		faults[class(ag.Round())]++
		time.Sleep(10 * time.Millisecond)
	}

	// ---- Heal everything and let the workload drain.
	close(stop)
	wg.Wait()
	for _, p := range proxies {
		p.Heal()
	}
	t.Logf("faults %v; primary acked %d (ambiguous %d, rejected %d); %d probes",
		faults, len(acked), ambiguous, rejected, probeOps)

	// The soak must actually have exercised the system: real faults were
	// injected and real writes were acknowledged through them.
	if len(faults) == 0 {
		t.Error("no faults injected")
	}
	if len(acked) == 0 || probeOps == 0 {
		t.Fatalf("workload too thin: primary acked %d, probes %d", len(acked), probeOps)
	}

	// ---- Deadline budget.
	if budget := pcl.MaxBlock(0); maxOp > budget {
		t.Errorf("a client op blocked %v, past its %v deadline budget", maxOp, budget)
	}

	// ---- Zero lost acked writes on the primary: every acknowledged write is
	// readable server-side with the acknowledged payload.
	readBack := func(db *core.DB, key, want string) error {
		v, err := db.Get(key, "")
		if err != nil {
			return err
		}
		if got, err := v.Value.AsString(); err != nil || got != want {
			return fmt.Errorf("payload %q (err %v), want %q", got, err, want)
		}
		return nil
	}
	for key, want := range acked {
		if err := readBack(prim, key, want); err != nil {
			t.Errorf("primary lost acked write %s: %v", key, err)
		}
	}

	// ---- Follower convergence: byte-identical heads (uid equality is
	// content-addressed identity) and acknowledged payloads readable from
	// the replica's own store.
	if err := follower.WaitCaughtUp(2 * time.Minute); err != nil {
		t.Fatalf("follower never converged after heal: %v", err)
	}
	keys, err := prim.ListKeys()
	must(err)
	for _, key := range keys {
		ph, err := prim.Head(key, "")
		must(err)
		if rh, err := replica.Head(key, ""); err != nil || rh != ph {
			t.Fatalf("follower head of %s = %s (err %v), primary has %s", key, rh.Short(), err, ph.Short())
		}
	}
	for key, want := range acked {
		if err := readBack(replica, key, want); err != nil {
			t.Errorf("follower lacks acked write %s: %v", key, err)
		}
	}

	soakCrashPoints(t)
}

// soakCrashPoints simulates a process death at FileStore's rotate seam and
// again inside compaction, verifying acknowledged chunks survive each
// reopen.  Panics with a chaos.Crash value stand in for the process dying;
// recovery is a fresh OpenFileStore over the same directory.
func soakCrashPoints(t *testing.T) {
	dir := t.TempDir()
	crashes := func(fn func()) (crashed bool) {
		defer func() {
			if r := recover(); r != nil {
				if _, ok := r.(chaos.Crash); !ok {
					panic(r) // a real bug, not the simulated crash
				}
				crashed = true
			}
		}()
		fn()
		return false
	}
	open := func() *store.FileStore {
		t.Helper()
		fs, err := store.OpenFileStoreWith(dir, store.FileStoreOptions{SegmentSize: 4096})
		if err != nil {
			t.Fatalf("open %s: %v", dir, err)
		}
		return fs
	}

	// Crash 1: mid-rotate, before the old segment seals.
	fs := open()
	fs.SetCrashHook(chaos.PanicAt(store.CrashRotateBeforeSeal, 1))
	var acked []hash.Hash
	if !crashes(func() {
		for i := 0; i < 400; i++ {
			c := chunk.New(chunk.TypeBlobLeaf,
				[]byte(fmt.Sprintf("crash-payload-%04d-%s", i, strings.Repeat("y", 48))))
			if _, err := fs.Put(c); err != nil {
				t.Errorf("put before crash point: %v", err)
				return
			}
			acked = append(acked, c.ID())
		}
	}) {
		t.Fatal("store never reached the rotate crash point")
	}
	fs.Close()

	re := open()
	for _, id := range acked {
		if _, err := re.Get(id); err != nil {
			t.Errorf("rotate crash lost acked chunk %s: %v", id.Short(), err)
		}
	}

	// Crash 2: inside compaction, after the live rewrite but before the old
	// segment is unlinked — the window where a naive compactor loses data.
	keep := map[hash.Hash]bool{}
	for i, id := range acked {
		if i%2 == 0 {
			keep[id] = true
		}
	}
	re.SetCrashHook(chaos.PanicAt(store.CrashCompactBeforeUnlink, 1))
	if !crashes(func() {
		_, _ = re.Sweep(func(id hash.Hash) bool { return keep[id] })
	}) {
		t.Error("sweep never reached the compaction crash point")
	}
	re.Close()

	re2 := open()
	defer re2.Close()
	for id := range keep {
		if _, err := re2.Get(id); err != nil {
			t.Errorf("compaction crash lost live chunk %s: %v", id.Short(), err)
		}
	}
}
