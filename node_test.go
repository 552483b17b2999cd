package forkbase_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"forkbase"
	"forkbase/internal/chunk"
	"forkbase/internal/core"
	"forkbase/internal/obs"
	"forkbase/internal/server"
	"forkbase/internal/store"
	"forkbase/internal/value"
)

// TestNodeBuiltFromDB drives the node forkbased runs: a file-backed primary
// serving NewServer, written to over TCP and through its engine, followed by
// a replica whose TCP service and REST API refuse writes.
func TestNodeBuiltFromDB(t *testing.T) {
	primary := forkbase.MustOpen(forkbase.FileBacked(t.TempDir()), forkbase.WithMetrics(obs.NewRegistry()))
	defer primary.Close()
	srv := primary.NewServer(nil)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	// A remote client's commit is the primary's.
	client, err := forkbase.Open(forkbase.Remote(addr))
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	remote, err := client.PutString("tcp", "", "over the wire", nil)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := primary.Get("tcp", ""); err != nil || got.UID != remote.UID {
		t.Fatalf("primary Get after a remote commit = %v, %v; want %s", got.UID, err, remote.UID)
	}
	local, err := primary.PutString("engine", "", "in process", nil)
	if err != nil {
		t.Fatal(err)
	}

	// Both heads reach a replica of the server: the server's Apply and the
	// engine's land in one feed.
	replica, err := forkbase.Open(forkbase.WithFollow(addr), forkbase.WithMetrics(obs.NewRegistry()))
	if err != nil {
		t.Fatal(err)
	}
	defer replica.Close()
	if err := replica.WaitSynced(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	for key, want := range map[string]forkbase.Hash{"tcp": remote.UID, "engine": local.UID} {
		if got, err := replica.Get(key, ""); err != nil || got.UID != want {
			t.Fatalf("replica Get(%s) = %v, %v; want %s", key, got.UID, err, want)
		}
	}

	// The replica's TCP service refuses chunk puts and head moves.
	rsrv := replica.NewServer(nil)
	raddr, err := rsrv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer rsrv.Close()
	cl, err := server.Dial(raddr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	c := chunk.New(chunk.TypeBlobLeaf, []byte("refused"))
	if _, err := server.NewRemoteStore(cl).PutBatch([]*chunk.Chunk{c}); err == nil || !strings.Contains(err.Error(), "read-only replica") {
		t.Fatalf("replica PutBatch = %v, want the read-only error", err)
	}
	op := core.HeadOp{Key: "tcp", Branch: core.DefaultBranch, Any: true, Set: c.ID()}
	if _, err := server.NewRemoteBranchTable(cl).Apply([]core.HeadOp{op}); err == nil || !strings.Contains(err.Error(), "read-only replica") {
		t.Fatalf("replica Apply = %v, want the read-only error", err)
	}

	// The replica's REST API refuses writes and reports that it follows.
	api := httptest.NewServer(replica.NewHandler())
	defer api.Close()
	req, err := http.NewRequest(http.MethodPut, api.URL+"/v1/obj/k", strings.NewReader(`{"kind":"string","value":"v"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusForbidden {
		t.Fatalf("replica PUT /v1/obj/k = %d, want 403", resp.StatusCode)
	}
	resp, err = http.Get(api.URL + "/v1/repl/status")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var status map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&status); err != nil {
		t.Fatal(err)
	}
	if status["following"] != true {
		t.Fatalf("replica /v1/repl/status = %v, want following: true", status)
	}
}

// TestPutAfterGCRefusesCollectedValue: a value built, or read from a branch,
// before a GC that swept its chunks is refused at Put with ErrCollected
// instead of being acked under a head that names missing chunks.  A rebuilt
// or reloaded value commits, its head deep-verifies, and the next GC passes.
// PutBlob, PutList and EditMap build under the fence and keep committing.
func TestPutAfterGCRefusesCollectedValue(t *testing.T) {
	var es []forkbase.Entry
	for i := 0; i < 500; i++ {
		es = append(es, forkbase.Entry{Key: []byte(fmt.Sprintf("k%05d", i)), Val: []byte(fmt.Sprintf("v%05d-some-padding-bytes", i))})
	}
	for name, opt := range map[string]forkbase.Option{"InMemory": forkbase.InMemory(), "FileBacked": forkbase.FileBacked(t.TempDir())} {
		t.Run(name, func(t *testing.T) {
			db := forkbase.MustOpen(opt, forkbase.WithMetrics(obs.NewRegistry()))
			defer db.Close()
			commitsAfterGC := func(what string, put func() (forkbase.Version, error)) {
				t.Helper()
				ver, err := put()
				if err != nil {
					t.Fatalf("%s: %v", what, err)
				}
				if rep, err := db.VerifyVersion(ver.Key, ver.UID, true); err != nil || !rep.OK {
					t.Fatalf("%s: deep verify = %+v, %v", what, rep, err)
				}
				if _, err := db.GC(); err != nil {
					t.Fatalf("%s: GC after the commit: %v", what, err)
				}
			}

			// Built before a GC that swept it.
			v, err := db.NewMapValue(es)
			if err != nil {
				t.Fatal(err)
			}
			gs, err := db.GC()
			if err != nil || gs.Swept == 0 {
				t.Fatalf("GC = %+v, %v; want the unpublished value's chunks swept", gs, err)
			}
			if _, err := db.Put("m", "master", v, nil); !errors.Is(err, forkbase.ErrCollected) {
				t.Fatalf("Put of a value built before the GC = %v, want ErrCollected", err)
			}
			commitsAfterGC("rebuilt value", func() (forkbase.Version, error) {
				v, err := db.NewMapValue(es)
				if err != nil {
					return forkbase.Version{}, err
				}
				return db.Put("m", "master", v, nil)
			})

			// Read from a branch that is then deleted and collected.
			if _, err := db.PutMap("m", "tmp", es[:400], nil); err != nil {
				t.Fatal(err)
			}
			tmp, err := db.Get("m", "tmp")
			if err != nil {
				t.Fatal(err)
			}
			if err := db.DeleteBranch("m", "tmp"); err != nil {
				t.Fatal(err)
			}
			if gs, err := db.GC(); err != nil || gs.Swept == 0 {
				t.Fatalf("GC = %+v, %v; want the deleted branch's chunks swept", gs, err)
			}
			if _, err := db.Put("m", "master", tmp.Value, nil); !errors.Is(err, forkbase.ErrCollected) {
				t.Fatalf("Put of a value read before the GC = %v, want ErrCollected", err)
			}

			// A head read after the GCs commits, warm or cold, and so do the
			// paths that build under the fence.
			commitsAfterGC("reloaded head", func() (forkbase.Version, error) {
				head, err := db.Get("m", "master")
				if err != nil {
					return forkbase.Version{}, err
				}
				return db.Put("m", "copy", head.Value, nil)
			})
			commitsAfterGC("PutBlob", func() (forkbase.Version, error) {
				return db.PutBlob("b", "", bytes.Repeat([]byte("blob "), 4000), nil)
			})
			commitsAfterGC("PutList", func() (forkbase.Version, error) {
				return db.PutList("l", "", [][]byte{[]byte("a"), []byte("b")}, nil)
			})
			commitsAfterGC("EditMap", func() (forkbase.Version, error) {
				return db.EditMap("m", "master", []forkbase.Entry{{Key: []byte("k00001"), Val: []byte("edited")}}, nil, nil)
			})
		})
	}
}

// servePrimary opens an in-memory primary serving NewServer, and returns it
// with a wire client of that server.
func servePrimary(t *testing.T) (*forkbase.DB, *server.Client) {
	t.Helper()
	primary := forkbase.MustOpen(forkbase.WithMetrics(obs.NewRegistry()))
	t.Cleanup(func() { primary.Close() })
	srv := primary.NewServer(nil)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	cl, err := server.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	return primary, cl
}

// servedPrimary opens an in-memory primary serving NewServer and a Remote
// client of it.
func servedPrimary(t *testing.T) (primary, client *forkbase.DB) {
	t.Helper()
	primary = forkbase.MustOpen(forkbase.WithMetrics(obs.NewRegistry()))
	t.Cleanup(func() { primary.Close() })
	srv := primary.NewServer(nil)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	client, err = forkbase.Open(forkbase.Remote(addr), forkbase.WithMetrics(obs.NewRegistry()))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { client.Close() })
	return primary, client
}

// TestRemoteCommitAfterPrimaryGC: a map a Remote client built lands its
// chunks on the primary, whose GC sweeps them before the client's Put.  The
// Put is refused with ErrCollected instead of being acked under a head that
// names swept chunks; a rebuilt value commits and deep-verifies on both
// ends, and the next GC passes.
func TestRemoteCommitAfterPrimaryGC(t *testing.T) {
	primary, client := servedPrimary(t)
	var es []forkbase.Entry
	for i := 0; i < 500; i++ {
		es = append(es, forkbase.Entry{Key: []byte(fmt.Sprintf("k%05d", i)), Val: []byte(fmt.Sprintf("v%05d-some-padding-bytes", i))})
	}
	v, err := client.NewMapValue(es)
	if err != nil {
		t.Fatal(err)
	}
	if gs, err := primary.GC(); err != nil || gs.Swept == 0 {
		t.Fatalf("primary GC = %+v, %v; want the unpublished value's chunks swept", gs, err)
	}
	if _, err := client.Put("m", "", v, nil); !errors.Is(err, forkbase.ErrCollected) {
		t.Fatalf("remote Put of a value the primary collected = %v, want ErrCollected", err)
	}
	if v, err = client.NewMapValue(es); err != nil {
		t.Fatal(err)
	}
	ver, err := client.Put("m", "", v, nil)
	if err != nil {
		t.Fatalf("remote Put of the rebuilt value: %v", err)
	}
	for name, db := range map[string]*forkbase.DB{"client": client, "primary": primary} {
		if rep, err := db.VerifyVersion("m", ver.UID, true); err != nil || !rep.OK {
			t.Fatalf("%s deep verify of the rebuilt value = %+v, %v", name, rep, err)
		}
	}
	if _, err := primary.GC(); err != nil {
		t.Fatalf("primary GC after the commit: %v", err)
	}
}

// sweepBetweenPuts is a client's chunk store that runs gc once, right after
// its first PutBatch was answered.
type sweepBetweenPuts struct {
	store.Store
	gc   func()
	once sync.Once
}

func (s *sweepBetweenPuts) Unwrap() store.Store { return s.Store }

func (s *sweepBetweenPuts) PutBatch(cs []*chunk.Chunk) ([]bool, error) {
	fresh, err := s.Store.PutBatch(cs)
	s.once.Do(s.gc)
	return fresh, err
}

// TestRemoteValueSweptBetweenItsPuts: a map a Remote client builds outside
// a write lands in one Commit with no head ops per 128 chunks.  The primary
// collects between the first and the second, sweeping the first request's
// leaves.  A landing that names a chunk the server lacks is refused, so the
// index nodes that name the swept leaves never land: the build, or else the
// client's Put of the value, fails with ErrCollected instead of being acked
// under a head whose leaves are gone.  A rebuilt value commits and
// deep-verifies on the primary, and the next GC passes.
func TestRemoteValueSweptBetweenItsPuts(t *testing.T) {
	primary, cl := servePrimary(t)
	var gcErr error
	st := &sweepBetweenPuts{Store: server.NewRemoteStore(cl), gc: func() {
		if gs, err := primary.GC(); err != nil || gs.Swept == 0 {
			gcErr = fmt.Errorf("primary GC between the value's puts = %+v, %v; want its first chunks swept", gs, err)
		}
	}}
	client := core.Open(core.Options{Store: st, Branches: server.NewRemoteBranchTable(cl), NodeCacheBytes: 16 << 20, Metrics: obs.NewRegistry()})
	var es []forkbase.Entry
	for i := 0; i < 30000; i++ {
		es = append(es, forkbase.Entry{Key: []byte(fmt.Sprintf("k%06d", i)), Val: []byte(fmt.Sprintf("v%06d-some-padding-bytes", i))})
	}
	v, err := client.NewMapValue(es)
	if gcErr != nil {
		t.Fatal(gcErr)
	}
	if err == nil {
		_, err = client.Put("m", "", v, nil)
	}
	if !errors.Is(err, forkbase.ErrCollected) {
		t.Fatalf("remote build and Put of a value swept between its puts = %v, want ErrCollected", err)
	}
	if v, err = client.NewMapValue(es); err != nil {
		t.Fatal(err)
	}
	ver, err := client.Put("m", "", v, nil)
	if err != nil {
		t.Fatalf("remote Put of the rebuilt value: %v", err)
	}
	if rep, err := primary.VerifyVersion("m", ver.UID, true); err != nil || !rep.OK {
		t.Fatalf("primary deep verify of the rebuilt value = %+v, %v", rep, err)
	}
	if _, err := primary.GC(); err != nil {
		t.Fatalf("primary GC after the commit: %v", err)
	}
}

// RemoteBranchTable is a server.Client in its role as a branch table, the
// one sweepBeforeApply wraps.
type RemoteBranchTable = server.Client

// sweepBeforeApply is a client's branch table that runs gc, once set,
// right before its next Apply is sent.
type sweepBeforeApply struct {
	*RemoteBranchTable
	gc func()
}

func (t *sweepBeforeApply) Apply(ops []core.HeadOp) (bool, error) {
	if gc := t.gc; gc != nil {
		t.gc = nil
		gc()
	}
	return t.RemoteBranchTable.Apply(ops)
}

// TestRemoteSpillSweptBeforeItsCommit: a Remote write too large for one
// frame lands its first chunks ahead of its publish, in a Commit with no
// head ops.  The primary collects between that landing and the write's
// Commit, sweeping them.  The write's op was stamped before the sweep, so
// its Commit is checked for what it names and refused with ErrCollected:
// the write is never acked under a head whose chunks are gone, and the
// primary's next GC passes.
func TestRemoteSpillSweptBeforeItsCommit(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a 20 MiB blob")
	}
	primary, cl := servePrimary(t)
	heads := &sweepBeforeApply{RemoteBranchTable: server.NewRemoteBranchTable(cl)}
	client := core.Open(core.Options{Store: server.NewRemoteStore(cl), Branches: heads, Metrics: obs.NewRegistry()})
	// A first write takes the server's epoch, so the next one's op is stale
	// only by the sweep.
	if _, err := client.Put("s", "", value.String("epoch"), nil); err != nil {
		t.Fatal(err)
	}
	var gcErr error
	heads.gc = func() {
		if gs, err := primary.GC(); err != nil || gs.Swept == 0 {
			gcErr = fmt.Errorf("primary GC between the spill and the commit = %+v, %v; want the spilled chunks swept", gs, err)
		}
	}
	data := make([]byte, 20<<20)
	rand.New(rand.NewSource(1)).Read(data)
	_, err := client.BuildAndPut("b", "", nil, func() (value.Value, error) {
		return value.NewBlob(client.Store(), client.Chunking(), data)
	})
	if gcErr != nil {
		t.Fatal(gcErr)
	}
	if !errors.Is(err, forkbase.ErrCollected) {
		t.Fatalf("remote write whose spilled chunks were swept before its commit = %v, want ErrCollected", err)
	}
	if _, err := primary.Head("b", ""); err == nil {
		t.Fatal("the refused write moved a head on the primary")
	}
	if _, err := primary.GC(); err != nil {
		t.Fatalf("primary GC after the refusal: %v", err)
	}
}

// TestRemoteWriteAfterPrimaryGC: a Remote client's epoch is the one its
// last reply carried, so after the primary sweeps chunks nobody published,
// the client's next write is stamped before that sweep.  A write begun after
// the sweep names nothing the sweep took, so it commits with no refusal: the
// primary checks what a stale commit names instead of refusing it.
func TestRemoteWriteAfterPrimaryGC(t *testing.T) {
	primary, client := servedPrimary(t)
	if _, err := client.PutString("s", "", "first", nil); err != nil {
		t.Fatal(err)
	}
	var es []forkbase.Entry
	for i := 0; i < 200; i++ {
		es = append(es, forkbase.Entry{Key: []byte(fmt.Sprintf("k%05d", i)), Val: []byte("unpublished")})
	}
	if _, err := primary.NewMapValue(es); err != nil {
		t.Fatal(err)
	}
	if gs, err := primary.GC(); err != nil || gs.Swept == 0 {
		t.Fatalf("primary GC = %+v, %v; want the unpublished map swept", gs, err)
	}
	ver, err := client.PutString("s", "", "second", nil)
	if err != nil {
		t.Fatalf("remote PutString begun after the sweep: %v", err)
	}
	if rep, err := primary.VerifyVersion("s", ver.UID, true); err != nil || !rep.OK {
		t.Fatalf("primary deep verify = %+v, %v", rep, err)
	}
}

// TestRemoteWritersShareOneClient: writers on one Remote client stage their
// chunks on its one connection, and a commit carries whatever is staged when
// it is sent, a concurrent writer's chunks included.  Four writers edit and
// put concurrently while the primary collects; every head they publish
// deep-verifies on the primary, so no commit overtook a chunk it names.
func TestRemoteWritersShareOneClient(t *testing.T) {
	primary, client := servedPrimary(t)
	stop, gcDone := make(chan struct{}), make(chan error, 1)
	go func() {
		for {
			select {
			case <-stop:
				gcDone <- nil
				return
			default:
			}
			if _, err := primary.GC(); err != nil {
				gcDone <- err
				return
			}
		}
	}()
	const writers, rounds = 4, 30
	errs := make(chan error, writers)
	for w := 0; w < writers; w++ {
		go func(w int) {
			key := fmt.Sprintf("table-%d", w)
			var es []forkbase.Entry
			for i := 0; i < 300; i++ {
				es = append(es, forkbase.Entry{Key: []byte(fmt.Sprintf("k%05d", i)), Val: []byte(key)})
			}
			_, err := client.BuildAndPut(key, "", nil, func() (forkbase.Value, error) { return client.NewMapValue(es) })
			for i := 0; err == nil && i < rounds; i++ {
				row := []forkbase.Entry{{Key: []byte(fmt.Sprintf("k%05d", i*7)), Val: []byte(fmt.Sprint(i))}}
				if _, err = client.EditMap(key, "", row, nil, nil); err == nil {
					_, err = client.PutString(key+"-s", "", fmt.Sprint(i), nil)
				}
			}
			errs <- err
		}(w)
	}
	var err error
	for w := 0; w < writers; w++ {
		err = errors.Join(err, <-errs)
	}
	close(stop)
	if err = errors.Join(err, <-gcDone); err != nil {
		t.Fatal(err)
	}
	for w := 0; w < writers; w++ {
		for _, key := range []string{fmt.Sprintf("table-%d", w), fmt.Sprintf("table-%d-s", w)} {
			head, err := primary.Head(key, "")
			if err == nil {
				_, err = primary.VerifyVersion(key, head, true)
			}
			if err != nil {
				t.Errorf("head of %s: %v", key, err)
			}
		}
	}
}

// TestRemotePutsRacingPrimaryGC: a Remote client commits 400 PutStrings over
// 20 keys while the primary collects in a loop with no pause, retrying a
// put refused with ErrCollected.  A commit lands its chunks and moves its
// head under one hold of the primary's GC fence, so no pass can sweep a
// put's FNode between the two: every put is acked within three attempts, no
// GC pass fails, and every head deep-verifies on the primary.
func TestRemotePutsRacingPrimaryGC(t *testing.T) {
	primary, client := servedPrimary(t)
	stop, done := make(chan struct{}), make(chan error, 1)
	passes := 0
	go func() {
		for {
			select {
			case <-stop:
				done <- nil
				return
			default:
			}
			if _, err := primary.GC(); err != nil {
				done <- fmt.Errorf("GC pass %d: %w", passes, err)
				return
			}
			passes++
		}
	}()
	const keys, puts, maxRetries = 20, 400, 2
	retries := 0
	var putErr error
	for i := 0; i < puts && putErr == nil; i++ {
		key := fmt.Sprintf("key-%02d", i%keys)
		for try := 0; ; try++ {
			_, err := client.PutString(key, "", fmt.Sprintf("value %d", i), nil)
			if err == nil {
				break
			}
			if !errors.Is(err, forkbase.ErrCollected) || try == maxRetries {
				putErr = fmt.Errorf("put %d (%s), try %d: %w", i, key, try, err)
				break
			}
			retries++
		}
	}
	close(stop)
	if err := errors.Join(putErr, <-done); err != nil {
		t.Fatal(err)
	}
	t.Logf("%d GC passes, %d ErrCollected retries", passes, retries)
	if _, err := primary.GC(); err != nil {
		t.Fatalf("final GC: %v", err)
	}
	for k := 0; k < keys; k++ {
		key := fmt.Sprintf("key-%02d", k)
		head, err := primary.Head(key, "")
		if err == nil {
			_, err = primary.VerifyVersion(key, head, true)
		}
		if err != nil {
			t.Errorf("head of %s: %v", key, err)
		}
	}
}

// TestRemoteValueStagedIntoAnotherWrite: a map a Remote client builds
// outside any write lands its first 128 leaves in a Commit with no head
// ops, and the primary sweeps them.  One Head brings the client's epoch up
// to date, and a second goroutine's write parks in its build, so the map's
// later chunks, among them the index nodes naming the swept leaves, are
// staged while that write is in flight and ride its fresh Commit.  The
// server lands only what that write's op reaches or what is complete, so
// the map's Put is refused with ErrCollected instead of being acked under
// a head whose leaves are gone; the concurrent write is acked, every head
// deep-verifies on the primary, and the next GC passes.
func TestRemoteValueStagedIntoAnotherWrite(t *testing.T) {
	primary, cl := servePrimary(t)
	heads := server.NewRemoteBranchTable(cl)
	var client *core.DB
	var hookErr error
	inBuild, release, written := make(chan struct{}), make(chan struct{}), make(chan error, 1)
	st := &sweepBetweenPuts{Store: server.NewRemoteStore(cl), gc: func() {
		if gs, err := primary.GC(); err != nil || gs.Swept < 128 {
			hookErr = fmt.Errorf("primary GC after the map's first put = %+v, %v; want its 128 leaves swept", gs, err)
		}
		if _, _, err := heads.Head("w", ""); err != nil {
			hookErr = errors.Join(hookErr, err)
		}
		go func() {
			_, err := client.BuildAndPut("w", "", nil, func() (value.Value, error) {
				close(inBuild)
				<-release
				return value.String("concurrent"), nil
			})
			written <- err
		}()
		<-inBuild
	}}
	client = core.Open(core.Options{Store: st, Branches: heads, NodeCacheBytes: 16 << 20, Metrics: obs.NewRegistry()})
	var es []forkbase.Entry
	for i := 0; i < 30000; i++ {
		es = append(es, forkbase.Entry{Key: []byte(fmt.Sprintf("k%06d", i)), Val: []byte(fmt.Sprintf("v%06d-some-padding-bytes", i))})
	}
	v, err := client.NewMapValue(es)
	close(release)
	if werr := <-written; werr != nil {
		t.Fatalf("the concurrent write: %v", werr)
	}
	if hookErr != nil {
		t.Fatal(hookErr)
	}
	if err == nil {
		_, err = client.Put("m", "", v, nil)
	}
	if !errors.Is(err, forkbase.ErrCollected) {
		t.Fatalf("Put of a map whose first leaves were swept, staged into another write = %v, want ErrCollected", err)
	}
	if _, err := primary.Head("m", ""); err == nil {
		t.Fatal("the refused Put moved a head on the primary")
	}
	keys, err := primary.ListKeys()
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range keys {
		head, err := primary.Head(key, "")
		if err == nil {
			var rep core.VerifyReport
			if rep, err = primary.VerifyVersion(key, head, true); err == nil && !rep.OK {
				err = fmt.Errorf("%+v", rep)
			}
		}
		if err != nil {
			t.Errorf("primary deep verify of %s: %v", key, err)
		}
	}
	if _, err := primary.GC(); err != nil {
		t.Fatalf("primary GC after the refusal: %v", err)
	}
}

// TestRemoteWritersOverlapOnOneClient: while writer A's commit waits, writer
// B's write over the same client starts and stages its chunks; nothing makes
// B wait for A.  A's commit carries what A's op reaches, so B's chunks are
// still staged when A is acked and travel with B's own commit.  Both heads
// deep-verify on the primary.
func TestRemoteWritersOverlapOnOneClient(t *testing.T) {
	primary, cl := servePrimary(t)
	parked, release := make(chan struct{}), make(chan struct{})
	heads := &sweepBeforeApply{RemoteBranchTable: server.NewRemoteBranchTable(cl), gc: func() { close(parked); <-release }}
	client := core.Open(core.Options{Store: server.NewRemoteStore(cl), Branches: heads, Metrics: obs.NewRegistry()})
	aDone, bDone := make(chan error, 1), make(chan error, 1)
	go func() { _, err := client.Put("a", "", value.String("writer A"), nil); aDone <- err }()
	<-parked
	released := false
	defer func() {
		if !released {
			close(release)
		}
	}()

	data := make([]byte, 64<<10)
	rand.New(rand.NewSource(1)).Read(data)
	staged, finish := make(chan value.Value, 1), make(chan struct{})
	go func() {
		_, err := client.BuildAndPut("b", "", nil, func() (value.Value, error) {
			v, err := value.NewBlob(client.Store(), client.Chunking(), data)
			staged <- v
			<-finish
			return v, err
		})
		bDone <- err
	}()
	var b value.Value
	select {
	case b = <-staged:
	case <-time.After(5 * time.Second):
		t.Fatal("writer B's build did not run while writer A's commit waited")
	}
	if has, _ := primary.Store().Has(b.Root()); has {
		t.Fatal("writer B's blob reached the primary before a commit carried it")
	}
	close(release)
	released = true
	if err := <-aDone; err != nil {
		t.Fatalf("writer A: %v", err)
	}
	if has, _ := primary.Store().Has(b.Root()); has {
		t.Fatal("writer A's commit carried writer B's blob, which A's op does not reach")
	}
	close(finish)
	if err := <-bDone; err != nil {
		t.Fatalf("writer B: %v", err)
	}
	for _, key := range []string{"a", "b"} {
		head, err := primary.Head(key, "")
		if err == nil {
			var rep core.VerifyReport
			if rep, err = primary.VerifyVersion(key, head, true); err == nil && !rep.OK {
				err = fmt.Errorf("%+v", rep)
			}
		}
		if err != nil {
			t.Errorf("primary deep verify of %s: %v", key, err)
		}
	}
}
