package server

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"testing"
	"time"

	"forkbase/internal/chunk"
	"forkbase/internal/chunker"
	"forkbase/internal/core"
	"forkbase/internal/fnode"
	"forkbase/internal/hash"
	"forkbase/internal/obs"
	"forkbase/internal/retry"
	"forkbase/internal/store"
	"forkbase/internal/value"
)

func startServer(t *testing.T) (*Server, string) {
	t.Helper()
	srv := New(store.NewMemStore(), core.NewMemBranchTable(), nil)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv, addr
}

func TestPingAndChunkRoundTrip(t *testing.T) {
	_, addr := startServer(t)
	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	rs := NewRemoteStore(cl)
	c := chunk.New(chunk.TypeBlobLeaf, []byte("over the wire"))
	fresh, err := rs.Put(c)
	if err != nil || !fresh {
		t.Fatalf("put: fresh=%v err=%v", fresh, err)
	}
	fresh, err = rs.Put(c)
	if err != nil || fresh {
		t.Fatalf("dedup over wire: fresh=%v err=%v", fresh, err)
	}
	got, err := rs.Get(c.ID())
	if err != nil {
		t.Fatal(err)
	}
	if string(got.Data()) != "over the wire" || got.Type() != chunk.TypeBlobLeaf {
		t.Fatalf("got %q %v", got.Data(), got.Type())
	}
	ok, err := rs.Has(c.ID())
	if err != nil || !ok {
		t.Fatalf("has: %v %v", ok, err)
	}
	if _, err := rs.Get(hash.Of([]byte("missing"))); !errors.Is(err, store.ErrNotFound) {
		t.Fatalf("missing: %v", err)
	}
	if rs.Stats().UniqueChunks != 1 {
		t.Fatalf("stats: %+v", rs.Stats())
	}
}

func TestServerRejectsMislabelledChunk(t *testing.T) {
	_, addr := startServer(t)
	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	// An honest client cannot mislabel (a put sends each chunk's own id),
	// so claim the id by hand.
	lie := chunk.NewClaimed(chunk.TypeBlobLeaf, []byte("actual content"), hash.Of([]byte("lie")))
	if _, err = NewRemoteStore(cl).PutBatch([]*chunk.Chunk{lie}); err == nil {
		t.Fatal("server accepted mislabelled chunk")
	}
}

// TestPutNamingAMissingChunkLandsWhatIsComplete: a put outside a write is
// a Commit with no head ops, whose chunks land only when complete.  A
// batch with a chunk naming one the server lacks lands the chunk beside it
// that names nothing, not the incomplete one, and is refused with
// core.ErrCollected; the batch that carries the named chunk lands.
func TestPutNamingAMissingChunkLandsWhatIsComplete(t *testing.T) {
	srv, addr := startServer(t)
	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	rs := NewRemoteStore(cl)
	named := chunk.New(chunk.TypeBlobLeaf, []byte("named"))
	other := chunk.New(chunk.TypeBlobLeaf, []byte("names nothing"))
	parent := chunk.New(chunk.TypeFNode, fnode.New([]byte("k"), value.String("v"), []hash.Hash{named.ID()}, 2, nil).Encode())
	if _, err := rs.PutBatch([]*chunk.Chunk{other, parent}); !errors.Is(err, core.ErrCollected) {
		t.Fatalf("put naming a chunk the server lacks = %v, want core.ErrCollected", err)
	}
	for c, want := range map[*chunk.Chunk]bool{other: true, parent: false} {
		if has, _ := srv.st.Has(c.ID()); has != want {
			t.Fatalf("server has chunk %s of the refused put = %v, want %v", c.ID().Short(), has, want)
		}
	}
	if fresh, err := rs.PutBatch([]*chunk.Chunk{named, parent}); err != nil || !fresh[0] || !fresh[1] {
		t.Fatalf("put carrying the named chunk = %v, %v; want both fresh", fresh, err)
	}
}

// mirrorSource is a repair source over a copy of a store's chunks.
type mirrorSource struct{ st store.Store }

func (m mirrorSource) GetChunks(ids []hash.Hash) ([]*chunk.Chunk, error) { return m.st.GetBatch(ids) }

// TestHealOverWireLandsChildrenFirst: a Remote store has no Repair, so Heal
// puts what it repaired, and a put outside a write is refused if it names a
// chunk the server lacks.  With a head FNode, its blob's root and a child of
// that root all lost on the server, Heal repairs all three and the version
// deep-verifies again.
func TestHealOverWireLandsChildrenFirst(t *testing.T) {
	srv, addr := startServer(t)
	ms := srv.st.(*store.MemStore)
	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	db := core.Open(core.Options{Store: NewRemoteStore(cl), Branches: NewRemoteBranchTable(cl), Chunking: chunker.SmallConfig()})
	data := make([]byte, 64<<10)
	rand.New(rand.NewSource(1)).Read(data)
	ver, err := db.BuildAndPut("b", "", nil, func() (value.Value, error) { return value.NewBlob(db.Store(), db.Chunking(), data) })
	if err != nil {
		t.Fatal(err)
	}
	replica := store.NewMemStore()
	for _, id := range ms.IDs() {
		c, err := ms.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := replica.Put(c); err != nil {
			t.Fatal(err)
		}
	}
	lost := []hash.Hash{ver.UID, ver.Value.Root()}
	root, err := ms.Get(lost[1])
	if err != nil {
		t.Fatal(err)
	}
	children, err := fnode.Refs(root)
	if err != nil || len(children) == 0 {
		t.Fatalf("blob root names %d children (%v); want an index node", len(children), err)
	}
	lost = append(lost, children[0])
	for _, id := range lost {
		ms.Delete(id)
	}
	hs, err := db.Heal(mirrorSource{replica})
	if err != nil || hs.Missing != len(lost) || hs.Repaired != len(lost) {
		t.Fatalf("heal = %+v, %v; want %d missing and repaired", hs, err, len(lost))
	}
	for _, id := range lost {
		if has, _ := ms.Has(id); !has {
			t.Fatalf("chunk %s not back on the server", id.Short())
		}
	}
	if rep, err := db.VerifyVersion("b", ver.UID, true); err != nil || !rep.OK {
		t.Fatalf("deep verify after heal = %+v, %v", rep, err)
	}
}

// TestRemoteBranchesKeyNotFound: an absent key is core.ErrKeyNotFound over
// the wire as it is in the engine, so a listing racing a delete skips the
// key instead of failing, whichever table it runs over.
func TestRemoteBranchesKeyNotFound(t *testing.T) {
	_, addr := startServer(t)
	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	bt := NewRemoteBranchTable(cl)
	if _, err := bt.Branches("missing"); !errors.Is(err, core.ErrKeyNotFound) {
		t.Fatalf("branches of a missing key: %v, want core.ErrKeyNotFound", err)
	}
	uid := hash.Of([]byte("v1"))
	if ok, err := bt.CompareAndSet("k", "master", hash.Hash{}, uid); err != nil || !ok {
		t.Fatalf("CAS create: %v %v", ok, err)
	}
	racing := &deletingTable{BranchTable: bt, gone: "k"}
	if heads, err := core.ListHeads(racing); err != nil || len(heads) != 0 {
		t.Fatalf("a key deleted mid-listing: heads %v, err %v", heads, err)
	}
}

// deletingTable deletes key gone's branch just before listing its branches.
type deletingTable struct {
	core.BranchTable
	gone string
}

func (d *deletingTable) Branches(key string) (map[string]hash.Hash, error) {
	if key == d.gone {
		if _, err := d.Apply([]core.HeadOp{{Key: key, Branch: "master", Any: true}}); err != nil {
			return nil, err
		}
	}
	return d.BranchTable.Branches(key)
}

func TestRemoteBranchTable(t *testing.T) {
	_, addr := startServer(t)
	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	bt := NewRemoteBranchTable(cl)

	uid1 := hash.Of([]byte("v1"))
	ok, err := bt.CompareAndSet("k", "master", hash.Hash{}, uid1)
	if err != nil || !ok {
		t.Fatalf("CAS create: %v %v", ok, err)
	}
	got, found, err := bt.Head("k", "master")
	if err != nil || !found || got != uid1 {
		t.Fatalf("head: %v %v %v", got.Short(), found, err)
	}
	// Stale CAS fails.
	ok, err = bt.CompareAndSet("k", "master", hash.Hash{}, hash.Of([]byte("v2")))
	if err != nil || ok {
		t.Fatalf("stale CAS: %v %v", ok, err)
	}
	// Rename (one Apply), list, delete.
	rename := []core.HeadOp{{Key: "k", Branch: "master", Expect: uid1}, {Key: "k", Branch: "main", Set: uid1}}
	if ok, err := bt.Apply(rename); err != nil || !ok {
		t.Fatalf("rename: %v %v", ok, err)
	}
	branches, err := bt.Branches("k")
	if err != nil || len(branches) != 1 || branches["main"] != uid1 {
		t.Fatalf("branches: %v %v", branches, err)
	}
	keys, err := bt.Keys()
	if err != nil || len(keys) != 1 || keys[0] != "k" {
		t.Fatalf("keys: %v %v", keys, err)
	}
	if ok, err := bt.CompareAndSet("k", "main", uid1, hash.Hash{}); err != nil || !ok {
		t.Fatalf("delete: %v %v", ok, err)
	}
	_, found, err = bt.Head("k", "main")
	if err != nil || found {
		t.Fatalf("deleted branch found: %v %v", found, err)
	}
	// The rename again is refused, and refuses whole: master is not
	// recreated.
	if ok, err := bt.Apply(rename); err != nil || ok {
		t.Fatalf("rename of a deleted branch: %v %v", ok, err)
	}
	if keys, err := bt.Keys(); err != nil || len(keys) != 0 {
		t.Fatalf("keys after a refused Apply: %v %v", keys, err)
	}
	// A name no journal record can hold is an error, through the wire.
	if _, err := bt.CompareAndSet("", "master", hash.Hash{}, uid1); err == nil {
		t.Fatal("empty key accepted")
	}
}

func TestFullEngineOverWire(t *testing.T) {
	_, addr := startServer(t)
	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	db := core.Open(core.Options{
		Store:    NewRemoteStore(cl),
		Branches: NewRemoteBranchTable(cl),
	})
	if _, err := db.Put("remote-obj", "", value.String("hello from afar"), nil); err != nil {
		t.Fatal(err)
	}
	got, err := db.Get("remote-obj", "master")
	if err != nil {
		t.Fatal(err)
	}
	s, _ := got.Value.AsString()
	if s != "hello from afar" {
		t.Fatalf("value = %q", s)
	}
	// Branch + merge over the wire.
	if err := db.Branch("remote-obj", "dev", ""); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Put("remote-obj", "dev", value.String("dev edit"), nil); err != nil {
		t.Fatal(err)
	}
	res, err := db.Merge("remote-obj", "master", "dev", nil, nil)
	if err != nil || !res.FastForward {
		t.Fatalf("merge: %+v %v", res, err)
	}
}

func TestConcurrentClients(t *testing.T) {
	_, addr := startServer(t)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			cl, err := Dial(addr)
			if err != nil {
				t.Errorf("dial: %v", err)
				return
			}
			defer cl.Close()
			rs := NewRemoteStore(cl)
			for i := 0; i < 50; i++ {
				c := chunk.New(chunk.TypeBlobLeaf, []byte{byte(g), byte(i)})
				if _, err := rs.Put(c); err != nil {
					t.Errorf("put: %v", err)
					return
				}
				if _, err := rs.Get(c.ID()); err != nil {
					t.Errorf("get: %v", err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

func TestServerCloseUnblocksClients(t *testing.T) {
	srv, addr := startServer(t)
	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	srv.Close()
	rs := NewRemoteStore(cl)
	if _, err := rs.Get(hash.Of([]byte("x"))); err == nil {
		t.Fatal("request to closed server succeeded")
	}
}

func TestBatchedChunkIngest(t *testing.T) {
	_, addr := startServer(t)
	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	rs := NewRemoteStore(cl)
	var cs []*chunk.Chunk
	for i := 0; i < 40; i++ {
		cs = append(cs, chunk.New(chunk.TypeBlobLeaf, []byte{byte(i), byte(i >> 3), 'x'}))
	}
	cs = append(cs, cs[0]) // intra-batch duplicate
	fresh, err := rs.PutBatch(cs)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		if !fresh[i] {
			t.Fatalf("chunk %d not fresh", i)
		}
	}
	if fresh[40] {
		t.Fatal("duplicate reported fresh")
	}
	for _, c := range cs {
		got, err := rs.Get(c.ID())
		if err != nil {
			t.Fatalf("get after batch: %v", err)
		}
		if got.ID() != c.ID() {
			t.Fatal("wrong chunk back")
		}
	}
}

func TestBatchedIngestRejectsForgery(t *testing.T) {
	srv, addr := startServer(t)
	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	honest := chunk.New(chunk.TypeBlobLeaf, []byte("honest"))
	forged := chunk.NewClaimed(chunk.TypeBlobLeaf, []byte("forged payload"), honest.ID())
	if _, err = NewRemoteStore(cl).PutBatch([]*chunk.Chunk{honest, forged}); err == nil {
		t.Fatal("forged batch accepted")
	}
	// Nothing from the rejected batch landed.
	if ok, _ := srv.st.Has(honest.ID()); ok {
		t.Fatal("partial batch landed despite forgery")
	}
}

// TestWriteBatchOverWire drives core.DB.WriteBatch against a remote store:
// the version chunks travel with the batch's head ops in one Commit.
func TestWriteBatchOverWire(t *testing.T) {
	_, addr := startServer(t)
	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	db := core.Open(core.Options{Store: NewRemoteStore(cl), Branches: NewRemoteBranchTable(cl)})
	vers, err := db.WriteBatch([]core.WriteOp{
		{Key: "x", Value: value.String("1")},
		{Key: "y", Value: value.String("2")},
		{Key: "x", Value: value.String("3")},
	})
	if err != nil {
		t.Fatal(err)
	}
	if vers[2].Seq != 2 {
		t.Fatalf("chained remote seq = %d", vers[2].Seq)
	}
	got, err := db.Get("x", "")
	if err != nil {
		t.Fatal(err)
	}
	if s, _ := got.Value.AsString(); s != "3" {
		t.Fatalf("x = %q", s)
	}
}

func TestServerMaxConnsGateShedsAndRecovers(t *testing.T) {
	srv := New(store.NewMemStore(), core.NewMemBranchTable(), nil)
	reg := obs.NewRegistry()
	srv.SetMetrics(reg)
	srv.SetLimits(Limits{MaxConns: 1})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	cl1, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	// Second connection is shed at the door: the dial-time ping fails fast
	// (single attempt — no point backing off inside the assertion).
	_, err = DialWithOptions(addr, ClientOptions{
		OpTimeout: time.Second,
		Retry:     retry.Policy{Attempts: -1},
	})
	if err == nil {
		t.Fatal("connection over MaxConns was served")
	}
	if n, _ := reg.Value("forkbase_server_conns_refused_total"); n == 0 {
		t.Fatal("gate shed nothing")
	}
	// Freeing the slot lets the next client in; the retry policy absorbs
	// the handoff race (server-side conn teardown is asynchronous).
	cl1.Close()
	cl2, err := DialWithOptions(addr, ClientOptions{
		OpTimeout: time.Second,
		Retry:     retry.Policy{Attempts: 8, Base: 20 * time.Millisecond, Max: 100 * time.Millisecond},
	})
	if err != nil {
		t.Fatalf("dial after slot freed: %v", err)
	}
	cl2.Close()
}

func TestServerReadTimeoutReapsStalledConn(t *testing.T) {
	srv := New(store.NewMemStore(), core.NewMemBranchTable(), nil)
	srv.SetLimits(Limits{ReadTimeout: 50 * time.Millisecond})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	// A raw conn that sends half a frame and stalls — the shape of a
	// mid-frame truncation attack or a wedged client.
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte{0x07, 0x01}); err != nil {
		t.Fatal(err)
	}
	// The server must reap the connection instead of parking a goroutine
	// forever; we observe that as EOF/reset on our end.
	conn.SetReadDeadline(time.Now().Add(3 * time.Second))
	buf := make([]byte, 16)
	if _, err := conn.Read(buf); err == nil {
		t.Fatal("server answered a torn frame")
	} else if ne, ok := err.(net.Error); ok && ne.Timeout() {
		t.Fatal("server never reaped the stalled connection")
	}
}

// TestSeenHeadsIsBounded: a client remembers at most seenHeadsMax heads.
// After 5,000 distinct refs it holds exactly that many, the last ref among
// them, and forget removes one.
func TestSeenHeadsIsBounded(t *testing.T) {
	var s seenHeads
	uid := hash.Of([]byte("v"))
	const refs = 5000
	for i := 0; i < refs; i++ {
		s.put(fmt.Sprintf("k%d", i), "master", uid)
	}
	if len(s.refs) != seenHeadsMax {
		t.Fatalf("%d refs remembered after %d, want %d", len(s.refs), refs, seenHeadsMax)
	}
	last := fmt.Sprintf("k%d", refs-1)
	if got, ok := s.get(last, "master"); !ok || got != uid {
		t.Fatalf("the last ref = %s, %v; want it remembered", got.Short(), ok)
	}
	s.forget(last, "master")
	if _, ok := s.get(last, "master"); ok || len(s.refs) != seenHeadsMax-1 {
		t.Fatalf("after forget: remembered %v, %d refs; want it gone and %d refs", ok, len(s.refs), seenHeadsMax-1)
	}
}
