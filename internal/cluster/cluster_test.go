package cluster

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"forkbase/internal/chaos"
	"forkbase/internal/retry"

	"forkbase/internal/chunk"
	"forkbase/internal/core"
	"forkbase/internal/hash"
	"forkbase/internal/pos"
	"forkbase/internal/server"
	"forkbase/internal/store"
	"forkbase/internal/value"
)

func startCluster(t *testing.T, n int) (*Cluster, []*server.Server) {
	t.Helper()
	addrs := make([]string, n)
	servers := make([]*server.Server, n)
	for i := 0; i < n; i++ {
		srv := server.New(store.NewMemStore(), core.NewMemBranchTable(), nil)
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addrs[i] = addr
		servers[i] = srv
		t.Cleanup(func() { srv.Close() })
	}
	c, err := Connect(addrs)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c, servers
}

// openDB assembles a core.DB backed by the cluster, as the facade does.
func openDB(c *Cluster) *core.DB {
	return core.Open(core.Options{Store: c.Store(), Branches: c.BranchTable()})
}

func TestClusterEndToEnd(t *testing.T) {
	c, _ := startCluster(t, 3)
	if len(c.stores) != 3 {
		t.Fatalf("nodes = %d", len(c.stores))
	}
	db := openDB(c)

	// Store a map object large enough to spread chunks across shards.
	entries := make([]pos.Entry, 5000)
	for i := range entries {
		entries[i] = pos.Entry{
			Key: []byte(fmt.Sprintf("row-%05d", i)),
			Val: []byte(fmt.Sprintf("value-%d", i)),
		}
	}
	v, err := value.NewMap(db.Store(), db.Chunking(), entries)
	if err != nil {
		t.Fatal(err)
	}
	ver, err := db.Put("shared", "", v, nil)
	if err != nil {
		t.Fatal(err)
	}

	// Every shard should hold some chunks.
	stats := c.ShardStats()
	for i, s := range stats {
		if s.UniqueChunks == 0 {
			t.Fatalf("shard %d holds no chunks: %+v", i, stats)
		}
	}

	// A second, independent client sees the same data.
	got, err := db.GetVersion("shared", ver.UID)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := got.Value.MapTree(db.Store(), db.Chunking())
	if err != nil {
		t.Fatal(err)
	}
	val, err := tr.Get([]byte("row-04999"))
	if err != nil || string(val) != "value-4999" {
		t.Fatalf("read back: %q %v", val, err)
	}

	// Aggregate stats add up.
	agg := c.Store().Stats()
	var sum int64
	for _, s := range stats {
		sum += s.UniqueChunks
	}
	if agg.UniqueChunks != sum {
		t.Fatalf("aggregate %d != sum %d", agg.UniqueChunks, sum)
	}
}

func TestClusterVerifyTamperEvidence(t *testing.T) {
	// Same engine-level guarantee across the wire: a verifying read catches
	// a server that serves corrupted chunks.  Here we corrupt at the
	// server's backing store.
	mal := store.NewMaliciousStore(store.NewMemStore())
	srv := server.New(mal, core.NewMemBranchTable(), nil)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := Connect([]string{addr})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	db := openDB(c)
	ver, err := db.Put("doc", "", value.String("sensitive"), nil)
	if err != nil {
		t.Fatal(err)
	}
	if ok, err := mal.CorruptFlip(ver.UID, 2, 3); err != nil || !ok {
		t.Fatalf("inject: %v %v", ok, err)
	}
	if _, err := db.Get("doc", "master"); err == nil {
		t.Fatal("client accepted forged chunk from remote server")
	}
}

func TestConnectFailure(t *testing.T) {
	if _, err := Connect([]string{"127.0.0.1:1"}); err == nil {
		t.Fatal("connected to nothing")
	}
	if _, err := Connect(nil); err == nil {
		t.Fatal("connected to empty address list")
	}
}

func TestClusterBatchReads(t *testing.T) {
	c, _ := startCluster(t, 3)
	st := c.Store()

	// Spread a batch of chunks across shards, then read them back in one
	// scatter/gather round with gaps.
	var ids []hash.Hash
	var cs []*chunk.Chunk
	for i := 0; i < 64; i++ {
		ch := chunk.New(chunk.TypeBlobLeaf, []byte(fmt.Sprintf("payload-%d", i)))
		cs = append(cs, ch)
		ids = append(ids, ch.ID())
	}
	if _, err := st.PutBatch(cs); err != nil {
		t.Fatal(err)
	}
	query := append([]hash.Hash(nil), ids...)
	query = append(query, hash.Of([]byte("absent")))

	got, err := st.GetBatch(query)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ids {
		if got[i] == nil || got[i].ID() != ids[i] {
			t.Fatalf("slot %d wrong: %v", i, got[i])
		}
	}
	if got[len(ids)] != nil {
		t.Fatal("absent id must yield nil")
	}

	has, err := st.HasBatch(query)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ids {
		if !has[i] {
			t.Fatalf("HasBatch missed stored id %d", i)
		}
	}
	if has[len(ids)] {
		t.Fatal("HasBatch claimed the absent id")
	}
}

// TestClusterGetBatchShardDownNamesShard pins the partial-failure contract:
// with one shard unreachable (responses black-holed, the nastiest case — a
// dead socket fails fast, a partition hangs naive clients), a batched read
// must come back within the retry budget with an error naming the dead
// shard, while the other shards' data is untouched.
func TestClusterGetBatchShardDownNamesShard(t *testing.T) {
	addrs := make([]string, 3)
	for i := range addrs {
		srv := server.New(store.NewMemStore(), core.NewMemBranchTable(), nil)
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addrs[i] = addr
		t.Cleanup(func() { srv.Close() })
	}
	proxy, err := chaos.NewProxy(addrs[1])
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { proxy.Close() })
	addrs[1] = proxy.Addr()

	opts := server.ClientOptions{
		DialTimeout: time.Second,
		OpTimeout:   200 * time.Millisecond,
		Retry:       retry.Policy{Attempts: 2, Base: 5 * time.Millisecond, Max: 10 * time.Millisecond},
	}
	c, err := ConnectWithOptions(addrs, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })

	st := c.Store()
	var ids []hash.Hash
	hit := map[int]bool{}
	for i := 0; len(ids) < 30 || len(hit) < 3; i++ {
		ch := chunk.New(chunk.TypeBlobLeaf, []byte{byte(i), byte(i >> 8), 'd'})
		if _, err := st.Put(ch); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, ch.ID())
		hit[c.shardIndex(ch.ID())] = true
	}

	proxy.Partition(chaos.ToClient, true) // shard 1 receives, never answers

	start := time.Now()
	_, err = st.GetBatch(ids)
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("GetBatch with a dead shard succeeded")
	}
	var se *ShardError
	if !errors.As(err, &se) || se.Shard != 1 {
		t.Fatalf("error does not name the dead shard: %v", err)
	}
	if !strings.Contains(err.Error(), "shard 1") {
		t.Fatalf("error text hides the shard: %v", err)
	}
	// Not a hang: bounded by the per-shard retry budget, with slack for a
	// loaded CI machine.
	if elapsed > 5*time.Second {
		t.Fatalf("GetBatch blocked %v under a one-way partition", elapsed)
	}

	// The healthy shards still serve their share.
	proxy.Heal()
	got, err := st.GetBatch(ids)
	if err != nil {
		t.Fatalf("after heal: %v", err)
	}
	for i, ch := range got {
		if ch == nil || ch.ID() != ids[i] {
			t.Fatalf("slot %d wrong after heal", i)
		}
	}
}
