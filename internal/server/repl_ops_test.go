package server

import (
	"encoding/binary"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"forkbase/internal/chunk"
	"forkbase/internal/core"
	"forkbase/internal/hash"
	"forkbase/internal/obs"
	"forkbase/internal/store"
)

func TestBatchedChunkReads(t *testing.T) {
	_, addr := startServer(t)
	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	rs := NewRemoteStore(cl)

	var ids []hash.Hash
	for _, p := range []string{"a", "b", "c", "d"} {
		c := chunk.New(chunk.TypeBlobLeaf, []byte(p))
		if _, err := rs.Put(c); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, c.ID())
	}
	missing := hash.Of([]byte("missing"))
	query := []hash.Hash{ids[3], missing, ids[0], ids[1]}

	got, err := rs.GetBatch(query)
	if err != nil {
		t.Fatal(err)
	}
	if got[0] == nil || string(got[0].Data()) != "d" {
		t.Fatalf("slot 0: %v", got[0])
	}
	if got[1] != nil {
		t.Fatal("missing id must yield nil")
	}
	if got[2] == nil || string(got[2].Data()) != "a" || got[3] == nil || string(got[3].Data()) != "b" {
		t.Fatal("wrong chunks in slots 2/3")
	}

	has, err := rs.HasBatch(query)
	if err != nil {
		t.Fatal(err)
	}
	if !has[0] || has[1] || !has[2] || !has[3] {
		t.Fatalf("HasBatch = %v", has)
	}

	// Empty batch: no round trip, no error.
	if out, err := rs.GetBatch(nil); err != nil || out != nil {
		t.Fatalf("empty GetBatch: %v %v", out, err)
	}
}

func TestGetChunksRejectsForgedPayload(t *testing.T) {
	// A malicious inner store serves a forged payload; the client's claimed-id
	// recheck must refuse it.
	mal := store.NewMaliciousStore(store.NewMemStore())
	srv := New(mal, core.NewMemBranchTable(), nil)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	c := chunk.New(chunk.TypeBlobLeaf, []byte("genuine"))
	if _, err := mal.Put(c); err != nil {
		t.Fatal(err)
	}
	mal.Forge(c.ID(), chunk.TypeBlobLeaf, []byte("forged!"))
	// Replies answer by position, so the forged payload is checked against
	// the very id it claims to answer: the forgery can stall a sync (the
	// fetch fails) but can never be accepted as the genuine content.
	out, err := cl.GetChunks([]hash.Hash{c.ID()})
	if !errors.Is(err, chunk.ErrCorrupt) || out != nil {
		t.Fatalf("forged chunk crossed the wire: out=%v err=%v", out, err)
	}
}

func TestFeedSinceOverWire(t *testing.T) {
	st := store.NewMemStore()
	feed := core.NewFeed(64)
	heads := core.WithFeed(core.NewMemBranchTable(), feed)
	srv := New(st, heads, nil)
	srv.AttachFeed(feed)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	// Writes through the remote branch table land in the shared feed.
	rbt := NewRemoteBranchTable(cl)
	u1, u2 := hash.Of([]byte("v1")), hash.Of([]byte("v2"))
	if ok, err := rbt.CompareAndSet("k", "master", hash.Hash{}, u1); err != nil || !ok {
		t.Fatalf("cas1: %v %v", ok, err)
	}
	if ok, err := rbt.CompareAndSet("k", "master", u1, u2); err != nil || !ok {
		t.Fatalf("cas2: %v %v", ok, err)
	}

	entries, next, truncated, err := cl.FeedSince(0, core.FeedCursor{}, 0, 0)
	if err != nil || truncated {
		t.Fatalf("FeedSince: %v truncated=%v", err, truncated)
	}
	if len(entries) != 2 || next.Seq != 2 || next.Epoch != feed.Epoch() {
		t.Fatalf("entries=%d next=%+v", len(entries), next)
	}
	if entries[0].New != u1 || entries[1].Old != u1 || entries[1].New != u2 {
		t.Fatalf("wrong entries: %+v", entries)
	}

	// A cursor from another feed incarnation is truncated, not aliased.
	_, _, truncated, err = cl.FeedSince(0, core.FeedCursor{Epoch: feed.Epoch() + 1, Seq: 2}, 0, 0)
	if err != nil || !truncated {
		t.Fatalf("foreign-epoch cursor: err=%v truncated=%v", err, truncated)
	}

	// Sequence probe.
	_, pos, _, err := cl.FeedSince(0, core.FeedCursor{}, -1, 0)
	if err != nil || pos.Seq != 2 || pos.Epoch != feed.Epoch() {
		t.Fatalf("FeedSeq = %+v, %v", pos, err)
	}

	// Long poll: an entry arriving mid-wait wakes the reader.
	go func() {
		time.Sleep(20 * time.Millisecond)
		feed.Append(core.FeedEntry{Key: "k", Branch: "master", Old: u2, New: hash.Of([]byte("v3"))})
	}()
	start := time.Now()
	entries, next, _, err = cl.FeedSince(0, core.FeedCursor{Epoch: feed.Epoch(), Seq: 2}, 0, 2*time.Second)
	if err != nil || len(entries) != 1 || next.Seq != 3 {
		t.Fatalf("long poll: %v entries=%d next=%+v", err, len(entries), next)
	}
	if time.Since(start) > time.Second {
		t.Fatal("long poll waited the full budget despite an append")
	}

}

func TestFeedSinceWithoutFeed(t *testing.T) {
	_, addr := startServer(t) // no AttachFeed
	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if _, _, _, err := cl.FeedSince(0, core.FeedCursor{}, 0, 0); err == nil || !strings.Contains(err.Error(), "change feed") {
		t.Fatalf("want change-feed error, got %v", err)
	}
}

func TestReadOnlyServerRejectsWrites(t *testing.T) {
	st := store.NewMemStore()
	heads := core.NewMemBranchTable()
	srv := New(st, heads, nil)
	srv.SetReadOnly(true)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	rs := NewRemoteStore(cl)
	c := chunk.New(chunk.TypeBlobLeaf, []byte("nope"))
	if _, err := rs.Put(c); err == nil {
		t.Fatal("read-only server accepted a chunk put")
	}
	if _, err := rs.PutBatch([]*chunk.Chunk{c}); err == nil {
		t.Fatal("read-only server accepted a batch put")
	}
	rbt := NewRemoteBranchTable(cl)
	if _, err := rbt.CompareAndSet("k", "master", hash.Hash{}, c.ID()); err == nil {
		t.Fatal("read-only server accepted a CAS")
	}
	if _, err := rbt.Apply([]core.HeadOp{{Key: "k", Branch: "master", Any: true}}); err == nil {
		t.Fatal("read-only server accepted a delete")
	}

	// Reads still work: seed the store directly and fetch over the wire.
	if _, err := st.Put(c); err != nil {
		t.Fatal(err)
	}
	got, err := rs.Get(c.ID())
	if err != nil || string(got.Data()) != "nope" {
		t.Fatalf("read on read-only server: %v %v", got, err)
	}
}

// TestHeadsListsInPages: Client.Heads lists every head a page of whole keys
// per request, in at most ⌈heads/page⌉ + 1 requests; a key whose last
// branch goes while the pages are read is simply absent.
func TestHeadsListsInPages(t *testing.T) {
	defer func(n int) { headsPageLimit = n }(headsPageLimit)
	const page = 10 // rows a page holds
	headsPageLimit = 3*binary.MaxVarintLen64 + 1 + page*(2*binary.MaxVarintLen32+len("key-00")+len("b0")+hash.Size)
	reg := obs.NewRegistry()
	bt := core.NewMemBranchTable()
	srv := New(store.NewMemStore(), bt, nil)
	srv.SetMetrics(reg)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	want, heads := map[string]map[string]hash.Hash{}, 0
	for k := 0; k < 50; k++ {
		key := fmt.Sprintf("key-%02d", k)
		want[key] = map[string]hash.Hash{}
		for b := 0; b <= k%5/4; b++ { // every fifth key has two branches
			uid := hash.Of([]byte(fmt.Sprint(k, b)))
			if _, err := bt.Apply([]core.HeadOp{{Key: key, Branch: fmt.Sprintf("b%d", b), Set: uid}}); err != nil {
				t.Fatal(err)
			}
			want[key][fmt.Sprintf("b%d", b)] = uid
			heads++
		}
	}
	got, err := cl.Heads()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("listed %d keys, want %d", len(got), len(want))
	}
	n, _ := reg.Value("forkbase_server_requests_total", "Heads")
	if limit := float64((heads+page-1)/page + 1); n < 2 || n > limit {
		t.Fatalf("%d heads listed in %v requests, want 2 to %v", heads, n, limit)
	}

	// Listing from a key skips the ones before it; a deleted key is gone.
	if _, err := bt.Apply([]core.HeadOp{{Key: "key-48", Branch: "b0", Any: true}}); err != nil {
		t.Fatal(err)
	}
	var refs []string
	err = cl.call(OpHeads, 0, func(b []byte) []byte { return appendStr(b, "key-48") },
		func(d *dec) { refs, _, _ = d.strs(), d.ids(), d.bools(1) })
	if want := []string{"key-49", "b0", "key-49", "b1"}; err != nil || !reflect.DeepEqual(refs, want) {
		t.Fatalf("heads from key-48: %q, %v; want %q", refs, err, want)
	}
}
