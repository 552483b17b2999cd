package server

import (
	"errors"
	"strings"
	"testing"
	"time"

	"forkbase/internal/chunk"
	"forkbase/internal/core"
	"forkbase/internal/hash"
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

	entries, next, truncated, err := cl.FeedSince(core.FeedCursor{}, 0, 0)
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
	_, _, truncated, err = cl.FeedSince(core.FeedCursor{Epoch: feed.Epoch() + 1, Seq: 2}, 0, 0)
	if err != nil || !truncated {
		t.Fatalf("foreign-epoch cursor: err=%v truncated=%v", err, truncated)
	}

	// Sequence probe.
	pos, err := cl.FeedSeq()
	if err != nil || pos.Seq != 2 || pos.Epoch != feed.Epoch() {
		t.Fatalf("FeedSeq = %+v, %v", pos, err)
	}

	// Long poll: an entry arriving mid-wait wakes the reader.
	go func() {
		time.Sleep(20 * time.Millisecond)
		feed.Append(core.FeedEntry{Key: "k", Branch: "master", Old: u2, New: hash.Of([]byte("v3"))})
	}()
	start := time.Now()
	entries, next, _, err = cl.FeedSince(core.FeedCursor{Epoch: feed.Epoch(), Seq: 2}, 0, 2*time.Second)
	if err != nil || len(entries) != 1 || next.Seq != 3 {
		t.Fatalf("long poll: %v entries=%d next=%+v", err, len(entries), next)
	}
	if time.Since(start) > time.Second {
		t.Fatal("long poll waited the full budget despite an append")
	}

	// Pin ops round-trip.
	if err := cl.PinHead(u2); err != nil {
		t.Fatal(err)
	}
	if len(feed.PinnedHeads()) != 1 {
		t.Fatal("PinHead did not register")
	}
	if err := cl.UnpinHead(u2); err != nil {
		t.Fatal(err)
	}
	if len(feed.PinnedHeads()) != 0 {
		t.Fatal("UnpinHead did not release")
	}
}

func TestFeedSinceWithoutFeed(t *testing.T) {
	_, addr := startServer(t) // no AttachFeed
	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if _, _, _, err := cl.FeedSince(core.FeedCursor{}, 0, 0); err == nil || !strings.Contains(err.Error(), "change feed") {
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
