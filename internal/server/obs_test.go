package server

import (
	"bufio"
	"errors"
	"fmt"
	"maps"
	"math/rand"
	"net"
	"strings"
	"testing"

	"forkbase/internal/chunk"
	"forkbase/internal/chunker"
	"forkbase/internal/core"
	"forkbase/internal/fnode"
	"forkbase/internal/hash"
	"forkbase/internal/index"
	"forkbase/internal/obs"
	"forkbase/internal/store"
	"forkbase/internal/value"
)

// TestServerOpcodeMetrics: each wire opcode moves its own labeled counter
// by exactly the number of requests served, and clean traffic moves no
// error counter.
func TestServerOpcodeMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	srv := New(store.NewMemStore(), core.NewMemBranchTable(), nil)
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
	rs := NewRemoteStore(cl)

	c := chunk.New(chunk.TypeBlobLeaf, []byte("counted"))
	if _, err := rs.Put(c); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := rs.Get(c.ID()); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := rs.Has(c.ID()); err != nil {
		t.Fatal(err)
	}
	if _, err := rs.PutBatch([]*chunk.Chunk{chunk.New(chunk.TypeBlobLeaf, []byte("b1"))}); err != nil {
		t.Fatal(err)
	}

	for op, want := range map[string]float64{
		"Commit":    2,
		"GetChunks": 3,
		"HasChunks": 1,
	} {
		if got, ok := reg.Value("forkbase_server_requests_total", op); !ok || got != want {
			t.Errorf("server_requests_total{%s} = %v (ok=%v), want %v", op, got, ok, want)
		}
	}
	if got := reg.Sum("forkbase_server_errors_total"); got != 0 {
		t.Errorf("server_errors_total = %v, want 0", got)
	}
	// The per-opcode latency histogram recorded every request.
	if got, _ := reg.Value("forkbase_server_request_seconds", "GetChunks"); got != 3 {
		t.Errorf("server_request_seconds{GetChunks} count = %v, want 3", got)
	}
}

// TestUnknownOpcodeMetrics: an opcode the protocol never assigned and two
// retired ones (1, the single-chunk put of versions 1 and 2, and 12,
// version 6's PutChunks) are each answered "unknown op" on a connection
// that stays open, and each counts under op="unknown" as a request and as
// an error.
func TestUnknownOpcodeMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	srv := New(store.NewMemStore(), core.NewMemBranchTable(), nil)
	srv.SetMetrics(reg)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	br := bufio.NewReader(conn)
	ops := []Op{200, 1, 12}
	for i, op := range ops {
		id := uint64(i + 1)
		if _, err := conn.Write(frameOf(t, op, 0, id, appendIDs(nil, hash.Of([]byte("x"))))); err != nil {
			t.Fatal(err)
		}
		h, payload, err := readFrame(br, nil)
		if err != nil {
			t.Fatalf("%s: %v", op, err)
		}
		if h.op != op || h.id != id || h.flags&flagError == 0 || !strings.Contains(string(payload), "unknown op") {
			t.Fatalf("%s: reply op %s id %d flags %#x %q, want an unknown-op error", op, h.op, h.id, h.flags, payload)
		}
	}
	for _, family := range []string{"forkbase_server_requests_total", "forkbase_server_errors_total"} {
		if got, _ := reg.Value(family, "unknown"); got != float64(len(ops)) {
			t.Errorf("%s{op=unknown} = %v, want %d", family, got, len(ops))
		}
		if got := reg.Sum(family); got != float64(len(ops)) {
			t.Errorf("%s summed over every op = %v, want %d", family, got, len(ops))
		}
	}
}

// TestRemoteEngineFetchesNoFNodeItWrote counts requests by opcode: a client
// engine with a node cache caches every FNode it saves, so reading back a
// head it committed is one Head round trip, and a warm edit on that head is
// exactly one request — the Commit, carrying the new index nodes and the
// FNode with the head op, built against the head the client remembers.  The
// store's put is the only dedup, so no HasChunks rides along, on either
// index structure.  A warm merge of two one-row branches is one Commit too:
// no Head, no Stats request and no read of the merged index.
func TestRemoteEngineFetchesNoFNodeItWrote(t *testing.T) {
	for _, kind := range []index.Kind{index.KindPOS, index.KindMPT} {
		t.Run(kind.String(), func(t *testing.T) { remoteWarmEdit(t, kind) })
	}
}

// TestRemoteVerifyOneRequestPerWalkRound counts GetChunks requests: a remote
// engine's deep verify reads each walk round with one batched request, not
// one per chunk, and checks the whole closure.  Behind a server that forges
// a chunk, the client refuses the reply holding it, and that round alone is
// read again one id at a time: the report names exactly the forged chunk,
// and every honest chunk of its round is still checked.
func TestRemoteVerifyOneRequestPerWalkRound(t *testing.T) {
	for _, forge := range []bool{false, true} {
		t.Run(fmt.Sprintf("forge=%v", forge), func(t *testing.T) {
			mem := store.NewMemStore()
			mal := store.NewMaliciousStore(mem)
			reg := obs.NewRegistry()
			srv := New(mal, core.NewMemBranchTable(), nil)
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
			db := core.Open(core.Options{
				Store:    NewRemoteStore(cl),
				Branches: NewRemoteBranchTable(cl),
				Chunking: chunker.SmallConfig(),
				Metrics:  obs.Discard,
			})

			// A table with history: 2000 rows, then eight one-row edits.
			entries := make([]index.Entry, 2000)
			for i := range entries {
				entries[i] = index.Entry{Key: []byte(fmt.Sprintf("row-%05d", i)), Val: []byte("v")}
			}
			v, err := db.NewMapValue(entries)
			if err != nil {
				t.Fatal(err)
			}
			head, err := db.Put("t", "", v, nil)
			for i := 1; err == nil && i <= 8; i++ {
				edit := []index.Entry{{Key: entries[i*211].Key, Val: []byte(fmt.Sprintf("edit-%d", i))}}
				head, err = db.EditMap("t", "", edit, nil, nil)
			}
			if err != nil {
				t.Fatal(err)
			}

			// The walk a deep verify makes, replayed on the server's store;
			// with forge, a leaf read in a round with others is flipped.
			var rounds, closure int
			var forged hash.Hash
			err = fnode.Walk([]hash.Hash{head.UID}, map[hash.Hash]bool{}, func(ids []hash.Hash) ([]*chunk.Chunk, error) {
				rounds, closure = rounds+1, closure+len(ids)
				cs, err := mem.GetBatch(ids)
				for _, c := range cs {
					if refs, _ := fnode.Refs(c); forge && forged.IsZero() && len(ids) > 1 && len(refs) == 0 && c.Type() != chunk.TypeFNode {
						forged = c.ID()
					}
				}
				return cs, err
			}, nil)
			if err != nil || rounds*2 > closure {
				t.Fatalf("walk: %v; %d rounds for %d chunks are too few chunks per round for this test", err, rounds, closure)
			}
			if forge {
				if ok, err := mal.CorruptFlip(forged, 7, 1); !ok || err != nil {
					t.Fatalf("inject: %v %v", ok, err)
				}
			}

			before, _ := reg.Value("forkbase_server_requests_total", "GetChunks")
			rep, err := db.VerifyVersion("t", head.UID, true)
			after, _ := reg.Value("forkbase_server_requests_total", "GetChunks")
			requests := int(after - before)
			if !forge {
				if err != nil || rep.ChunksChecked != closure || requests > rounds {
					t.Fatalf("deep verify: %v; checked %d of %d chunks in %d GetChunks requests, want at most one per walk round (%d)",
						err, rep.ChunksChecked, closure, requests, rounds)
				}
				return
			}
			if !errors.Is(err, core.ErrTampered) || len(rep.Failures) != 1 || rep.Failures[0].ChunkID != forged || !errors.Is(rep.Failures[0].Err, chunk.ErrCorrupt) {
				t.Fatalf("want exactly one corrupt chunk, %s: %v %+v", forged.Short(), err, rep.Failures)
			}
			if rep.ChunksChecked != closure-1 {
				t.Fatalf("checked %d chunks, want every chunk but the forged one (%d)", rep.ChunksChecked, closure-1)
			}
		})
	}
}

func remoteWarmEdit(t *testing.T, kind index.Kind) {
	reg := obs.NewRegistry()
	srv := New(store.NewMemStore(), core.NewMemBranchTable(), nil)
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
	db := core.Open(core.Options{
		Store:          NewRemoteStore(cl),
		Branches:       NewRemoteBranchTable(cl),
		Chunking:       chunker.SmallConfig(),
		Index:          kind,
		NodeCacheBytes: 16 << 20,
		Metrics:        obs.Discard,
	})

	// requests returns the requests served since the last call, by opcode.
	last := map[string]float64{}
	requests := func() map[string]float64 {
		d := map[string]float64{}
		for _, name := range opNames {
			n, _ := reg.Value("forkbase_server_requests_total", name)
			if n != last[name] {
				d[name] = n - last[name]
			}
			last[name] = n
		}
		return d
	}
	entries := make([]index.Entry, 2000)
	for i := range entries {
		entries[i] = index.Entry{Key: []byte(fmt.Sprintf("row-%05d", i)), Val: []byte("v")}
	}
	v, err := db.NewMapValue(entries)
	if err != nil {
		t.Fatal(err)
	}
	put, err := db.Put("t", "", v, nil)
	if err != nil {
		t.Fatal(err)
	}

	requests()
	got, err := db.Get("t", "")
	if err != nil || got.UID != put.UID {
		t.Fatalf("Get = %s, %v; want %s", got.UID.Short(), err, put.UID.Short())
	}
	if d := requests(); len(d) != 1 || d["Head"] != 1 {
		t.Fatalf("Get of a head this client committed: requests %v, want exactly one Head", d)
	}

	// The first edit reads the path to row 42 and replaces it; the second
	// edits the same row, so every node it reads is cached.  A POS edit
	// writes its nodes through to the cache (store.Nodes.WriteThrough); a
	// trie's new path is cached by reading the row back.
	edit := func(val string) core.Version {
		t.Helper()
		ver, err := db.EditMap("t", "", []index.Entry{{Key: []byte("row-00042"), Val: []byte(val)}}, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		return ver
	}
	first := edit("first")
	ix, err := db.IndexOf(first)
	if err != nil {
		t.Fatal(err)
	}
	if ix.Kind() != kind {
		t.Fatalf("edited index is %s, want %s", ix.Kind(), kind)
	}
	if val, err := ix.Get([]byte("row-00042")); err != nil || string(val) != "first" {
		t.Fatalf("row-00042 = %q, %v", val, err)
	}
	requests()
	edit("second")
	want := map[string]float64{"Commit": 1}
	if d := requests(); !maps.Equal(d, want) {
		t.Fatalf("warm EditMap on a head this client wrote: requests %v, want %v", d, want)
	}

	// A warm merge of two one-row branches: each side's new path is read
	// back, so the two side diffs and the Apply find every node cached.  The
	// merge builds on both heads as the client last saw them, and its one
	// Commit carries its index nodes and its FNode, moves the head and checks
	// the source's; it asks the server for no store-wide Stats.
	if err := db.Branch("t", "dev", ""); err != nil {
		t.Fatal(err)
	}
	side := func(branch, row, val string) {
		t.Helper()
		ver, err := db.EditMap("t", branch, []index.Entry{{Key: []byte(row), Val: []byte(val)}}, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		ix, err := db.IndexOf(ver)
		if err == nil {
			_, err = ix.Get([]byte(row))
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	side("dev", "row-01900", "dev")
	side("", "row-00042", "third")
	requests()
	res, err := db.Merge("t", "", "dev", nil, nil)
	if err != nil || res.FastForward || res.Stats.DeltasA != 1 || res.Stats.DeltasB != 1 {
		t.Fatalf("Merge = %+v, %v; want a merge of one row from each side", res, err)
	}
	want = map[string]float64{"Commit": 1}
	if d := requests(); !maps.Equal(d, want) {
		t.Fatalf("warm Merge of two one-row branches: requests %v, want %v", d, want)
	}
}

// remoteRig serves an in-memory node and returns a dialer of client engines
// over it (each on its own connection, with a node cache) and a counter of
// the requests the node served since the counter's last call, by opcode.
func remoteRig(t *testing.T) (open func() *core.DB, requests func() map[string]float64) {
	reg := obs.NewRegistry()
	srv := New(store.NewMemStore(), core.NewMemBranchTable(), nil)
	srv.SetMetrics(reg)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	open = func() *core.DB {
		cl, err := Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { cl.Close() })
		return core.Open(core.Options{Store: NewRemoteStore(cl), Branches: NewRemoteBranchTable(cl),
			Chunking: chunker.SmallConfig(), NodeCacheBytes: 16 << 20, Metrics: obs.Discard})
	}
	last := map[string]float64{}
	requests = func() map[string]float64 {
		d := map[string]float64{}
		for _, name := range opNames {
			n, _ := reg.Value("forkbase_server_requests_total", name)
			if n != last[name] {
				d[name] = n - last[name]
			}
			last[name] = n
		}
		return d
	}
	return open, requests
}

// rowsOf returns n rows named row-00000 on.
func rowsOf(n int) []index.Entry {
	entries := make([]index.Entry, n)
	for i := range entries {
		entries[i] = index.Entry{Key: []byte(fmt.Sprintf("row-%05d", i)), Val: []byte("v")}
	}
	return entries
}

// readRow reads row of ver through the engine, caching ver's FNode and the
// path to the row.
func readRow(t *testing.T, db *core.DB, ver core.Version, row string) string {
	t.Helper()
	ver, err := db.GetVersion(ver.Key, ver.UID)
	if err != nil {
		t.Fatal(err)
	}
	ix, err := db.IndexOf(ver)
	if err != nil {
		t.Fatal(err)
	}
	val, err := ix.Get([]byte(row))
	if err != nil {
		t.Fatal(err)
	}
	return string(val)
}

// TestRemoteStaleHeadIsReadOnce: a client builds a write against the head it
// last saw.  When another client has moved that head, the Commit is refused
// and the write is made once more against the head read now — a Head and a
// second Commit — and lands on it, keeping the other client's row.  A merge
// whose source moved is refused by its check op on the source, and is made
// again against both heads read now.
func TestRemoteStaleHeadIsReadOnce(t *testing.T) {
	open, requests := remoteRig(t)
	a, b := open(), open()
	v, err := a.NewMapValue(rowsOf(2000))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Put("t", "", v, nil); err != nil {
		t.Fatal(err)
	}
	edit := func(db *core.DB, branch, row, val string) core.Version {
		t.Helper()
		ver, err := db.EditMap("t", branch, []index.Entry{{Key: []byte(row), Val: []byte(val)}}, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		return ver
	}
	edit(a, "", "row-00042", "a")
	moved := edit(b, "", "row-00043", "b")
	readRow(t, a, moved, "row-00043") // a caches b's nodes, not b's head
	requests()
	ver := edit(a, "", "row-00042", "a2")
	if d, want := requests(), map[string]float64{"Commit": 2, "Head": 1}; !maps.Equal(d, want) {
		t.Fatalf("EditMap on a head another client moved: requests %v, want %v", d, want)
	}
	if len(ver.Bases) != 1 || ver.Bases[0] != moved.UID || readRow(t, a, ver, "row-00043") != "b" {
		t.Fatalf("the retried edit derives from %v, want b's version %s with its row", ver.Bases, moved.UID.Short())
	}

	if err := a.Branch("t", "dev", ""); err != nil {
		t.Fatal(err)
	}
	mine := edit(a, "dev", "row-01900", "dev")
	readRow(t, a, mine, "row-01900")
	readRow(t, a, edit(a, "", "row-00042", "a3"), "row-00042")
	src := edit(b, "dev", "row-01901", "b-dev")
	readRow(t, a, src, "row-01901")
	if _, _, err := a.Diff("t", mine.UID, src.UID); err != nil { // a caches every node b wrote
		t.Fatal(err)
	}
	requests()
	res, err := a.Merge("t", "", "dev", nil, nil)
	if err != nil || res.FastForward {
		t.Fatalf("Merge = %+v, %v", res, err)
	}
	if d, want := requests(), map[string]float64{"Commit": 2, "Head": 2}; !maps.Equal(d, want) {
		t.Fatalf("Merge whose source another client moved: requests %v, want %v", d, want)
	}
	if bases := res.Version.Bases; len(bases) != 2 || bases[1] != src.UID || readRow(t, a, res.Version, "row-01901") != "b-dev" {
		t.Fatalf("the retried merge has bases %v, want b's dev head %s as its source", bases, src.UID.Short())
	}
}

// TestRemoteBuildReadsBackFromTheCache: a build writes its nodes through the
// node cache as an edit does, so reading rows of a table a client just built
// costs each Get its Head and nothing more.
func TestRemoteBuildReadsBackFromTheCache(t *testing.T) {
	open, requests := remoteRig(t)
	db := open()
	rows := rowsOf(2000)
	if _, err := db.BuildAndPut("t", "", nil, func() (value.Value, error) { return db.NewMapValue(rows) }); err != nil {
		t.Fatal(err)
	}
	requests()
	rnd := rand.New(rand.NewSource(1))
	for i := 0; i < 50; i++ {
		ver, err := db.Get("t", "")
		if err != nil {
			t.Fatal(err)
		}
		row := string(rows[rnd.Intn(len(rows))].Key)
		if got := readRow(t, db, ver, row); got != "v" {
			t.Fatalf("%s = %q", row, got)
		}
	}
	if d, want := requests(), map[string]float64{"Head": 50}; !maps.Equal(d, want) {
		t.Fatalf("50 Gets of random rows of a table this client built: requests %v, want %v", d, want)
	}
}

// TestRemoteBuildLargerThanAFrame: a write's chunks wait for its Commit
// only up to half a frame; past that they land with a Commit of no head ops
// of their own, and the write's Commit carries the rest.  The Head is the
// write's read of the branch.  The version deep-verifies.
func TestRemoteBuildLargerThanAFrame(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a 20 MiB blob")
	}
	open, requests := remoteRig(t)
	db := open()
	data := make([]byte, 20<<20)
	rand.New(rand.NewSource(1)).Read(data)
	requests()
	ver, err := db.BuildAndPut("b", "", nil, func() (value.Value, error) { return value.NewBlob(db.Store(), db.Chunking(), data) })
	if err != nil {
		t.Fatal(err)
	}
	if d, want := requests(), map[string]float64{"Head": 1, "Commit": 2}; !maps.Equal(d, want) {
		t.Fatalf("a 20 MiB build: requests %v, want %v", d, want)
	}
	if rep, err := db.VerifyVersion("b", ver.UID, true); err != nil || !rep.OK {
		t.Fatalf("deep verify = %+v, %v", rep, err)
	}
}
