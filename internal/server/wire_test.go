package server

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"io"
	"net"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"forkbase/internal/chunk"
	"forkbase/internal/core"
	"forkbase/internal/fnode"
	"forkbase/internal/hash"
	"forkbase/internal/obs"
	"forkbase/internal/store"
	"forkbase/internal/value"
)

// tap is a TCP relay that records what each side sent.  One request is in
// flight per connection, so once a client call has returned, req and rep
// hold exactly that exchange's two frames.
type tap struct {
	mu       sync.Mutex
	req, rep bytes.Buffer
}

func startTap(t testing.TB, server string) (*tap, string) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	tp := &tap{}
	relay := func(dst, src net.Conn, rec *bytes.Buffer) {
		defer dst.Close()
		buf := make([]byte, 64<<10)
		for {
			n, err := src.Read(buf)
			tp.mu.Lock()
			rec.Write(buf[:n])
			tp.mu.Unlock()
			if _, werr := dst.Write(buf[:n]); err != nil || werr != nil {
				return
			}
		}
	}
	go func() {
		for {
			down, err := ln.Accept()
			if err != nil {
				return
			}
			up, err := net.Dial("tcp", server)
			if err != nil {
				down.Close()
				return
			}
			go relay(up, down, &tp.req)
			go relay(down, up, &tp.rep)
		}
	}()
	return tp, ln.Addr().String()
}

// take returns and clears the recorded exchange.
func (tp *tap) take() (req, rep []byte) {
	tp.mu.Lock()
	defer tp.mu.Unlock()
	req, rep = bytes.Clone(tp.req.Bytes()), bytes.Clone(tp.rep.Bytes())
	tp.req.Reset()
	tp.rep.Reset()
	return req, rep
}

type namedFrame struct {
	name  string
	frame []byte
}

// frameOf assembles a frame from a payload, as both ends do.
func frameOf(t testing.TB, op Op, flags byte, id uint64, payload []byte) []byte {
	t.Helper()
	b := append(appendHeader(nil, op, flags, id), payload...)
	if err := finishFrame(b); err != nil {
		t.Fatal(err)
	}
	return b
}

// wireFrames produces one request and one reply per opcode by driving a
// real client against a real server through a recording relay — so the
// golden vectors pin what the two ends actually put on the wire — plus the
// frames no healthy exchange produces on demand, assembled from the same
// encoders.
func wireFrames(t testing.TB) []namedFrame {
	t.Helper()
	// A table's epoch starts at its incarnation stamp, a clock reading, so
	// the served one is stamped 7 and the epochs replies carry are fixed.
	feed := core.NewFeed(0)
	srv := New(store.NewMemStore(), core.WithFeed(stampedTable{core.NewMemBranchTable(), 7}, feed), nil)
	srv.AttachFeed(feed)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	tp, tapAddr := startTap(t, addr)
	cl, err := Dial(tapAddr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	rs, bt := NewRemoteStore(cl), NewRemoteBranchTable(cl)

	a := chunk.New(chunk.TypeBlobLeaf, []byte("a"))
	b := chunk.New(chunk.TypeMapLeaf, []byte("bb"))
	gone := hash.Of([]byte("gone"))
	v1, v2 := hash.Of([]byte("v1")), hash.Of([]byte("v2"))
	orphan := chunk.New(chunk.TypeFNode, fnode.New([]byte("k"), value.String("x"), []hash.Hash{gone}, 2, nil).Encode())

	var rows []namedFrame
	record := func(name string, wantErr bool, do func() error) {
		t.Helper()
		if err := do(); (err != nil) != wantErr {
			t.Fatalf("%s: err=%v, want an error: %v", name, err, wantErr)
		}
		req, rep := tp.take()
		rows = append(rows, namedFrame{name + "/request", req}, namedFrame{name + "/reply", rep})
	}
	record("Ping", false, func() error { return nil }) // Dial's ping, request 1
	// A put outside a write is a Commit with no head ops.
	record("Commit-put-one", false, func() error { _, err := rs.Put(a); return err })
	record("Commit-put", false, func() error { _, err := rs.PutBatch([]*chunk.Chunk{a, b}); return err })
	record("Commit-empty", false, func() error { _, err := bt.Apply(nil); return err })
	// A put of a chunk naming one the server does not hold: a sweep may
	// have taken it, so nothing lands.
	record("Commit-put-collected", true, func() error { _, err := rs.Put(orphan); return err })
	record("GetChunks-one", false, func() error { _, err := rs.Get(a.ID()); return err })
	record("GetChunks-one-absent", true, func() error { _, err := rs.Get(gone); return err })
	record("GetChunks", false, func() error { _, err := rs.GetBatch([]hash.Hash{b.ID(), gone, a.ID()}); return err })
	record("HasChunks-one", false, func() error { _, err := rs.Has(a.ID()); return err })
	record("HasChunks", false, func() error { _, err := rs.HasBatch([]hash.Hash{gone, b.ID()}); return err })
	record("Stats", false, func() error { rs.Stats(); return nil })
	apply := func(ops ...core.HeadOp) func() error {
		return func() error { _, err := bt.Apply(ops); return err }
	}
	record("Commit", false, apply(core.HeadOp{Key: "k", Branch: "master", Set: v1, Epoch: 7}))
	// A write's chunks, staged by the store, travel with its head op.
	record("Commit-chunks", false, func() error {
		defer rs.Stage()()
		if _, err := rs.PutBatch([]*chunk.Chunk{a, b}); err != nil {
			return err
		}
		return apply(core.HeadOp{Key: "c", Branch: "master", Set: b.ID(), Epoch: 7})()
	})
	record("Commit-stale", false, apply(core.HeadOp{Key: "k", Branch: "master", Set: v2}))
	record("Head", false, func() error { _, _, err := bt.Head("k", "master"); return err })
	record("Head-absent", false, func() error { _, _, err := bt.Head("k", "nope"); return err })
	record("Commit-rename", false, apply(core.HeadOp{Key: "k", Branch: "master", Expect: v1}, core.HeadOp{Key: "k", Branch: "main", Set: v1}))
	record("Branches", false, func() error { _, err := bt.Branches("k"); return err })
	record("Keys", false, func() error { _, err := bt.Keys(); return err })
	record("Heads", false, func() error { _, err := cl.Heads(); return err })
	record("Heads-after", false, func() error {
		return cl.call(OpHeads, 0, func(b []byte) []byte { return appendStr(b, "k\x00") },
			func(d *dec) { d.strs(); d.ids(); d.bools(1) })
	})
	record("Commit-delete", false, apply(core.HeadOp{Key: "k", Branch: "main", Any: true}))
	record("Commit-error", true, apply(core.HeadOp{Branch: "main", Set: v1}))
	// An op stamped before the table's epoch, setting a head the server
	// does not hold: a sweep may have taken it.
	record("Commit-collected", true, apply(core.HeadOp{Key: "k", Branch: "main", Set: v1, Epoch: 6}))
	// A feed's epoch is its start time, so only the request is recorded and
	// the reply is assembled with a fixed one.
	if _, _, _, err := cl.FeedSince(9, core.FeedCursor{Epoch: 7, Seq: 3}, 16, time.Millisecond); err != nil {
		t.Fatal(err)
	}
	req, _ := tp.take()
	return append(rows,
		namedFrame{"FeedSince/request", req},
		namedFrame{"FeedSince/reply", frameOf(t, OpFeedSince, 0, 23, appendFeedPage(nil, core.FeedCursor{Epoch: 7, Seq: 5},
			true, []core.FeedEntry{{Seq: 5, Key: "k", Branch: "main", Old: v1, New: v2}}))},
		// A page that stops before a key that did not fit.
		namedFrame{"Heads-more/reply", frameOf(t, OpHeads, 0, 25,
			appendFlags(appendIDs(appendStrs(nil, []string{"k", "main", "k", "x"}), v1, v2), true))},
		// Four slots against a limit that fits one chunk: a deferred tail.
		namedFrame{"GetChunks-deferred/reply", frameOf(t, OpGetChunks, 0, 24,
			bytes.Join(appendChunkReply(nil, []*chunk.Chunk{a, nil, b, a}, 16), nil))},
	)
}

// stampedTable is a head table with a fixed incarnation stamp.
type stampedTable struct {
	*core.HeadTable
	stamp uint64
}

func (t stampedTable) Epoch() uint64 { return t.stamp }

// TestGoldenFrames pins the wire format: any change to a byte of any frame
// is a protocol change, and must come with a frameVersion bump.
func TestGoldenFrames(t *testing.T) {
	rows := wireFrames(t)
	if len(rows) != len(goldenFrames) {
		t.Fatalf("%d frames produced, %d golden vectors", len(rows), len(goldenFrames))
	}
	for i, tc := range goldenFrames {
		if got := hex.EncodeToString(rows[i].frame); rows[i].name != tc.name || got != tc.wantHex {
			t.Errorf("frame %d:\n got %s %s\nwant %s %s", i, rows[i].name, got, tc.name, tc.wantHex)
		}
	}
}

// FuzzFrame feeds arbitrary bytes to both decoders: the server's request
// path (readFrame + handle, over a memory store) and every reply decoder the
// client has.  None may panic or allocate out of proportion to its input,
// and whatever decodes must survive encode → decode unchanged.
func FuzzFrame(f *testing.F) {
	for _, row := range wireFrames(f) {
		f.Add(row.frame)
	}
	for _, hostile := range hostileFrames(f) {
		f.Add(hostile.frame)
	}
	// No feed attached: a fuzzed FeedSince must not park on its wait budget.
	srv := New(store.NewMemStore(), core.NewMemBranchTable(), nil)
	f.Fuzz(func(t *testing.T, frame []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		h, payload, err := readFrame(bytes.NewReader(frame), nil)
		if err == nil {
			_, _, _ = srv.handle(h, payload, nil)
			fuzzReplyDecoders(t, payload)
		}
		runtime.ReadMemStats(&after)
		// The fuzz worker's own bookkeeping allocates too; the bound only has
		// to tell "proportional to the input" from "sized by a length field".
		if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(1<<20+256*len(frame)); got > limit {
			t.Fatalf("%d-byte frame allocated %d bytes (limit %d)", len(frame), got, limit)
		}
	})
}

// fuzzReplyDecoders runs each shape decoder over p; one that accepts p must
// re-encode to bytes that decode to the same encoding again.
func fuzzReplyDecoders(t *testing.T, p []byte) {
	// The client knows how many flags or chunks it asked for; here the
	// payload's own leading count stands in for that.
	asked := func(d *dec) int {
		peek := d.Reader
		return int(min(peek.Uvarint(), uint64(peek.Len())))
	}
	shapes := map[string]func(d *dec) []byte{
		"ids":   func(d *dec) []byte { return appendIDs(nil, d.ids()...) },
		"flags": func(d *dec) []byte { return appendFlags(nil, d.bools(asked(d))...) },
		"head":  func(d *dec) []byte { return appendUvarint(appendIDs(nil, d.ids()...), d.Uvarint()) },
		"committed": func(d *dec) []byte {
			fresh := d.bools(asked(d))
			return appendUvarint(appendFlags(appendFlags(nil, fresh...), d.bools(1)...), d.Uvarint())
		},
		"ref": func(d *dec) []byte {
			key, branch := d.ref()
			return appendRef(nil, key, branch)
		},
		"headops":  func(d *dec) []byte { return appendHeadOps(nil, d.headOps()) },
		"strs":     func(d *dec) []byte { return appendStrs(nil, d.strs()) },
		"branches": func(d *dec) []byte { return appendIDs(appendStrs(nil, d.strs()), d.ids()...) },
		"stats":    func(d *dec) []byte { return appendStats(nil, d.stats()) },
		"feedreq": func(d *dec) []byte {
			lease, cursor, limit, wait := d.feedReq()
			return appendFeedReq(nil, lease, cursor, limit, wait)
		},
		"page": func(d *dec) []byte {
			cursor, truncated, entries := d.feedPage()
			return appendFeedPage(nil, cursor, truncated, entries)
		},
		"from": func(d *dec) []byte { return appendStr(nil, d.str()) },
		"heads": func(d *dec) []byte {
			return appendFlags(appendIDs(appendStrs(nil, d.strs()), d.ids()...), d.bools(1)...)
		},
		"commit": func(d *dec) []byte {
			cs, ops := d.commit()
			return appendCommit(nil, cs, ops)
		},
		"chunkreply": func(d *dec) []byte {
			out := make([]*chunk.Chunk, asked(d))
			answered := d.chunkReply(make([]hash.Hash, len(out)), out)
			return bytes.Join(appendChunkReply(nil, out[:answered], MaxPayload), nil)
		},
	}
	for name, roundTrip := range shapes {
		d := newDec(p)
		enc := roundTrip(&d)
		if d.done() != nil {
			continue
		}
		d2 := newDec(enc)
		if enc2 := roundTrip(&d2); d2.done() != nil || !bytes.Equal(enc, enc2) {
			t.Fatalf("%s: %x decoded, re-encoded as %x, which decodes to %x (err %v)", name, p, enc, enc2, d2.done())
		}
	}
}

// hostileFrames are byte strings a well-behaved peer never sends.
func hostileFrames(t testing.TB) []namedFrame {
	hdr := func(magic, version, op, flags byte, n uint32) []byte {
		b := []byte{magic, version, op, flags, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 9}
		binary.BigEndian.PutUint32(b[4:], n)
		return b
	}
	return []namedFrame{
		{"payload_len one past the cap", hdr(frameMagic, frameVersion, byte(OpGetChunks), 0, MaxPayload+1)},
		{"payload_len 4 GiB", hdr(frameMagic, frameVersion, byte(OpCommit), 0, 0xFFFFFFFF)},
		{"bad magic", hdr('G', frameVersion, byte(OpPing), 0, 0)},
		{"bad version", hdr(frameMagic, frameVersion+1, byte(OpPing), 0, 0)},
		{"unknown flag", hdr(frameMagic, frameVersion, byte(OpPing), 0x80, 0)},
		{"gob stream", []byte("\x1f\xff\x81\x03\x01\x01\x07Request\x01\xff\x82\x00\x01\x0e\x01")},
		{"truncated header", hdr(frameMagic, frameVersion, byte(OpPing), 0, 0)[:7]},
		{"truncated payload", append(hdr(frameMagic, frameVersion, byte(OpHead), 0, 100), "short"...)},
		{"payload_len at the cap, no payload", hdr(frameMagic, frameVersion, byte(OpCommit), 0, MaxPayload)},
		{"count beyond the payload", frameOf(t, OpGetChunks, 0, 9, appendUvarint(nil, 1<<40))},
		{"chunk longer than the payload", frameOf(t, OpCommit, 0, 9,
			appendUvarint(append(appendIDs(nil, hash.Hash{}), 1, byte(chunk.TypeBlobLeaf)), 1<<30))},
		{"trailing bytes", frameOf(t, OpPing, 0, 9, []byte{0})},
	}
}

// TestHostileFramesCloseTheConnection: every hostile byte string costs the
// server a closed connection (after an error reply, when the frame itself
// was sound) and a bounded, small allocation — never a buffer sized by a
// length field the peer made up.
func TestHostileFramesCloseTheConnection(t *testing.T) {
	_, addr := startServer(t)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, tc := range hostileFrames(t) {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := conn.Write(tc.frame); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		_ = conn.(*net.TCPConn).CloseWrite() // nothing more is coming
		_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		rest, err := io.ReadAll(conn) // returns once the server closes
		if err != nil {
			t.Errorf("%s: server did not close the connection: %v", tc.name, err)
		}
		if len(rest) > 0 {
			if h, payload, err := readFrame(bytes.NewReader(rest), nil); err != nil || h.flags&flagError == 0 {
				t.Errorf("%s: server answered %x (%v), want an error frame or nothing", tc.name, rest, err)
			} else {
				t.Logf("%s: %s", tc.name, payload)
			}
		}
		conn.Close()
	}
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got > 4<<20 {
		t.Errorf("hostile frames cost %d bytes of allocation; a single trusted length field would cost %d", got, MaxPayload)
	}
}

// TestClientRejectsHostileReplies: a server that answers out of step, with
// a length it made up, or with heads pages that never end, costs the client
// an error — not a hang, not an allocation — and never a result.
func TestClientRejectsHostileReplies(t *testing.T) {
	for _, tc := range []struct {
		name  string
		reply func(h header) []byte
	}{
		{"wrong request id", func(h header) []byte { return frameOf(t, h.op, 0, h.id+1, appendIDs(nil)) }},
		{"wrong op", func(h header) []byte { return frameOf(t, OpKeys, 0, h.id, appendIDs(nil)) }},
		{"payload_len past the cap", func(h header) []byte {
			b := frameOf(t, h.op, 0, h.id, nil)
			binary.BigEndian.PutUint32(b[4:], MaxPayload+1)
			return b
		}},
		{"two heads", func(h header) []byte { return frameOf(t, h.op, 0, h.id, appendIDs(nil, hash.Hash{}, hash.Hash{})) }},
		{"count beyond the payload", func(h header) []byte { return frameOf(t, h.op, 0, h.id, appendUvarint(nil, 1<<50)) }},
		{"a heads page that makes no progress", func(h header) []byte {
			return frameOf(t, h.op, 0, h.id, appendFlags(appendIDs(appendStrs(nil, nil)), true))
		}},
	} {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		go func() { // a server that pings honestly and lies about everything else
			for {
				conn, err := ln.Accept()
				if err != nil {
					return
				}
				for {
					h, _, err := readFrame(conn, nil)
					if err != nil {
						break
					}
					reply := frameOf(t, h.op, 0, h.id, nil)
					if h.op != OpPing {
						reply = tc.reply(h)
					}
					if _, err := conn.Write(reply); err != nil {
						break
					}
				}
				conn.Close()
			}
		}()
		opts := ClientOptions{OpTimeout: 2 * time.Second}
		opts.Retry.Attempts, opts.Retry.Base = 2, time.Millisecond
		cl, err := DialWithOptions(ln.Addr().String(), opts)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if uid, found, err := NewRemoteBranchTable(cl).Head("k", "master"); err == nil {
			t.Errorf("%s: Head returned %s found=%v, want an error", tc.name, uid.Short(), found)
		}
		if heads, err := cl.Heads(); err == nil {
			t.Errorf("%s: Heads returned %d keys, want an error", tc.name, len(heads))
		}
		cl.Close()
		ln.Close()
	}
}

// TestUnknownOpIsAnsweredNotFatal: a well-framed request for an op this
// server does not know gets an error reply, and the connection keeps serving.
func TestUnknownOpIsAnsweredNotFatal(t *testing.T) {
	_, addr := startServer(t)
	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	conn := cl.conn
	if err := cl.call(Op(99), 0, nil, nil); err == nil || !strings.Contains(err.Error(), "unknown op 99") {
		t.Fatalf("unknown op: %v", err)
	}
	if err := cl.call(OpPing, 0, nil, nil); err != nil || cl.conn != conn {
		t.Fatalf("ping after an unknown op: err=%v, same connection=%v", err, cl.conn == conn)
	}
}

// sizedChunks returns n distinct blob leaves of size bytes each, and their ids.
func sizedChunks(n, size int) ([]*chunk.Chunk, []hash.Hash) {
	cs, ids := make([]*chunk.Chunk, n), make([]hash.Hash, n)
	for i := range cs {
		data := bytes.Repeat([]byte{byte(i), byte(i >> 8)}, size/2)
		cs[i] = chunk.New(chunk.TypeBlobLeaf, data)
		ids[i] = cs[i].ID()
	}
	return cs, ids
}

// bigChunks returns n chunks of the largest size the default chunker cuts.
func bigChunks(n int) ([]*chunk.Chunk, []hash.Hash) { return sizedChunks(n, 64<<10) }

// TestBatchLargerThanAFrame: a put batch over the frame cap travels as
// several frames, and a get batch whose answer overflows one comes back with
// a deferred tail the client asks for again; callers see one batch each way.
func TestBatchLargerThanAFrame(t *testing.T) {
	if testing.Short() {
		t.Skip("moves 2 × 37 MiB over loopback")
	}
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

	cs, ids := bigChunks(600) // 37.5 MiB against a 32 MiB cap
	fresh, err := rs.PutBatch(cs)
	if err != nil {
		t.Fatal(err)
	}
	for i, f := range fresh {
		if !f {
			t.Fatalf("chunk %d not reported fresh", i)
		}
	}
	ids[300] = hash.Of([]byte("absent, in the middle"))
	got, err := rs.GetBatch(ids)
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range got {
		if i == 300 {
			if c != nil {
				t.Fatal("absent id answered with a chunk")
			}
		} else if c == nil || c.ID() != cs[i].ID() || !bytes.Equal(c.Data(), cs[i].Data()) {
			t.Fatalf("slot %d: wrong chunk back", i)
		}
	}
	for _, op := range []string{"Commit", "GetChunks"} {
		if n, _ := reg.Value("forkbase_server_requests_total", op); n != 2 {
			t.Errorf("%s took %v frames, want 2", op, n)
		}
	}
}

// TestStalledReaderIsShed: a client that requests a large batch and then
// never reads must not park the serving goroutine (and its MaxConns slot) on
// the reply's write forever — ReadTimeout bounds that write too.
func TestStalledReaderIsShed(t *testing.T) {
	reg := obs.NewRegistry()
	st := store.NewMemStore()
	srv := New(st, core.NewMemBranchTable(), nil)
	srv.SetMetrics(reg)
	srv.SetLimits(Limits{ReadTimeout: 300 * time.Millisecond})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cs, ids := bigChunks(400) // a 25 MiB reply: more than loopback's socket buffers hold
	if _, err := st.PutBatch(cs); err != nil {
		t.Fatal(err)
	}
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write(frameOf(t, OpGetChunks, 0, 1, appendIDs(nil, ids...))); err != nil {
		t.Fatal(err)
	}
	// Never read.  The server must give up on the write and drop the slot.
	deadline := time.Now().Add(10 * time.Second)
	for {
		served, _ := reg.Value("forkbase_server_requests_total", "GetChunks")
		open, _ := reg.Value("forkbase_server_conns_open")
		if served == 1 && open == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("requests served=%v, conns_open=%v: the stalled reader still holds its connection", served, open)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestGetChunksRepliesOwnTheirBytes: a client reads every reply into one
// buffer it reuses, so a chunk it returned must not alias that buffer — else
// the next reply rewrites the chunk under its verified id.
func TestGetChunksRepliesOwnTheirBytes(t *testing.T) {
	srv, addr := startServer(t)
	cs, ids := sizedChunks(1024, 4<<10) // a 4 MiB reply
	if _, err := srv.st.PutBatch(cs); err != nil {
		t.Fatal(err)
	}
	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	got, err := cl.GetChunks(ids)
	if err != nil {
		t.Fatal(err)
	}
	// The same chunks in reverse: a reply of the same size, every chunk's
	// bytes where a different chunk's were.
	reversed := slices.Clone(ids)
	slices.Reverse(reversed)
	if _, err := cl.GetChunks(reversed); err != nil {
		t.Fatal(err)
	}
	for i, c := range got {
		if err := chunk.NewClaimed(c.Type(), c.Data(), ids[i]).Recheck(); err != nil || !bytes.Equal(c.Data(), cs[i].Data()) {
			t.Fatalf("chunk %d changed after the next reply: %v", i, err)
		}
	}
}

// TestClientReplyBufferIsBounded: a client keeps its reply buffer between
// exchanges, so replies of the common sizes allocate nothing, but not at the
// size one outsized reply grew it to: after a 16 MiB chunk and then a run of
// small batches it holds at most bufKeep.
func TestClientReplyBufferIsBounded(t *testing.T) {
	srv, addr := startServer(t)
	big := chunk.New(chunk.TypeBlobLeaf, bytes.Repeat([]byte{7}, chunk.MaxSize))
	small, ids := sizedChunks(16, 512)
	if _, err := srv.st.PutBatch(append(small, big)); err != nil {
		t.Fatal(err)
	}
	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if got, err := cl.GetChunks([]hash.Hash{big.ID()}); err != nil || len(got[0].Data()) != chunk.MaxSize {
		t.Fatalf("16 MiB fetch: %v", err)
	}
	for i := 0; i < 1000; i++ {
		if _, err := cl.GetChunks(ids); err != nil {
			t.Fatal(err)
		}
	}
	if got := cap(cl.rbuf); got > 4<<20 {
		t.Fatalf("client keeps a %d-byte reply buffer after small batches, want at most %d", got, 4<<20)
	}
}

// TestClientRequestBufferIsBounded: the request twin of the test above.  A
// client keeps the frame a request grew, so a second 1 MiB put builds its
// frame where the first did, but not at the size one outsized request grew
// it to: after a 16 MiB chunk it holds at most bufKeep.
func TestClientRequestBufferIsBounded(t *testing.T) {
	_, addr := startServer(t)
	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	rs := NewRemoteStore(cl)
	mib, _ := sizedChunks(2, 1<<20)
	if _, err := rs.PutBatch(mib[:1]); err != nil {
		t.Fatal(err)
	}
	if got := cap(cl.wbuf); got < 1<<20 {
		t.Fatalf("after a 1 MiB put the client keeps a %d-byte request buffer", got)
	}
	frame := &cl.wbuf[:1][0]
	if _, err := rs.PutBatch(mib[1:]); err != nil {
		t.Fatal(err)
	}
	if &cl.wbuf[:1][0] != frame {
		t.Fatal("a second 1 MiB put allocated a new request frame")
	}
	big := chunk.New(chunk.TypeBlobLeaf, bytes.Repeat([]byte{7}, chunk.MaxSize))
	if _, err := rs.PutBatch([]*chunk.Chunk{big}); err != nil {
		t.Fatal(err)
	}
	if got := cap(cl.wbuf); got > 4<<20 {
		t.Fatalf("client keeps a %d-byte request buffer after a 16 MiB put, want at most %d", got, 4<<20)
	}
}

// TestCloseLandsStagedChunks: a put made while an engine write is staging
// is reported fresh before it reaches the server; a Close before the write
// ends lands it, so an acked put is not lost with the connection.
func TestCloseLandsStagedChunks(t *testing.T) {
	srv, addr := startServer(t)
	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	rs := NewRemoteStore(cl)
	done := rs.Stage()
	a := chunk.New(chunk.TypeBlobLeaf, []byte("staged"))
	if fresh, err := rs.PutBatch([]*chunk.Chunk{a}); err != nil || !fresh[0] {
		t.Fatalf("staged put = %v, %v", fresh, err)
	}
	if has, _ := srv.st.Has(a.ID()); has {
		t.Fatal("a staged chunk reached the server before a request carried it")
	}
	if err := cl.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	done()
	if has, err := srv.st.Has(a.ID()); err != nil || !has {
		t.Fatalf("server has the staged chunk after Close = %v, %v; want true", has, err)
	}
}

// hasRecorder records the ids of every HasBatch its store answers.
type hasRecorder struct {
	store.Store
	mu   sync.Mutex
	asks [][]hash.Hash
}

func (r *hasRecorder) HasBatch(ids []hash.Hash) ([]bool, error) {
	r.mu.Lock()
	r.asks = append(r.asks, slices.Clone(ids))
	r.mu.Unlock()
	return r.Store.HasBatch(ids)
}

// TestHasBatchAnswersStagedIDs: inside a write, a presence check answers
// the ids staging holds itself and asks the server, in one HasChunks
// request, about the others only; with every id staged it sends nothing.
func TestHasBatchAnswersStagedIDs(t *testing.T) {
	st := &hasRecorder{Store: store.NewMemStore()}
	srv := New(st, core.NewMemBranchTable(), nil)
	reg := obs.NewRegistry()
	srv.SetMetrics(reg)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	rs := NewRemoteStore(cl)
	staged, held, absent := chunk.New(chunk.TypeBlobLeaf, []byte("staged")),
		chunk.New(chunk.TypeBlobLeaf, []byte("held")), chunk.New(chunk.TypeBlobLeaf, []byte("absent"))
	if _, err := st.Put(held); err != nil {
		t.Fatal(err)
	}
	asked := func() float64 { n, _ := reg.Value("forkbase_server_requests_total", "HasChunks"); return n }

	done := rs.Stage()
	defer done()
	if _, err := rs.Put(staged); err != nil {
		t.Fatal(err)
	}
	has, err := rs.HasBatch([]hash.Hash{staged.ID(), held.ID(), absent.ID()})
	if err != nil || !slices.Equal(has, []bool{true, true, false}) {
		t.Fatalf("HasBatch(staged, held, absent) = %v, %v; want [true true false]", has, err)
	}
	if n := asked(); n != 1 || len(st.asks) != 1 || !slices.Equal(st.asks[0], []hash.Hash{held.ID(), absent.ID()}) {
		t.Fatalf("%v HasChunks requests asking the server's store %v; want one asking [held absent]", n, st.asks)
	}
	if has, err := rs.HasBatch([]hash.Hash{staged.ID(), staged.ID()}); err != nil || !slices.Equal(has, []bool{true, true}) {
		t.Fatalf("HasBatch(staged, staged) = %v, %v; want [true true]", has, err)
	}
	if n := asked(); n != 1 {
		t.Fatalf("a presence check of staged ids alone sent a request (%v HasChunks in all)", n)
	}
}

// getRecorder records the ids of every GetBatch its store answers.
type getRecorder struct {
	store.Store
	mu   sync.Mutex
	asks [][]hash.Hash
}

func (r *getRecorder) GetBatch(ids []hash.Hash) ([]*chunk.Chunk, error) {
	r.mu.Lock()
	r.asks = append(r.asks, slices.Clone(ids))
	r.mu.Unlock()
	return r.Store.GetBatch(ids)
}

// TestGetChunksAnswersStagedIDs: inside a write, a batch read answers the
// ids staging holds with the staged chunks and asks the server, in one
// GetChunks request, for the others only; with every id staged it sends
// nothing.
func TestGetChunksAnswersStagedIDs(t *testing.T) {
	st := &getRecorder{Store: store.NewMemStore()}
	srv := New(st, core.NewMemBranchTable(), nil)
	reg := obs.NewRegistry()
	srv.SetMetrics(reg)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	staged, held, absent := chunk.New(chunk.TypeBlobLeaf, []byte("staged")),
		chunk.New(chunk.TypeBlobLeaf, []byte("held")), chunk.New(chunk.TypeBlobLeaf, []byte("absent"))
	if _, err := st.Put(held); err != nil {
		t.Fatal(err)
	}
	asked := func() float64 { n, _ := reg.Value("forkbase_server_requests_total", "GetChunks"); return n }

	done := cl.Stage()
	defer done()
	if _, err := cl.Put(staged); err != nil {
		t.Fatal(err)
	}
	got, err := cl.GetChunks([]hash.Hash{staged.ID(), held.ID(), absent.ID()})
	if err != nil || len(got) != 3 || got[0] != staged || got[1] == nil || got[1].ID() != held.ID() || got[2] != nil {
		t.Fatalf("GetChunks(staged, held, absent) = %v, %v; want [the staged chunk, the server's, nil]", got, err)
	}
	if n := asked(); n != 1 || len(st.asks) != 1 || !slices.Equal(st.asks[0], []hash.Hash{held.ID(), absent.ID()}) {
		t.Fatalf("%v GetChunks requests asking the server's store %v; want one asking [held absent]", n, st.asks)
	}
	if got, err := cl.GetChunks([]hash.Hash{staged.ID(), staged.ID()}); err != nil || len(got) != 2 || got[0] != staged || got[1] != staged {
		t.Fatalf("GetChunks(staged, staged) = %v, %v; want the staged chunk twice", got, err)
	}
	if n := asked(); n != 1 {
		t.Fatalf("a read of staged ids alone sent a request (%v GetChunks in all)", n)
	}
}

// TestStagingRestagesUnderALaterEpoch: a parent chunk a stale build staged
// under epoch 1 is staged again, at the tail, when a build under epoch 2
// puts it after re-putting its child.  A take that has room for one chunk
// carries the child first, so no request carries the parent ahead of the
// child that makes it complete; a request in flight with the old copy
// retires only that copy; a second put under the same epoch changes
// nothing.
func TestStagingRestagesUnderALaterEpoch(t *testing.T) {
	var s staging
	s.active = 1
	stale, child, fresh := chunk.New(chunk.TypeBlobLeaf, []byte("parent")),
		chunk.New(chunk.TypeBlobLeaf, []byte("child")), chunk.New(chunk.TypeBlobLeaf, []byte("parent"))
	s.hold([]*chunk.Chunk{stale}, 1)
	_, inFlight := s.take(nil, chunkRoom(nil), true)
	s.hold([]*chunk.Chunk{child, fresh}, 2)
	s.hold([]*chunk.Chunk{child, fresh}, 2)
	if want := putWireSize(child) + putWireSize(fresh); s.pending() != want {
		t.Fatalf("staged %d bytes, want %d: the child and one copy of the parent", s.pending(), want)
	}
	if cs, _ := s.take(nil, 1, true); len(cs) != 1 || cs[0] != child {
		t.Fatalf("a one-chunk take = %v, want the child", cs)
	}
	s.drop(inFlight)
	if cs, _ := s.take(nil, chunkRoom(nil), true); len(cs) != 2 || cs[0] != child || cs[1] != fresh {
		t.Fatalf("staged after the old copy's drop = %v, want [child, the new copy of the parent]", cs)
	}
	if want := putWireSize(child) + putWireSize(fresh); s.pending() != want {
		t.Fatalf("staged %d bytes after the old copy's drop, want %d", s.pending(), want)
	}
}

// TestGetChunksReplyAllocatesNoPayload: the server answers a batch get from
// the stored chunks' own bytes, so what it allocates per reply depends on the
// number of ids, not on the bytes it ships.
func TestGetChunksReplyAllocatesNoPayload(t *testing.T) {
	st := store.NewMemStore()
	srv := New(st, core.NewMemBranchTable(), nil)
	out := make([]byte, 0, 64<<10)
	perReply := func(size int) uint64 {
		cs, ids := sizedChunks(256, size)
		if _, err := st.PutBatch(cs); err != nil {
			t.Fatal(err)
		}
		req := appendIDs(nil, ids...)
		h := header{op: OpGetChunks, n: len(req)}
		const runs = 20
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			_, parts, err := srv.handle(h, req, appendHeader(out, h.op, 0, h.id))
			if err == nil {
				err = finishFrame(parts...)
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		return (after.TotalAlloc - before.TotalAlloc) / runs
	}
	small, large := perReply(256), perReply(16<<10) // 64 KiB and 4 MiB of chunk bytes
	t.Logf("bytes allocated per reply: %d shipping 64 KiB, %d shipping 4 MiB", small, large)
	if large > small+4<<10 {
		t.Errorf("a 4 MiB reply allocated %d bytes, a 64 KiB one %d: the reply copies its payload", large, small)
	}
}

// goldenFrames is the pinned output of wireFrames, in order.
var goldenFrames = []struct{ name, wantHex string }{
	{"Ping/request", "fb070b00000000000000000000000001"},
	{"Ping/reply", "fb070b00000000000000000000000001"},
	{"Commit-put-one/request", "fb07120000000026000000000000000201e3254ea61c09ead5a01d3bf07e946a561c6c2cd1c46b8ca1bfa8729d26a7d09f0101016100"},
	{"Commit-put-one/reply", "fb0712000000000500000000000000020101010107"},
	{"Commit-put/request", "fb0712000000004a000000000000000302e3254ea61c09ead5a01d3bf07e946a561c6c2cd1c46b8ca1bfa8729d26a7d09f074a381eefaafb3c9d63676d586dd16d9c9aae2f563894e9074a58820724213b020101610202626200"},
	{"Commit-put/reply", "fb071200000000060000000000000003020001010107"},
	{"Commit-empty/request", "fb071200000000030000000000000004000000"},
	{"Commit-empty/reply", "fb07120000000004000000000000000400010107"},
	{"Commit-put-collected/request", "fb0712000000004d000000000000000501871f2f03cc6327491e40600ae5ebc5102b44ec33d52ceac25c035e2a3a4bac02010628016b0201283bb9deef02e6843abfb538efa1eca70801bd8a701c3f98191e1234963392470201780000"},
	{"Commit-put-collected/reply", "fb071201000000860000000000000005636f72653a2076616c75652070726564617465732061206761726261676520636f6c6c656374696f6e3b2072656275696c64206f722072656c6f61642069743a2074686520636f6d6d6974206e616d6573204641353354585850414c2c20776869636820697420646f6573206e6f7420636172727920616e64206120737765657020746f6f6b"},
	{"GetChunks-one/request", "fb070d0000000021000000000000000601e3254ea61c09ead5a01d3bf07e946a561c6c2cd1c46b8ca1bfa8729d26a7d09f"},
	{"GetChunks-one/reply", "fb070d00000000060000000000000006010101010161"},
	{"GetChunks-one-absent/request", "fb070d0000000021000000000000000701283bb9deef02e6843abfb538efa1eca70801bd8a701c3f98191e123496339247"},
	{"GetChunks-one-absent/reply", "fb070d00000000030000000000000007010000"},
	{"GetChunks/request", "fb070d0000000061000000000000000803074a381eefaafb3c9d63676d586dd16d9c9aae2f563894e9074a58820724213b283bb9deef02e6843abfb538efa1eca70801bd8a701c3f98191e123496339247e3254ea61c09ead5a01d3bf07e946a561c6c2cd1c46b8ca1bfa8729d26a7d09f"},
	{"GetChunks/reply", "fb070d000000000c0000000000000008030100010202026262010161"},
	{"HasChunks-one/request", "fb070e0000000021000000000000000901e3254ea61c09ead5a01d3bf07e946a561c6c2cd1c46b8ca1bfa8729d26a7d09f"},
	{"HasChunks-one/reply", "fb070e000000000200000000000000090101"},
	{"HasChunks/request", "fb070e0000000041000000000000000a02283bb9deef02e6843abfb538efa1eca70801bd8a701c3f98191e123496339247074a381eefaafb3c9d63676d586dd16d9c9aae2f563894e9074a58820724213b"},
	{"HasChunks/reply", "fb070e0000000003000000000000000a020001"},
	{"Stats/request", "fb07040000000000000000000000000b"},
	{"Stats/reply", "fb07040000000005000000000000000b040a0e020a"},
	{"Commit/request", "fb0712000000004e000000000000000c000001016b066d61737465720000000000000000000000000000000000000000000000000000000000000000003bfc269594ef649228e9a74bab00f042efc91d5acc6fbee31a382e80d42388fe07"},
	{"Commit/reply", "fb07120000000004000000000000000c00010107"},
	{"Commit-chunks/request", "fb07120000000095000000000000000d02e3254ea61c09ead5a01d3bf07e946a561c6c2cd1c46b8ca1bfa8729d26a7d09f074a381eefaafb3c9d63676d586dd16d9c9aae2f563894e9074a58820724213b0201016102026262010163066d6173746572000000000000000000000000000000000000000000000000000000000000000000074a381eefaafb3c9d63676d586dd16d9c9aae2f563894e9074a58820724213b07"},
	{"Commit-chunks/reply", "fb07120000000006000000000000000d020000010107"},
	{"Commit-stale/request", "fb0712000000004e000000000000000e000001016b066d6173746572000000000000000000000000000000000000000000000000000000000000000000fb04dcb6970e4c3d1873de51fd5a50d7bb46b3383113602665c350ec40b5f99000"},
	{"Commit-stale/reply", "fb07120000000004000000000000000e00010007"},
	{"Head/request", "fb07050000000009000000000000000f016b066d6173746572"},
	{"Head/reply", "fb07050000000022000000000000000f013bfc269594ef649228e9a74bab00f042efc91d5acc6fbee31a382e80d42388fe07"},
	{"Head-absent/request", "fb070500000000070000000000000010016b046e6f7065"},
	{"Head-absent/reply", "fb0705000000000200000000000000100007"},
	{"Commit-rename/request", "fb071200000000970000000000000011000002016b066d6173746572003bfc269594ef649228e9a74bab00f042efc91d5acc6fbee31a382e80d42388fe000000000000000000000000000000000000000000000000000000000000000000016b046d61696e0000000000000000000000000000000000000000000000000000000000000000003bfc269594ef649228e9a74bab00f042efc91d5acc6fbee31a382e80d42388fe00"},
	{"Commit-rename/reply", "fb07120000000004000000000000001100010107"},
	{"Branches/request", "fb070900000000030000000000000012016b00"},
	{"Branches/reply", "fb07090000000027000000000000001201046d61696e013bfc269594ef649228e9a74bab00f042efc91d5acc6fbee31a382e80d42388fe"},
	{"Keys/request", "fb070a00000000000000000000000013"},
	{"Keys/reply", "fb070a00000000050000000000000013020163016b"},
	{"Heads/request", "fb07100000000001000000000000001400"},
	{"Heads/reply", "fb071000000000540000000000000014040163066d6173746572016b046d61696e02074a381eefaafb3c9d63676d586dd16d9c9aae2f563894e9074a58820724213b3bfc269594ef649228e9a74bab00f042efc91d5acc6fbee31a382e80d42388fe0100"},
	{"Heads-after/request", "fb071000000000030000000000000015026b00"},
	{"Heads-after/reply", "fb07100000000004000000000000001500000100"},
	{"Commit-delete/request", "fb0712000000004c0000000000000016000001016b046d61696e010000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000"},
	{"Commit-delete/reply", "fb07120000000004000000000000001600010107"},
	{"Commit-error/request", "fb0712000000004b000000000000001700000100046d61696e0000000000000000000000000000000000000000000000000000000000000000003bfc269594ef649228e9a74bab00f042efc91d5acc6fbee31a382e80d42388fe00"},
	{"Commit-error/reply", "fb071201000000540000000000000017636f72653a206865616420222240226d61696e223a2061206b6579206d757374206265203120746f20363535333520627974657320616e642061206272616e6368206e616d65206174206d6f7374203635353335"},
	{"Commit-collected/request", "fb0712000000004c0000000000000018000001016b046d61696e0000000000000000000000000000000000000000000000000000000000000000003bfc269594ef649228e9a74bab00f042efc91d5acc6fbee31a382e80d42388fe06"},
	{"Commit-collected/reply", "fb071201000000860000000000000018636f72653a2076616c75652070726564617465732061206761726261676520636f6c6c656374696f6e3b2072656275696c64206f722072656c6f61642069743a2074686520636f6d6d6974206e616d657320485036434e464d5535352c20776869636820697420646f6573206e6f7420636172727920616e64206120737765657020746f6f6b"},
	{"FeedSince/request", "fb070f000000000500000000000000190903072001"},
	{"FeedSince/reply", "fb070f000000004c00000000000000170507010105016b046d61696e3bfc269594ef649228e9a74bab00f042efc91d5acc6fbee31a382e80d42388fefb04dcb6970e4c3d1873de51fd5a50d7bb46b3383113602665c350ec40b5f990"},
	{"Heads-more/reply", "fb0710000000004f000000000000001904016b046d61696e016b0178023bfc269594ef649228e9a74bab00f042efc91d5acc6fbee31a382e80d42388fefb04dcb6970e4c3d1873de51fd5a50d7bb46b3383113602665c350ec40b5f9900101"},
	{"GetChunks-deferred/reply", "fb070d00000000090000000000000018040100020201010161"},
}
