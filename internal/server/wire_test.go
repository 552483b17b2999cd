package server

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"io"
	"net"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"forkbase/internal/chunk"
	"forkbase/internal/core"
	"forkbase/internal/hash"
	"forkbase/internal/obs"
	"forkbase/internal/store"
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
	b, err := finishFrame(append(appendHeader(nil, op, flags, id), payload...))
	if err != nil {
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
	srv := New(store.NewMemStore(), core.NewMemBranchTable(), nil)
	srv.AttachFeed(core.NewFeed(0))
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
	record("PutChunks-one", false, func() error { _, err := rs.Put(a); return err })
	record("PutChunks", false, func() error { _, err := rs.PutBatch([]*chunk.Chunk{a, b}); return err })
	record("PutChunks-empty", false, func() error { _, err := cl.putChunks(nil); return err })
	record("GetChunks-one", false, func() error { _, err := rs.Get(a.ID()); return err })
	record("GetChunks-one-absent", true, func() error { _, err := rs.Get(gone); return err })
	record("GetChunks", false, func() error { _, err := rs.GetBatch([]hash.Hash{b.ID(), gone, a.ID()}); return err })
	record("HasChunks-one", false, func() error { _, err := rs.Has(a.ID()); return err })
	record("HasChunks", false, func() error { _, err := rs.HasBatch([]hash.Hash{gone, b.ID()}); return err })
	record("Stats", false, func() error { rs.Stats(); return nil })
	apply := func(ops ...core.HeadOp) func() error {
		return func() error { _, err := bt.Apply(ops); return err }
	}
	record("Apply", false, apply(core.HeadOp{Key: "k", Branch: "master", Set: v1}))
	record("Apply-stale", false, apply(core.HeadOp{Key: "k", Branch: "master", Set: v2}))
	record("Head", false, func() error { _, _, err := bt.Head("k", "master"); return err })
	record("Head-absent", false, func() error { _, _, err := bt.Head("k", "nope"); return err })
	record("Apply-rename", false, apply(core.HeadOp{Key: "k", Branch: "master", Expect: v1}, core.HeadOp{Key: "k", Branch: "main", Set: v1}))
	record("Branches", false, func() error { _, err := bt.Branches("k"); return err })
	record("Keys", false, func() error { _, err := bt.Keys(); return err })
	record("Heads", false, func() error { _, err := cl.Heads(); return err })
	record("Heads-after", false, func() error {
		return cl.call(OpHeads, 0, func(b []byte) []byte { return appendStr(b, "k\x00") },
			func(d *dec) { d.strs(); d.ids(); d.bools(1) })
	})
	record("Apply-delete", false, apply(core.HeadOp{Key: "k", Branch: "main", Any: true}))
	record("Apply-error", true, apply(core.HeadOp{Branch: "main", Set: v1}))
	// A feed's epoch is its start time, so only the request is recorded and
	// the reply is assembled with a fixed one.
	if _, _, _, err := cl.FeedSince(9, core.FeedCursor{Epoch: 7, Seq: 3}, 16, time.Millisecond); err != nil {
		t.Fatal(err)
	}
	req, _ := tp.take()
	return append(rows,
		namedFrame{"FeedSince/request", req},
		namedFrame{"FeedSince/reply", frameOf(t, OpFeedSince, 0, 22, appendFeedPage(nil, core.FeedCursor{Epoch: 7, Seq: 5},
			true, []core.FeedEntry{{Seq: 5, Key: "k", Branch: "main", Old: v1, New: v2}}))},
		// A page that stops before a key that did not fit.
		namedFrame{"Heads-more/reply", frameOf(t, OpHeads, 0, 24,
			appendFlags(appendIDs(appendStrs(nil, []string{"k", "main", "k", "x"}), v1, v2), true))},
		// Four slots against a limit that fits one chunk: a deferred tail.
		namedFrame{"GetChunks-deferred/reply", frameOf(t, OpGetChunks, 0, 23,
			appendChunkReply(nil, []*chunk.Chunk{a, nil, b, a}, 16))},
	)
}

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
			_, _ = srv.handle(h, payload, nil)
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
		n, _ := binary.Uvarint(d.b)
		return int(min(n, uint64(len(d.b))))
	}
	shapes := map[string]func(d *dec) []byte{
		"ids":   func(d *dec) []byte { return appendIDs(nil, d.ids()...) },
		"flags": func(d *dec) []byte { return appendFlags(nil, d.bools(asked(d))...) },
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
		"put": func(d *dec) []byte {
			ids := d.ids()
			return appendChunks(appendIDs(nil, ids...), d.chunks(ids))
		},
		"chunkreply": func(d *dec) []byte {
			out := make([]*chunk.Chunk, asked(d))
			answered := d.chunkReply(make([]hash.Hash, len(out)), out)
			return appendChunkReply(nil, out[:answered], MaxPayload)
		},
	}
	for name, roundTrip := range shapes {
		d := dec{b: p}
		enc := roundTrip(&d)
		if d.done() != nil {
			continue
		}
		d2 := dec{b: enc}
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
		{"payload_len 4 GiB", hdr(frameMagic, frameVersion, byte(OpPutChunks), 0, 0xFFFFFFFF)},
		{"bad magic", hdr('G', frameVersion, byte(OpPing), 0, 0)},
		{"bad version", hdr(frameMagic, frameVersion+1, byte(OpPing), 0, 0)},
		{"unknown flag", hdr(frameMagic, frameVersion, byte(OpPing), 0x80, 0)},
		{"gob stream", []byte("\x1f\xff\x81\x03\x01\x01\x07Request\x01\xff\x82\x00\x01\x0e\x01")},
		{"truncated header", hdr(frameMagic, frameVersion, byte(OpPing), 0, 0)[:7]},
		{"truncated payload", append(hdr(frameMagic, frameVersion, byte(OpHead), 0, 100), "short"...)},
		{"payload_len at the cap, no payload", hdr(frameMagic, frameVersion, byte(OpPutChunks), 0, MaxPayload)},
		{"count beyond the payload", frameOf(t, OpGetChunks, 0, 9, appendUvarint(nil, 1<<40))},
		{"chunk longer than the payload", frameOf(t, OpPutChunks, 0, 9,
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
	for _, op := range []string{"PutChunks", "GetChunks"} {
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

// goldenFrames is the pinned output of wireFrames, in order.
var goldenFrames = []struct{ name, wantHex string }{
	{"Ping/request", "fb040b00000000000000000000000001"},
	{"Ping/reply", "fb040b00000000000000000000000001"},
	{"PutChunks-one/request", "fb040c0000000025000000000000000201e3254ea61c09ead5a01d3bf07e946a561c6c2cd1c46b8ca1bfa8729d26a7d09f01010161"},
	{"PutChunks-one/reply", "fb040c000000000200000000000000020101"},
	{"PutChunks/request", "fb040c0000000049000000000000000302e3254ea61c09ead5a01d3bf07e946a561c6c2cd1c46b8ca1bfa8729d26a7d09f074a381eefaafb3c9d63676d586dd16d9c9aae2f563894e9074a58820724213b0201016102026262"},
	{"PutChunks/reply", "fb040c00000000030000000000000003020001"},
	{"PutChunks-empty/request", "fb040c000000000200000000000000040000"},
	{"PutChunks-empty/reply", "fb040c0000000001000000000000000400"},
	{"GetChunks-one/request", "fb040d0000000021000000000000000501e3254ea61c09ead5a01d3bf07e946a561c6c2cd1c46b8ca1bfa8729d26a7d09f"},
	{"GetChunks-one/reply", "fb040d00000000060000000000000005010101010161"},
	{"GetChunks-one-absent/request", "fb040d0000000021000000000000000601283bb9deef02e6843abfb538efa1eca70801bd8a701c3f98191e123496339247"},
	{"GetChunks-one-absent/reply", "fb040d00000000030000000000000006010000"},
	{"GetChunks/request", "fb040d0000000061000000000000000703074a381eefaafb3c9d63676d586dd16d9c9aae2f563894e9074a58820724213b283bb9deef02e6843abfb538efa1eca70801bd8a701c3f98191e123496339247e3254ea61c09ead5a01d3bf07e946a561c6c2cd1c46b8ca1bfa8729d26a7d09f"},
	{"GetChunks/reply", "fb040d000000000c0000000000000007030100010202026262010161"},
	{"HasChunks-one/request", "fb040e0000000021000000000000000801e3254ea61c09ead5a01d3bf07e946a561c6c2cd1c46b8ca1bfa8729d26a7d09f"},
	{"HasChunks-one/reply", "fb040e000000000200000000000000080101"},
	{"HasChunks/request", "fb040e0000000041000000000000000902283bb9deef02e6843abfb538efa1eca70801bd8a701c3f98191e123496339247074a381eefaafb3c9d63676d586dd16d9c9aae2f563894e9074a58820724213b"},
	{"HasChunks/reply", "fb040e00000000030000000000000009020001"},
	{"Stats/request", "fb04040000000000000000000000000a"},
	{"Stats/reply", "fb04040000000005000000000000000a040a0e020a"},
	{"Apply/request", "fb0406000000004b000000000000000b01016b066d61737465720000000000000000000000000000000000000000000000000000000000000000003bfc269594ef649228e9a74bab00f042efc91d5acc6fbee31a382e80d42388fe"},
	{"Apply/reply", "fb04060000000002000000000000000b0101"},
	{"Apply-stale/request", "fb0406000000004b000000000000000c01016b066d6173746572000000000000000000000000000000000000000000000000000000000000000000fb04dcb6970e4c3d1873de51fd5a50d7bb46b3383113602665c350ec40b5f990"},
	{"Apply-stale/reply", "fb04060000000002000000000000000c0100"},
	{"Head/request", "fb04050000000009000000000000000d016b066d6173746572"},
	{"Head/reply", "fb04050000000021000000000000000d013bfc269594ef649228e9a74bab00f042efc91d5acc6fbee31a382e80d42388fe"},
	{"Head-absent/request", "fb04050000000007000000000000000e016b046e6f7065"},
	{"Head-absent/reply", "fb04050000000001000000000000000e00"},
	{"Apply-rename/request", "fb04060000000093000000000000000f02016b066d6173746572003bfc269594ef649228e9a74bab00f042efc91d5acc6fbee31a382e80d42388fe0000000000000000000000000000000000000000000000000000000000000000016b046d61696e0000000000000000000000000000000000000000000000000000000000000000003bfc269594ef649228e9a74bab00f042efc91d5acc6fbee31a382e80d42388fe"},
	{"Apply-rename/reply", "fb04060000000002000000000000000f0101"},
	{"Branches/request", "fb040900000000030000000000000010016b00"},
	{"Branches/reply", "fb04090000000027000000000000001001046d61696e013bfc269594ef649228e9a74bab00f042efc91d5acc6fbee31a382e80d42388fe"},
	{"Keys/request", "fb040a00000000000000000000000011"},
	{"Keys/reply", "fb040a0000000003000000000000001101016b"},
	{"Heads/request", "fb04100000000001000000000000001200"},
	{"Heads/reply", "fb0410000000002b000000000000001202016b046d61696e013bfc269594ef649228e9a74bab00f042efc91d5acc6fbee31a382e80d42388fe0100"},
	{"Heads-after/request", "fb041000000000030000000000000013026b00"},
	{"Heads-after/reply", "fb04100000000004000000000000001300000100"},
	{"Apply-delete/request", "fb04060000000049000000000000001401016b046d61696e0100000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000"},
	{"Apply-delete/reply", "fb0406000000000200000000000000140101"},
	{"Apply-error/request", "fb0406000000004800000000000000150100046d61696e0000000000000000000000000000000000000000000000000000000000000000003bfc269594ef649228e9a74bab00f042efc91d5acc6fbee31a382e80d42388fe"},
	{"Apply-error/reply", "fb040601000000540000000000000015636f72653a206865616420222240226d61696e223a2061206b6579206d757374206265203120746f20363535333520627974657320616e642061206272616e6368206e616d65206174206d6f7374203635353335"},
	{"FeedSince/request", "fb040f000000000500000000000000160903072001"},
	{"FeedSince/reply", "fb040f000000004c00000000000000160507010105016b046d61696e3bfc269594ef649228e9a74bab00f042efc91d5acc6fbee31a382e80d42388fefb04dcb6970e4c3d1873de51fd5a50d7bb46b3383113602665c350ec40b5f990"},
	{"Heads-more/reply", "fb0410000000004f000000000000001804016b046d61696e016b0178023bfc269594ef649228e9a74bab00f042efc91d5acc6fbee31a382e80d42388fefb04dcb6970e4c3d1873de51fd5a50d7bb46b3383113602665c350ec40b5f9900101"},
	{"GetChunks-deferred/reply", "fb040d00000000090000000000000017040100020201010161"},
}
