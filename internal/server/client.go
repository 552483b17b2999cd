package server

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"forkbase/internal/chunk"
	"forkbase/internal/core"
	"forkbase/internal/hash"
	"forkbase/internal/obs"
	"forkbase/internal/retry"
	"forkbase/internal/store"
)

// ambiguousTotal counts non-idempotent requests whose outcome the client
// could not determine (transport failure after bytes reached the wire).
// Each is a potential silent divergence the caller had to probe for, so
// the count is worth alerting on.
var ambiguousTotal = obs.Default().Counter("forkbase_client_ambiguous_total",
	"Non-idempotent client requests with unknown outcome after a transport failure.")

// ClientOptions tune a Client's failure behavior.  The zero value selects
// the defaults below.
type ClientOptions struct {
	// DialTimeout bounds each (re)connection attempt (default 5s).
	DialTimeout time.Duration
	// OpTimeout bounds one request-response attempt: the write deadline
	// covers sending the request frame, the read deadline receiving the
	// reply (plus the long-poll budget for feed reads).  A stalled server or
	// a chaos mid-frame truncation surfaces as a timeout instead of hanging
	// the caller forever (default 10s).
	OpTimeout time.Duration
	// Retry is the transport-failure policy: failed attempts reconnect
	// with exponential backoff.  Retry.Timeout is ignored (OpTimeout is
	// authoritative).  Non-idempotent ops are never blindly re-sent; see
	// attempt.
	Retry retry.Policy
}

func (o *ClientOptions) fill() {
	if o.DialTimeout <= 0 {
		o.DialTimeout = 5 * time.Second
	}
	if o.OpTimeout <= 0 {
		o.OpTimeout = 10 * time.Second
	}
	// Zero Attempts and Base take retry.Policy's own defaults; the cap is
	// tighter than retry.DefaultMax.
	if o.Retry.Max <= 0 {
		o.Retry.Max = time.Second
	}
}

// Client is a connection to one ForkBase server, and the chunk store and
// branch table a Remote engine runs over.  Requests are serialised over a
// single TCP connection guarded by a mutex; every attempt runs under
// explicit read/write deadlines, and transport failures reconnect with
// backoff under the client's retry policy.
//
// Idempotency contract: reads (Get/Has/GetBatch/feed/heads) are retried
// freely.  The one mutation, a Commit (which every chunk put travels in), is
// re-sent only when the failed attempt's one Write provably put zero bytes
// of the request frame on the wire — otherwise the server may have executed
// it, and the ambiguous error is surfaced to the caller (who owns the
// op-level recovery; see Apply for the head probe).  A commit executed
// twice is a lost-update bug, and a put executed twice skews freshness
// accounting.
type Client struct {
	addr string
	opts ClientOptions

	// turn is held for a whole exchange.  A channel, not a mutex: blocked
	// senders take it in arrival order, so a short request queued behind a
	// follower's long poll goes next instead of losing to the poll after it.
	turn   chan struct{}
	conn   net.Conn // written holding turn and closeMu both
	br     *bufio.Reader
	wbuf   []byte // every request frame; kept unless a request grew it past bufKeep
	rbuf   []byte // every reply payload; kept unless a reply grew it past bufKeep
	lastID uint64 // request id of the latest frame sent

	stage staging // the chunks engine writes put, until a Commit carries them
	// epoch is the highest collection epoch a Head or Commit reply carried
	// (0: none yet).
	epoch atomic.Uint64
	// seen is what the paper says users keep: the last head this client saw
	// of each branch, from Head replies and the ops it applied (LastHead).
	seen seenHeads

	// Close takes closeMu, which guards closed, never turn, so it does not
	// wait out an exchange: it cancels ctx, which aborts dials and backoffs,
	// and closes conn, which fails a read or write in flight at once.
	closeMu sync.Mutex
	closed  bool
	ctx     context.Context
	cancel  context.CancelFunc
}

// errClientClosed is returned by every op after Close.
var errClientClosed = errors.New("client: closed")

// bufKeep is the largest request or reply buffer a client keeps between
// exchanges: above the ~2 MiB replies of a replica's 512-id fetch and the
// commits and puts of a few chunks, which then reuse it, and far below the
// MaxPayload one outsized frame grows it to.
const bufKeep = 4 << 20

// Dial connects to a server with default options and verifies liveness with
// a ping.
func Dial(addr string) (*Client, error) {
	return DialWithOptions(addr, ClientOptions{})
}

// DialWithOptions connects with explicit timeouts and retry policy.  The
// ping doubles as the protocol handshake: every frame header carries the
// version, and a server that does not speak it closes the connection.
func DialWithOptions(addr string, opts ClientOptions) (*Client, error) {
	opts.fill()
	c := &Client{addr: addr, opts: opts, turn: make(chan struct{}, 1),
		wbuf: make([]byte, 0, 64<<10), rbuf: make([]byte, 0, 4<<10)}
	c.ctx, c.cancel = context.WithCancel(context.Background())
	if err := c.call(OpPing, 0, nil, nil); err != nil {
		c.Close()
		return nil, err
	}
	return c, nil
}

// connectLocked dials and installs a fresh connection, unless Close came
// first.  Callers hold c.turn.  A dial error is transient, except one the
// address itself causes (a missing port, too many colons), which no redial
// can mend.
func (c *Client) connectLocked() error {
	d := net.Dialer{Timeout: c.opts.DialTimeout}
	conn, err := d.DialContext(c.ctx, "tcp", c.addr)
	if err != nil {
		err = fmt.Errorf("client: dial %s: %w", c.addr, err)
		var bad *net.AddrError
		if errors.As(err, &bad) {
			return retry.Permanent(err)
		}
		return err
	}
	c.closeMu.Lock()
	defer c.closeMu.Unlock()
	if c.closed {
		conn.Close()
		return retry.Permanent(errClientClosed)
	}
	c.conn = conn
	c.br = bufio.NewReader(conn)
	return nil
}

// teardownLocked discards a connection after a transport failure, so the
// next attempt redials instead of reading a stream that lost its framing.
// Callers hold c.turn.
func (c *Client) teardownLocked() {
	c.closeMu.Lock()
	defer c.closeMu.Unlock()
	if c.conn != nil {
		c.conn.Close()
	}
	c.conn, c.br = nil, nil
}

// ErrAmbiguous marks a transport failure after part of a non-idempotent
// request may have reached the server: the op may or may not have executed.
// Callers that can probe (re-read the head, re-check presence) should; see
// Client.Apply.
var ErrAmbiguous = errors.New("client: request outcome unknown")

// call performs one request-response exchange under the retry policy.
// build appends the request payload behind the frame header (nil: none);
// read decodes the reply payload (nil: none expected) and must copy out
// whatever it keeps: the payload is the connection's buffer, which the next
// exchange overwrites.  Both run under the connection lock and again on
// every retry.
// extraRead widens the read deadline for an op that legitimately idles on
// the server (a long-poll feed read).
func (c *Client) call(op Op, extraRead time.Duration, build func([]byte) []byte, read func(*dec)) error {
	return c.opts.Retry.Do(c.ctx.Done(), func() error { return c.attempt(op, extraRead, build, read) })
}

// attempt is one full exchange: (re)connect, send the request frame with
// one Write under a write deadline, receive the reply under a read deadline.
// Errors are classified for the retry loop: server-sent errors and ambiguous
// non-idempotent failures are permanent; everything else is transient and
// redials.
func (c *Client) attempt(op Op, extraRead time.Duration, build func([]byte) []byte, read func(*dec)) error {
	c.turn <- struct{}{}
	defer func() { <-c.turn }()
	if c.ctx.Err() != nil {
		return retry.Permanent(errClientClosed)
	}
	if c.conn == nil {
		if err := c.connectLocked(); err != nil {
			return err // unless malformed, the policy redials with backoff
		}
	}
	c.lastID++
	frame := appendHeader(c.wbuf, op, 0, c.lastID)
	if build != nil {
		frame = build(frame)
	}
	c.wbuf = frame[:0] // the next request of this size allocates nothing
	if cap(frame) > bufKeep {
		c.wbuf = make([]byte, 0, 64<<10)
	}
	if err := finishFrame(frame); err != nil {
		return retry.Permanent(err) // over the frame cap; nothing was sent
	}
	_ = c.conn.SetWriteDeadline(time.Now().Add(c.opts.OpTimeout))
	if n, err := c.conn.Write(frame); err != nil {
		c.teardownLocked()
		if n > 0 && op == OpCommit {
			ambiguousTotal.Inc()
			return retry.Permanent(fmt.Errorf("%w: send of %s interrupted after %s: %v",
				ErrAmbiguous, op, c.addr, err))
		}
		return fmt.Errorf("client: send %s: %w", op, err)
	}
	_ = c.conn.SetReadDeadline(time.Now().Add(c.opts.OpTimeout + extraRead))
	h, payload, err := readFrame(c.br, c.rbuf)
	if err == nil {
		c.rbuf = payload[:0] // the next reply of this size allocates nothing
		if cap(payload) > bufKeep {
			c.rbuf = make([]byte, 0, 4<<10)
		}
	}
	if err == nil && (h.id != c.lastID || h.op != op) {
		// The stream is out of step: a transport failure like any other.
		err = fmt.Errorf("reply to %s #%d does not answer %s #%d", h.op, h.id, op, c.lastID)
	}
	if err == nil && h.flags&flagError == 0 {
		d := newDec(payload)
		if read != nil {
			read(&d)
		}
		err = d.done()
	}
	if err != nil {
		c.teardownLocked()
		if op == OpCommit {
			// The request reached the wire whole; only the reply was lost.
			ambiguousTotal.Inc()
			return retry.Permanent(fmt.Errorf("%w: reply to %s lost from %s: %v",
				ErrAmbiguous, op, c.addr, err))
		}
		return fmt.Errorf("client: recv %s: %w", op, err)
	}
	if h.flags&flagError != 0 {
		// The server executed the request and refused it: retrying would
		// re-execute, and the answer would not change.
		return retry.Permanent(errors.New(string(payload)))
	}
	return nil
}

// MaxBlock is the worst-case wall clock one client op can spend before
// returning: every retry attempt paying a full dial plus its op timeout,
// plus all backoffs.  extra is any per-call read allowance (the long-poll
// budget of a feed read; 0 otherwise).  The chaos soak pins observed op
// latency against this bound.
func (c *Client) MaxBlock(extra time.Duration) time.Duration {
	p := c.opts.Retry
	p.Timeout = c.opts.DialTimeout + c.opts.OpTimeout + extra
	return p.MaxElapsed()
}

// Close shuts the connection.  Safe to call more than once; concurrent ops
// fail fast instead of waiting out their exchange or backoff.  Chunks still
// staged (put while a write was in flight and reported fresh, and carried
// by no commit that was answered) are landed first, as far as the server
// admits them; Close reports it if they could not be sent.
func (c *Client) Close() error {
	c.closeMu.Lock()
	closed := c.closed
	c.closeMu.Unlock()
	var err error
	if !closed && c.stage.pending() > 0 {
		if err = c.flush(); err != nil {
			err = fmt.Errorf("client: staged chunks not landed: %w", err)
		}
	}
	c.cancel()
	c.closeMu.Lock()
	defer c.closeMu.Unlock()
	if c.closed {
		return err
	}
	c.closed = true
	if c.conn == nil {
		return err
	}
	return errors.Join(err, c.conn.Close())
}

var (
	_ store.Store      = (*Client)(nil)
	_ store.Stager     = (*Client)(nil)
	_ core.BranchTable = (*Client)(nil)
)

// NewRemoteStore and NewRemoteBranchTable return c, for callers that name
// the client by its role: it is the chunk store and branch table it serves.
func NewRemoteStore(c *Client) *Client       { return c }
func NewRemoteBranchTable(c *Client) *Client { return c }

// stageLimit is the most staged chunk bytes a client holds: past it they
// are landed with a Commit of no head ops, so a build too large for one
// frame spills, and a commit's chunks leave half a frame to its head ops.
const stageLimit = MaxPayload / 2

// chunkRoom is what one Commit frame leaves its chunks beside ops.
func chunkRoom(ops []core.HeadOp) int { return MaxPayload - putShapeSize - headOpsWireSize(ops) }

// fill returns how many of cs, from the first, fit room bytes of a Commit
// frame: at least one if force.
func fill(cs []*chunk.Chunk, room int, force bool) int {
	size := 0
	for i, c := range cs {
		if size += putWireSize(c); size > room && (i > 0 || !force) {
			return i
		}
	}
	return len(cs)
}

// staging holds the chunks a client puts while engine writes are in flight
// until a Commit carries them: a write's, or one with no head ops once they
// pass stageLimit or when the last write ends.  Writes share it and build
// concurrently; with another write in flight a write's commit carries what
// its ops reach (take), so a stale write's chunks travel with its own
// commit and no sweep can take them first.  The server lands what is
// complete or what a fresh op reaches (core.FeedTable.Commit) and drops the
// rest without an error to whoever put it: the commit that publishes a
// chunk decides its fate.  A chunk read asks the server only for what
// staging does not hold.  A request takes its chunks oldest first while it
// holds the connection's turn, so nothing sent after it can overtake them,
// and they leave only once it was answered: a request that failed in
// transport leaves them for the next one.  A chunk put again under a later
// epoch than its staged copy's replaces it at the tail, behind the chunks
// its fresh build re-put first: a copy a stale build staged before a sweep
// never stands in for it.
type staging struct {
	mu     sync.Mutex
	active int                       // engine writes in flight
	queue  []stagedChunk             // held, oldest first, and those retired since the last take
	held   map[hash.Hash]stagedChunk // the staged chunks, by id
	size   int                       // their put wire size
}

// stagedChunk is a staged copy of a chunk: it and the client's epoch when
// it was put, which together tell a copy from one that replaced it.
type stagedChunk struct {
	*chunk.Chunk
	epoch uint64
}

// hold stages cs, put at epoch, if an engine write is in flight, and
// reports whether it did and whether the staged chunks have passed
// stageLimit.  A chunk staged already is staged again only under a later
// epoch.
func (s *staging) hold(cs []*chunk.Chunk, epoch uint64) (held, full bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.active == 0 {
		return false, false
	}
	if s.held == nil {
		s.held = make(map[hash.Hash]stagedChunk)
	}
	for _, c := range cs {
		old, ok := s.held[c.ID()]
		if ok && old.epoch >= epoch {
			continue
		}
		if !ok {
			s.size += putWireSize(c) // a copy replaced is the same size
		}
		e := stagedChunk{c, epoch}
		s.held[c.ID()], s.queue = e, append(s.queue, e)
	}
	return true, s.size > stageLimit
}

// take returns, oldest first, the staged chunks a Commit of ops carries
// that fill room bytes, and the copies they are: every staged chunk unless
// another write is in flight, and then what ops reach through staged
// chunks (core.Reach).
func (s *staging) take(ops []core.HeadOp, room int, force bool) (cs []*chunk.Chunk, taken []stagedChunk) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.queue = slices.DeleteFunc(s.queue, func(e stagedChunk) bool { return s.held[e.ID()] != e })
	cs = make([]*chunk.Chunk, len(s.queue))
	for i, e := range s.queue {
		cs[i] = e.Chunk
	}
	if len(ops) > 0 && s.active > 1 {
		if reached, err := core.Reach(cs, ops); err == nil { // else all: the server judges each
			cs = reached
		}
	}
	cs = cs[:fill(cs, room, force)]
	taken = make([]stagedChunk, len(cs))
	for i, c := range cs {
		taken[i] = s.held[c.ID()]
	}
	return cs, taken
}

// drop retires the staged copies taken, unless another request retired
// them first or a later put replaced them.
func (s *staging) drop(taken []stagedChunk) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, e := range taken {
		if s.held[e.ID()] == e {
			delete(s.held, e.ID())
			s.size -= putWireSize(e.Chunk)
		}
	}
}

// pending reports the staged chunks' put wire size (0: none is staged).
func (s *staging) pending() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.size
}

// lookup returns the staged chunk with each of ids, nil where staging holds
// none, or nil when nothing is staged.
func (s *staging) lookup(ids []hash.Hash) []*chunk.Chunk {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.held) == 0 {
		return nil
	}
	out := make([]*chunk.Chunk, len(ids))
	for i, id := range ids {
		out[i] = s.held[id].Chunk
	}
	return out
}

// Stage implements store.Stager: until done, chunks this client puts wait
// for a Commit (Apply) to carry them.  It never blocks: writes over one
// client build and commit concurrently, and the last one to end lands what
// no commit carried.
func (c *Client) Stage() (done func()) {
	s := &c.stage
	s.mu.Lock()
	s.active++
	s.mu.Unlock()
	return func() {
		s.mu.Lock()
		s.active--
		last := s.active == 0
		s.mu.Unlock()
		if last {
			_ = c.flush() // left by a write that failed before its commit; on failure the next request carries them
		}
	}
}

// flush lands the staged chunks with Commits of no head ops, as many
// frames as they need.  A chunk the server refuses is dropped with no
// error: the commit that publishes it decides its fate.
func (c *Client) flush() error {
	for c.stage.pending() > 0 {
		if _, err := c.commitStaged(nil, true); err != nil && !errors.Is(err, core.ErrCollected) {
			return err
		}
	}
	return nil
}

// commit is one Commit exchange: the chunks take returns under the
// connection's turn, so nothing sent after the request overtakes them, then
// ops.  It notes the epoch the reply carries and returns the server's fresh
// flags for the chunks and whether the ops applied.
func (c *Client) commit(ops []core.HeadOp, take func() []*chunk.Chunk) (fresh []bool, applied bool, err error) {
	var n int
	var ok []bool
	var epoch uint64
	err = c.call(OpCommit, 0, func(b []byte) []byte {
		cs := take()
		n = len(cs)
		return appendCommit(b, cs, ops)
	}, func(d *dec) { fresh, ok, epoch = d.bools(n), d.bools(1), d.Uvarint() })
	if err != nil {
		return nil, false, err
	}
	c.note(epoch)
	return fresh, ok[0], nil
}

// commitStaged is a Commit of ops carrying the staged chunks take picks.
// It retires them once the request is done with them: answered, refused by
// the server (which lands what its rule admits before it judges the ops,
// and would refuse the rest again) or never sent.  After a transport
// failure they stay staged; sent again, a chunk lands once.  The server's
// refusal of a stale op, or of a chunk in a commit of no ops, is
// core.ErrCollected.
func (c *Client) commitStaged(ops []core.HeadOp, force bool) (bool, error) {
	var taken []stagedChunk
	_, applied, err := c.commit(ops, func() (cs []*chunk.Chunk) {
		cs, taken = c.stage.take(ops, chunkRoom(ops), force)
		return cs
	})
	if err == nil || retry.IsPermanent(err) && !errors.Is(err, ErrAmbiguous) {
		c.stage.drop(taken)
	}
	return applied, refusal(err, core.ErrCollected)
}

// note keeps e if it is the highest epoch a reply carried.
func (c *Client) note(e uint64) {
	for old := c.epoch.Load(); e > old && !c.epoch.CompareAndSwap(old, e); old = c.epoch.Load() {
	}
}

// Epoch implements core.BranchTable: the server's collection epoch as this
// client last saw it, so the engine over this client stamps its ops with
// the clock of the node that collects.  Before any Head or Commit reply it
// is 1, older than every server's epoch: a stale op costs its commit the
// server's presence check of what it names, not a refusal.
func (c *Client) Epoch() uint64 { return max(c.epoch.Load(), 1) }

// Put implements store.Store as a one-chunk PutBatch.
func (c *Client) Put(ch *chunk.Chunk) (bool, error) {
	fresh, err := c.PutBatch([]*chunk.Chunk{ch})
	return err == nil && fresh[0], err
}

// PutBatch implements store.Store.  While an engine write is in flight
// (Stage) the chunks are staged for a Commit and reported fresh; otherwise
// the whole batch travels in one Commit with no head ops and lands on the
// server in one store round, collapsing N network round trips into one —
// the dominant cost of remote bulk ingest.  A batch too large for one frame
// travels as several, each landing on its own.  A chunk naming one the
// server lacks does not land, and fails the batch with core.ErrCollected.
func (c *Client) PutBatch(cs []*chunk.Chunk) ([]bool, error) {
	fresh := make([]bool, 0, len(cs))
	if held, full := c.stage.hold(cs, c.epoch.Load()); held {
		if full {
			if err := c.flush(); err != nil {
				return make([]bool, len(cs)), err
			}
		}
		for range cs {
			fresh = append(fresh, true)
		}
		return fresh, nil
	}
	for len(cs) > 0 {
		n := fill(cs, chunkRoom(nil), true)
		part, _, err := c.commit(nil, func() []*chunk.Chunk { return cs[:n] })
		if err != nil {
			return make([]bool, cap(fresh)), refusal(err, core.ErrCollected)
		}
		fresh, cs = append(fresh, part...), cs[n:]
	}
	return fresh, nil
}

// readStaged answers ids by position: from staging, as staged says of
// the chunk it holds, where it holds one, and from one ask of the server
// for the rest.
func readStaged[T any](c *Client, ids []hash.Hash, staged func(*chunk.Chunk) T, ask func([]hash.Hash) ([]T, error)) ([]T, error) {
	if len(ids) == 0 {
		return nil, nil
	}
	held := c.stage.lookup(ids)
	if held == nil {
		return ask(ids)
	}
	out, at, want := make([]T, len(ids)), make([]int, 0, len(ids)), make([]hash.Hash, 0, len(ids))
	for i, ch := range held {
		if ch != nil {
			out[i] = staged(ch)
		} else {
			at, want = append(at, i), append(want, ids[i])
		}
	}
	if len(want) == 0 {
		return out, nil
	}
	got, err := ask(want)
	if err != nil {
		return nil, err
	}
	for j, i := range at {
		out[i] = got[j]
	}
	return out, nil
}

// GetChunks fetches a batch of chunks in one round trip (more when they
// overflow one frame), reading a staged chunk from staging.  out[i] is nil
// when ids[i] is absent on the server.  A reply answers by position and may
// defer a tail that did not fit its frame, which is asked for again.  Every
// chunk is verified against the id it answers, so a malicious server can
// neither forge content nor satisfy a request with a different (valid)
// chunk.  Each chunk owns its bytes.
func (c *Client) GetChunks(ids []hash.Hash) ([]*chunk.Chunk, error) {
	return readStaged(c, ids, func(ch *chunk.Chunk) *chunk.Chunk { return ch }, c.getChunks)
}

// getChunks asks the server for ids.
func (c *Client) getChunks(ids []hash.Hash) ([]*chunk.Chunk, error) {
	out := make([]*chunk.Chunk, len(ids))
	for off := 0; off < len(ids); {
		want, answered := ids[off:], 0
		err := c.call(OpGetChunks, 0, func(b []byte) []byte { return appendIDs(b, want...) },
			func(d *dec) { answered = d.chunkReply(want, out[off:]) })
		if err == nil && answered == 0 {
			err = fmt.Errorf("client: server deferred all %d requested chunks", len(want))
		}
		for _, ch := range out[off : off+answered] {
			if err == nil && ch != nil {
				err = ch.Recheck() // fails on content forged or corrupted in flight
			}
		}
		if err != nil {
			return nil, err
		}
		off += answered
	}
	return out, nil
}

// HasChunks answers presence for a batch of ids in one round trip; a
// staged chunk is present.
func (c *Client) HasChunks(ids []hash.Hash) ([]bool, error) {
	return readStaged(c, ids, func(*chunk.Chunk) bool { return true }, c.hasChunks)
}

func (c *Client) hasChunks(ids []hash.Hash) (has []bool, err error) {
	err = c.call(OpHasChunks, 0, func(b []byte) []byte { return appendIDs(b, ids...) },
		func(d *dec) { has = d.bools(len(ids)) })
	return has, err
}

// FeedSince reads the server's change feed from cursor for a follower's
// lease (0: none; see core.Feed.Read, which also defines the probe, limit
// < 0), long-polling up to wait when the feed is idle.  It returns the
// entries, the resume cursor, and whether the cursor was truncated — evicted
// from the feed's retained window, or belonging to a previous feed
// incarnation (primary restart) — in which case the caller must fall back to
// a snapshot catch-up.
func (c *Client) FeedSince(lease uint64, cursor core.FeedCursor, limit int, wait time.Duration) (entries []core.FeedEntry, next core.FeedCursor, truncated bool, err error) {
	wait = max(wait, 0)
	err = c.call(OpFeedSince, wait,
		func(b []byte) []byte { return appendFeedReq(b, lease, cursor, limit, uint64(wait.Milliseconds())) },
		func(d *dec) { next, truncated, entries = d.feedPage() })
	if err != nil {
		return nil, cursor, false, err
	}
	return entries, next, truncated, nil
}

// Heads lists every head on the server — key → branch → uid — a page of
// whole keys per round trip.  Like core.ListHeads it is no snapshot: a head
// that moves mid-listing shows either value.
func (c *Client) Heads() (map[string]map[string]hash.Hash, error) {
	out := make(map[string]map[string]hash.Hash)
	for from, more := "", []bool{true}; more[0]; {
		var refs []string
		var uids []hash.Hash
		err := c.call(OpHeads, 0, func(b []byte) []byte { return appendStr(b, from) }, func(d *dec) {
			refs, uids, more = d.strs(), d.ids(), d.bools(1)
			// A page that runs on must end past from, or the listing would not end.
			d.Check(len(refs) == 2*len(uids) && (!more[0] || len(uids) > 0 && refs[len(refs)-2] >= from))
		})
		if err != nil {
			return nil, err
		}
		for i, uid := range uids {
			if out[refs[2*i]] == nil {
				out[refs[2*i]] = make(map[string]hash.Hash)
			}
			out[refs[2*i]][refs[2*i+1]] = uid
		}
		if more[0] {
			from = refs[len(refs)-2] + "\x00" // the least key after the last one listed
		}
	}
	return out, nil
}

// Get implements store.Store as a one-id GetChunks; the chunk is verified
// client-side.
func (c *Client) Get(id hash.Hash) (*chunk.Chunk, error) {
	out, err := c.GetChunks([]hash.Hash{id})
	if err == nil && out[0] == nil {
		err = store.ErrNotFound
	}
	if err != nil {
		return nil, err
	}
	return out[0], nil
}

// Has implements store.Store as a one-id HasChunks.
func (c *Client) Has(id hash.Hash) (bool, error) {
	has, err := c.HasChunks([]hash.Hash{id})
	return err == nil && has[0], err
}

// GetBatch implements store.Store as GetChunks: one round trip for the
// whole id list.
func (c *Client) GetBatch(ids []hash.Hash) ([]*chunk.Chunk, error) { return c.GetChunks(ids) }

// HasBatch implements store.Store as HasChunks.
func (c *Client) HasBatch(ids []hash.Hash) ([]bool, error) { return c.HasChunks(ids) }

// Stats implements store.Store: the server's store's counters.
func (c *Client) Stats() (st store.Stats) {
	if err := c.call(OpStats, 0, nil, func(d *dec) { st = d.stats() }); err != nil {
		return store.Stats{}
	}
	return st
}

// Head implements core.BranchTable: the server's answer, which LastHead
// then remembers, noting the epoch its reply carries.
func (c *Client) Head(key, branch string) (hash.Hash, bool, error) {
	var heads []hash.Hash
	var epoch uint64
	err := c.call(OpHead, 0, func(b []byte) []byte { return appendRef(b, key, branch) }, func(d *dec) {
		heads, epoch = d.ids(), d.Uvarint()
		d.Check(len(heads) <= 1)
	})
	if err != nil {
		return hash.Hash{}, false, err
	}
	c.note(epoch)
	var uid hash.Hash
	if len(heads) > 0 {
		uid = heads[0]
	}
	c.seen.put(key, branch, uid)
	return uid, len(heads) > 0, nil
}

// LastHead implements core.BranchTable: the head this client last saw, with
// no round trip, else the server's (Head).
func (c *Client) LastHead(key, branch string) (hash.Hash, bool, bool, error) {
	if uid, ok := c.seen.get(key, branch); ok {
		return uid, !uid.IsZero(), true, nil
	}
	uid, ok, err := c.Head(key, branch)
	return uid, ok, false, err
}

// Apply implements core.BranchTable as one Commit request, which carries
// every chunk the client's engine writes staged (Stage) — the chunks the
// ops publish among them — so they land with the ops under one hold of the
// server's GC fence.  Staged chunks past what fits beside the ops land
// first, in Commits of their own.  An ambiguous transport failure is
// resolved by probing the heads: if each holds what the ops leave it at,
// the commit landed — uids are content-addressed, so that is the caller's
// postcondition, whichever attempt established it.  The server's refusal of
// a stale op whose value it cannot land is core.ErrCollected.
func (c *Client) Apply(ops []core.HeadOp) (bool, error) {
	if c.stage.pending() > chunkRoom(ops) {
		if err := c.flush(); err != nil {
			return false, err
		}
	}
	ok, err := c.commitStaged(ops, false)
	if errors.Is(err, ErrAmbiguous) && c.landed(ops) {
		return true, nil
	}
	for _, op := range ops {
		if ok {
			c.seen.put(op.Key, op.Branch, op.Set)
		} else {
			c.seen.forget(op.Key, op.Branch)
		}
	}
	return ok, err
}

// refusal is err as sentinel, which errors.Is then matches, when err is the
// server's refusal with it (only the text crosses the wire); otherwise err.
func refusal(err, sentinel error) error {
	if err == nil || !retry.IsPermanent(err) || !strings.HasPrefix(err.Error(), sentinel.Error()) {
		return err
	}
	return fmt.Errorf("%w%s", sentinel, strings.TrimPrefix(err.Error(), sentinel.Error()))
}

// landed reports whether every head ops touch holds the value the last op
// on it sets (zero: the branch is gone).
func (c *Client) landed(ops []core.HeadOp) bool {
	for i, op := range ops {
		if slices.ContainsFunc(ops[i+1:], func(o core.HeadOp) bool { return o.Key == op.Key && o.Branch == op.Branch }) {
			continue // a later op decides this head
		}
		if cur, _, err := c.Head(op.Key, op.Branch); err != nil || cur != op.Set {
			return false
		}
	}
	return true
}

// CompareAndSet implements core.BranchTable.
func (c *Client) CompareAndSet(key, branch string, old, new hash.Hash) (bool, error) {
	return c.Apply([]core.HeadOp{{Key: key, Branch: branch, Expect: old, Set: new}})
}

// Branches implements core.BranchTable.  An absent key is core.ErrKeyNotFound
// here as in the engine: the server's refusal crosses the wire as text.
func (c *Client) Branches(key string) (map[string]hash.Hash, error) {
	var names []string
	var heads []hash.Hash
	err := c.call(OpBranches, 0, func(b []byte) []byte { return appendRef(b, key, "") }, func(d *dec) {
		names, heads = d.strs(), d.ids()
		d.Check(len(names) == len(heads))
	})
	if err != nil {
		return nil, refusal(err, core.ErrKeyNotFound)
	}
	out := make(map[string]hash.Hash, len(names))
	for i, b := range names {
		out[b] = heads[i]
	}
	return out, nil
}

// Keys implements core.BranchTable.
func (c *Client) Keys() (keys []string, err error) {
	err = c.call(OpKeys, 0, nil, func(d *dec) { keys = d.strs() })
	return keys, err
}

// seenHeadsMax bounds the heads a client remembers.
const seenHeadsMax = 4096

// seenHeads is the last head a client saw of each (key, branch), a zero uid
// for a branch it saw absent.  At seenHeadsMax refs a new one drops an
// arbitrary other: a forgotten head is read from the server again.
type seenHeads struct {
	mu   sync.Mutex
	refs map[headRef]hash.Hash
}

type headRef struct{ key, branch string }

func (s *seenHeads) get(key, branch string) (hash.Hash, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	uid, ok := s.refs[headRef{key, branch}]
	return uid, ok
}

func (s *seenHeads) put(key, branch string, uid hash.Hash) {
	s.mu.Lock()
	defer s.mu.Unlock()
	ref := headRef{key, branch}
	if s.refs == nil {
		s.refs = make(map[headRef]hash.Hash)
	}
	if _, ok := s.refs[ref]; !ok && len(s.refs) >= seenHeadsMax {
		for other := range s.refs {
			delete(s.refs, other)
			break
		}
	}
	s.refs[ref] = uid
}

func (s *seenHeads) forget(key, branch string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.refs, headRef{key, branch})
}
