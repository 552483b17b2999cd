package server

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"slices"
	"strings"
	"sync"
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

// Client is a connection to one ForkBase server.  Requests are serialised
// over a single TCP connection guarded by a mutex; every attempt runs under
// explicit read/write deadlines, and transport failures reconnect with
// backoff under the client's retry policy.
//
// Idempotency contract: reads (Get/Has/GetBatch/feed/heads) are retried
// freely.  Mutations (head Applies, chunk puts) are re-sent only when the
// failed attempt's one Write provably put zero bytes of the request frame on
// the wire — otherwise the server may have executed it, and the ambiguous
// error is surfaced to the caller (who owns the op-level recovery; see
// RemoteBranchTable.Apply for the head probe).
type Client struct {
	addr string
	opts ClientOptions

	mu     sync.Mutex
	conn   net.Conn
	br     *bufio.Reader
	wbuf   []byte // scratch: the request frame, unless a large batch outgrows it
	rbuf   []byte // scratch: a reply payload that carries no chunks
	lastID uint64 // request id of the latest frame sent
	closed bool
	stop   chan struct{} // closed by Close; aborts in-flight backoffs
}

// errClientClosed is returned by every op after Close.
var errClientClosed = errors.New("client: closed")

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
	c := &Client{addr: addr, opts: opts, stop: make(chan struct{}),
		wbuf: make([]byte, 0, 64<<10), rbuf: make([]byte, 0, 4<<10)}
	if err := c.call(OpPing, 0, nil, nil); err != nil {
		return nil, err
	}
	return c, nil
}

// connectLocked dials and installs a fresh connection.  Callers hold c.mu.
func (c *Client) connectLocked() error {
	conn, err := net.DialTimeout("tcp", c.addr, c.opts.DialTimeout)
	if err != nil {
		return fmt.Errorf("client: dial %s: %w", c.addr, err)
	}
	c.conn = conn
	c.br = bufio.NewReader(conn)
	return nil
}

// teardownLocked discards a connection after a transport failure, so the
// next attempt redials instead of reading a stream that lost its framing.
// Callers hold c.mu.
func (c *Client) teardownLocked() {
	if c.conn != nil {
		c.conn.Close()
	}
	c.conn, c.br = nil, nil
}

// mutates reports whether op changes server state.  The server refuses
// these on a read-only node; the client never blindly re-sends one after a
// transport failure that left the server's state unknown — a CAS executed
// twice is a lost-update bug, and a re-run batch put skews freshness
// accounting.  Everything else (reads, presence checks, feed reads and
// probes, head listings) is idempotent.
func mutates(op Op) bool {
	switch op {
	case OpApply, OpPutChunks:
		return true
	}
	return false
}

// ErrAmbiguous marks a transport failure after part of a non-idempotent
// request may have reached the server: the op may or may not have executed.
// Callers that can probe (re-read the head, re-check presence) should; see
// RemoteBranchTable.Apply.
var ErrAmbiguous = errors.New("client: request outcome unknown")

// call performs one request-response exchange under the retry policy.
// build appends the request payload behind the frame header (nil: none);
// read decodes the reply payload (nil: none expected) and must copy out
// whatever it keeps, except for the chunk-bearing replies, whose buffer is
// theirs.  Both run under the connection lock and again on every retry.
// extraRead widens the read deadline for an op that legitimately idles on
// the server (a long-poll feed read).
func (c *Client) call(op Op, extraRead time.Duration, build func([]byte) []byte, read func(*dec)) error {
	return c.opts.Retry.Do(c.stop, func() error { return c.attempt(op, extraRead, build, read) })
}

// attempt is one full exchange: (re)connect, send the request frame with
// one Write under a write deadline, receive the reply under a read deadline.
// Errors are classified for the retry loop: server-sent errors and ambiguous
// non-idempotent failures are permanent; everything else is transient and
// redials.
func (c *Client) attempt(op Op, extraRead time.Duration, build func([]byte) []byte, read func(*dec)) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return retry.Permanent(errClientClosed)
	}
	if c.conn == nil {
		if err := c.connectLocked(); err != nil {
			return err // transient: the policy redials with backoff
		}
	}
	c.lastID++
	frame := appendHeader(c.wbuf, op, 0, c.lastID)
	if build != nil {
		frame = build(frame)
	}
	frame, err := finishFrame(frame)
	if err != nil {
		return retry.Permanent(err) // over the frame cap; nothing was sent
	}
	_ = c.conn.SetWriteDeadline(time.Now().Add(c.opts.OpTimeout))
	if n, err := c.conn.Write(frame); err != nil {
		c.teardownLocked()
		if n > 0 && mutates(op) {
			ambiguousTotal.Inc()
			return retry.Permanent(fmt.Errorf("%w: send of %s interrupted after %s: %v",
				ErrAmbiguous, op, c.addr, err))
		}
		return fmt.Errorf("client: send %s: %w", op, err)
	}
	_ = c.conn.SetReadDeadline(time.Now().Add(c.opts.OpTimeout + extraRead))
	h, payload, err := readFrame(c.br, c.rbuf)
	if err == nil && (h.id != c.lastID || h.op != op) {
		// The stream is out of step: a transport failure like any other.
		err = fmt.Errorf("reply to %s #%d does not answer %s #%d", h.op, h.id, op, c.lastID)
	}
	if err == nil && h.flags&flagError == 0 {
		d := dec{b: payload}
		if read != nil {
			read(&d)
		}
		err = d.done()
	}
	if err != nil {
		c.teardownLocked()
		if mutates(op) {
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
// fail fast instead of waiting out their backoff.
func (c *Client) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil
	}
	c.closed = true
	close(c.stop)
	if c.conn == nil {
		return nil
	}
	err := c.conn.Close()
	c.conn, c.br = nil, nil
	return err
}

// RemoteStore adapts a Client into a store.Store.  Every fetched chunk is
// re-hashed locally, so a malicious server cannot forge content.
type RemoteStore struct {
	c *Client
}

var _ store.Store = (*RemoteStore)(nil)

// NewRemoteStore wraps a client as a chunk store.
func NewRemoteStore(c *Client) *RemoteStore { return &RemoteStore{c: c} }

// putChunks ships cs as one PutChunks frame.
func (c *Client) putChunks(cs []*chunk.Chunk) (fresh []bool, err error) {
	err = c.call(OpPutChunks, 0, func(b []byte) []byte {
		b = appendUvarint(b, uint64(len(cs)))
		for _, ch := range cs {
			id := ch.ID()
			b = append(b, id[:]...)
		}
		return appendChunks(b, cs)
	}, func(d *dec) { fresh = d.bools(len(cs)) })
	return fresh, err
}

// Put implements store.Store as a one-chunk PutChunks.
func (r *RemoteStore) Put(ch *chunk.Chunk) (bool, error) {
	fresh, err := r.c.putChunks([]*chunk.Chunk{ch})
	return err == nil && fresh[0], err
}

// PutBatch implements store.Store: the whole batch travels in one
// request and lands on the server in one store round, collapsing N network
// round trips into one — the dominant cost of remote bulk ingest.  A batch
// too large for one frame travels as several, each landing on its own.
func (r *RemoteStore) PutBatch(cs []*chunk.Chunk) ([]bool, error) {
	fresh := make([]bool, 0, len(cs))
	for len(cs) > 0 {
		n, size := 0, 2*binary.MaxVarintLen32
		for n < len(cs) && (n == 0 || size+hash.Size+chunkWireSize(cs[n]) <= MaxPayload) {
			size += hash.Size + chunkWireSize(cs[n])
			n++
		}
		part, err := r.c.putChunks(cs[:n])
		if err != nil {
			return make([]bool, cap(fresh)), err
		}
		fresh, cs = append(fresh, part...), cs[n:]
	}
	return fresh, nil
}

// GetChunks fetches a batch of chunks in one round trip (more when they
// overflow one frame).  out[i] is nil when ids[i] is absent on the server.
// A reply answers by position and may defer a tail that did not fit its
// frame, which is asked for again.  Every chunk is verified against the id
// it answers, so a malicious server can neither forge content nor satisfy a
// request with a different (valid) chunk.  The chunks of one reply share its
// buffer.
func (c *Client) GetChunks(ids []hash.Hash) ([]*chunk.Chunk, error) {
	if len(ids) == 0 {
		return nil, nil
	}
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

// HasChunks answers presence for a batch of ids in one round trip.
func (c *Client) HasChunks(ids []hash.Hash) (has []bool, err error) {
	if len(ids) == 0 {
		return nil, nil
	}
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
			d.bad = d.bad || len(refs) != 2*len(uids) || more[0] && (len(uids) == 0 || refs[len(refs)-2] < from)
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
func (r *RemoteStore) Get(id hash.Hash) (*chunk.Chunk, error) {
	out, err := r.c.GetChunks([]hash.Hash{id})
	if err == nil && out[0] == nil {
		err = store.ErrNotFound
	}
	if err != nil {
		return nil, err
	}
	return out[0], nil
}

// Has implements store.Store as a one-id HasChunks.
func (r *RemoteStore) Has(id hash.Hash) (bool, error) {
	has, err := r.c.HasChunks([]hash.Hash{id})
	return err == nil && has[0], err
}

// GetBatch implements store.Store: one round trip for the whole id
// list, collapsing the per-chunk request latency that made RemoteStore reads
// pay one RTT per Get.
func (r *RemoteStore) GetBatch(ids []hash.Hash) ([]*chunk.Chunk, error) { return r.c.GetChunks(ids) }

// HasBatch implements store.Store.
func (r *RemoteStore) HasBatch(ids []hash.Hash) ([]bool, error) { return r.c.HasChunks(ids) }

// Stats implements store.Store.
func (r *RemoteStore) Stats() (st store.Stats) {
	if err := r.c.call(OpStats, 0, nil, func(d *dec) { st = d.stats() }); err != nil {
		return store.Stats{}
	}
	return st
}

// RemoteBranchTable adapts a Client into a core.BranchTable.
type RemoteBranchTable struct {
	c *Client
}

// NewRemoteBranchTable wraps a client as a branch table.
func NewRemoteBranchTable(c *Client) *RemoteBranchTable { return &RemoteBranchTable{c: c} }

// Head implements core.BranchTable.
func (r *RemoteBranchTable) Head(key, branch string) (hash.Hash, bool, error) {
	var heads []hash.Hash
	err := r.c.call(OpHead, 0, func(b []byte) []byte { return appendRef(b, key, branch) }, func(d *dec) {
		heads = d.ids()
		d.bad = d.bad || len(heads) > 1
	})
	if err != nil || len(heads) == 0 {
		return hash.Hash{}, false, err
	}
	return heads[0], true, nil
}

// Apply implements core.BranchTable in one round trip.  An ambiguous
// transport failure is resolved by probing the heads: if each holds what
// the ops leave it at, the Apply landed — uids are content-addressed, so
// that is the caller's postcondition, whichever attempt established it.
func (r *RemoteBranchTable) Apply(ops []core.HeadOp) (bool, error) {
	var applied []bool
	err := r.c.call(OpApply, 0, func(b []byte) []byte { return appendHeadOps(b, ops) },
		func(d *dec) { applied = d.bools(1) })
	if errors.Is(err, ErrAmbiguous) && r.landed(ops) {
		return true, nil
	}
	return err == nil && applied[0], err
}

// landed reports whether every head ops touch holds the value the last op
// on it sets (zero: the branch is gone).
func (r *RemoteBranchTable) landed(ops []core.HeadOp) bool {
	for i, op := range ops {
		if slices.ContainsFunc(ops[i+1:], func(o core.HeadOp) bool { return o.Key == op.Key && o.Branch == op.Branch }) {
			continue // a later op decides this head
		}
		if cur, _, err := r.Head(op.Key, op.Branch); err != nil || cur != op.Set {
			return false
		}
	}
	return true
}

// CompareAndSet implements core.BranchTable.
func (r *RemoteBranchTable) CompareAndSet(key, branch string, old, new hash.Hash) (bool, error) {
	return r.Apply([]core.HeadOp{{Key: key, Branch: branch, Expect: old, Set: new}})
}

// Branches implements core.BranchTable.  An absent key is core.ErrKeyNotFound
// here as in the engine: the server's refusal crosses the wire as text.
func (r *RemoteBranchTable) Branches(key string) (map[string]hash.Hash, error) {
	var names []string
	var heads []hash.Hash
	err := r.c.call(OpBranches, 0, func(b []byte) []byte { return appendRef(b, key, "") }, func(d *dec) {
		names, heads = d.strs(), d.ids()
		d.bad = d.bad || len(names) != len(heads)
	})
	if err != nil && retry.IsPermanent(err) && strings.HasPrefix(err.Error(), core.ErrKeyNotFound.Error()) {
		return nil, fmt.Errorf("%w: %s", core.ErrKeyNotFound, key)
	}
	if err != nil {
		return nil, err
	}
	out := make(map[string]hash.Hash, len(names))
	for i, b := range names {
		out[b] = heads[i]
	}
	return out, nil
}

// Keys implements core.BranchTable.
func (r *RemoteBranchTable) Keys() (keys []string, err error) {
	err = r.c.call(OpKeys, 0, nil, func(d *dec) { keys = d.strs() })
	return keys, err
}
