package server

import (
	"encoding/gob"
	"errors"
	"fmt"
	"net"
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
	// covers the encode, the read deadline covers the decode (plus the
	// long-poll budget for feed reads).  A stalled server or a chaos
	// mid-frame truncation surfaces as a timeout instead of hanging the
	// caller forever (default 10s).
	OpTimeout time.Duration
	// Retry is the transport-failure policy: failed attempts reconnect
	// with exponential backoff.  Retry.Timeout is ignored (OpTimeout is
	// authoritative).  Non-idempotent ops are never blindly re-sent; see
	// roundTrip.
	Retry retry.Policy
}

func (o *ClientOptions) fill() {
	if o.DialTimeout <= 0 {
		o.DialTimeout = 5 * time.Second
	}
	if o.OpTimeout <= 0 {
		o.OpTimeout = 10 * time.Second
	}
	if o.Retry.Attempts == 0 {
		o.Retry.Attempts = 4
	}
	if o.Retry.Base <= 0 {
		o.Retry.Base = 50 * time.Millisecond
	}
	if o.Retry.Max <= 0 {
		o.Retry.Max = time.Second
	}
	o.Retry.Timeout = o.OpTimeout
}

// Client is a connection to one ForkBase server.  Requests are serialised
// over a single TCP connection guarded by a mutex; every attempt runs under
// explicit read/write deadlines, and transport failures reconnect with
// backoff under the client's retry policy.
//
// Idempotency contract: reads (Get/Has/GetBatch/feed/pin) are retried
// freely.  Mutations (CAS, chunk puts, branch delete/rename) are re-sent
// only when the failed attempt provably wrote zero bytes of the request —
// otherwise the server may have executed it, and the ambiguous error is
// surfaced to the caller (who owns the op-level recovery; see
// RemoteBranchTable.CompareAndSet for the CAS probe).
type Client struct {
	addr string
	opts ClientOptions

	mu     sync.Mutex
	conn   net.Conn
	cw     *countingWriter
	enc    *gob.Encoder
	dec    *gob.Decoder
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

// DialWithOptions connects with explicit timeouts and retry policy.
func DialWithOptions(addr string, opts ClientOptions) (*Client, error) {
	opts.fill()
	c := &Client{addr: addr, opts: opts, stop: make(chan struct{})}
	var resp Response
	if err := c.roundTrip(&Request{Op: OpPing}, &resp); err != nil {
		return nil, err
	}
	return c, nil
}

// countingWriter counts bytes written since the last reset — the witness
// that lets roundTrip prove a failed send never reached the wire.
type countingWriter struct {
	w net.Conn
	n int64
}

func (cw *countingWriter) Write(p []byte) (int, error) {
	n, err := cw.w.Write(p)
	cw.n += int64(n)
	return n, err
}

// connectLocked dials and installs a fresh connection.  Callers hold c.mu.
func (c *Client) connectLocked() error {
	conn, err := net.DialTimeout("tcp", c.addr, c.opts.DialTimeout)
	if err != nil {
		return fmt.Errorf("client: dial %s: %w", c.addr, err)
	}
	c.conn = conn
	c.cw = &countingWriter{w: conn}
	c.enc = gob.NewEncoder(c.cw)
	c.dec = gob.NewDecoder(conn)
	return nil
}

// teardownLocked discards a connection after a transport failure, so the
// next attempt redials instead of reusing a dead encoder.  Callers hold
// c.mu.
func (c *Client) teardownLocked() {
	if c.conn != nil {
		c.conn.Close()
	}
	c.conn, c.cw, c.enc, c.dec = nil, nil, nil, nil
}

// idempotent reports whether op may be blindly re-sent after a transport
// failure that left the server's state unknown.  Reads, presence checks,
// feed reads and pins are; mutations are not — a CAS executed twice is a
// lost-update bug, and a re-run batch put skews freshness accounting.
func idempotent(op Op) bool {
	switch op {
	case OpCAS, OpDeleteBranch, OpRenameBranch, OpPutChunk, OpPutChunks:
		return false
	}
	return true
}

// ErrAmbiguous marks a transport failure after part of a non-idempotent
// request may have reached the server: the op may or may not have executed.
// Callers that can probe (re-read the head, re-check presence) should; see
// RemoteBranchTable.CompareAndSet.
var ErrAmbiguous = errors.New("client: request outcome unknown")

// roundTrip performs one request-response exchange under the retry policy.
func (c *Client) roundTrip(req *Request, resp *Response) error {
	// Long-poll feed reads legitimately idle on the server up to their wait
	// budget; the read deadline must cover it on top of the op timeout.
	var extraRead time.Duration
	if req.Op == OpFeedSince && req.WaitMillis > 0 {
		extraRead = time.Duration(req.WaitMillis) * time.Millisecond
	}
	return c.opts.Retry.Do(c.stop, func(a retry.Attempt) error {
		return c.attempt(req, resp, extraRead)
	})
}

// attempt is one full exchange: (re)connect, encode under a write deadline,
// decode under a read deadline.  Errors are classified for the retry loop:
// server-sent errors and ambiguous non-idempotent failures are permanent;
// everything else is transient and redials.
func (c *Client) attempt(req *Request, resp *Response, extraRead time.Duration) error {
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
	now := time.Now()
	_ = c.conn.SetWriteDeadline(now.Add(c.opts.OpTimeout))
	c.cw.n = 0
	if err := c.enc.Encode(req); err != nil {
		sent := c.cw.n > 0
		c.teardownLocked()
		if sent && !idempotent(req.Op) {
			ambiguousTotal.Inc()
			return retry.Permanent(fmt.Errorf("%w: send of %s interrupted after %s: %v",
				ErrAmbiguous, req.Op, c.addr, err))
		}
		return fmt.Errorf("client: send %s: %w", req.Op, err)
	}
	_ = c.conn.SetReadDeadline(time.Now().Add(c.opts.OpTimeout + extraRead))
	*resp = Response{}
	if err := c.dec.Decode(resp); err != nil {
		c.teardownLocked()
		if !idempotent(req.Op) {
			// The request reached the wire whole; only the reply was lost.
			ambiguousTotal.Inc()
			return retry.Permanent(fmt.Errorf("%w: reply to %s lost from %s: %v",
				ErrAmbiguous, req.Op, c.addr, err))
		}
		return fmt.Errorf("client: recv %s: %w", req.Op, err)
	}
	if resp.Err != "" {
		// The server executed the request and refused it: retrying would
		// re-execute, and the answer would not change.
		return retry.Permanent(errors.New(resp.Err))
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
	c.conn, c.cw, c.enc, c.dec = nil, nil, nil, nil
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

// Put implements store.Store.
func (r *RemoteStore) Put(ch *chunk.Chunk) (bool, error) {
	var resp Response
	err := r.c.roundTrip(&Request{
		Op:        OpPutChunk,
		ID:        ch.ID(),
		ChunkType: byte(ch.Type()),
		Data:      ch.Data(),
	}, &resp)
	if err != nil {
		return false, err
	}
	return resp.OK, nil
}

// PutBatch implements store.Store: the whole batch travels in one
// request and lands on the server in one store round, collapsing N network
// round trips into one — the dominant cost of remote bulk ingest.
func (r *RemoteStore) PutBatch(cs []*chunk.Chunk) ([]bool, error) {
	wire := make([]WireChunk, len(cs))
	for i, c := range cs {
		wire[i] = WireChunk{ID: c.ID(), Type: byte(c.Type()), Data: c.Data()}
	}
	var resp Response
	if err := r.c.roundTrip(&Request{Op: OpPutChunks, Chunks: wire}, &resp); err != nil {
		return make([]bool, len(cs)), err
	}
	fresh := resp.Fresh
	if len(fresh) != len(cs) {
		return make([]bool, len(cs)), fmt.Errorf("client: server returned %d freshness flags for %d chunks", len(fresh), len(cs))
	}
	return fresh, nil
}

// GetChunks fetches a batch of chunks in one round trip.  out[i] is nil when
// ids[i] is absent on the server.  Every returned chunk is matched to its
// requested id and verified client-side, so a malicious server can neither
// forge content nor satisfy a request with a different (valid) chunk.
func (c *Client) GetChunks(ids []hash.Hash) ([]*chunk.Chunk, error) {
	if len(ids) == 0 {
		return nil, nil
	}
	var resp Response
	if err := c.roundTrip(&Request{Op: OpGetChunks, IDs: ids}, &resp); err != nil {
		return nil, err
	}
	byID := make(map[hash.Hash]*chunk.Chunk, len(resp.Chunks))
	for _, w := range resp.Chunks {
		t := chunk.Type(w.Type)
		if !t.Valid() {
			return nil, fmt.Errorf("client: server returned invalid chunk type %d", w.Type)
		}
		ch := chunk.NewClaimed(t, w.Data, w.ID)
		if err := ch.Recheck(); err != nil {
			return nil, err // forged or corrupted in flight
		}
		byID[ch.ID()] = ch
	}
	out := make([]*chunk.Chunk, len(ids))
	for i, id := range ids {
		out[i] = byID[id] // nil when the server omitted it
	}
	return out, nil
}

// HasChunks answers presence for a batch of ids in one round trip.
func (c *Client) HasChunks(ids []hash.Hash) ([]bool, error) {
	if len(ids) == 0 {
		return nil, nil
	}
	var resp Response
	if err := c.roundTrip(&Request{Op: OpHasChunks, IDs: ids}, &resp); err != nil {
		return nil, err
	}
	if len(resp.Bools) != len(ids) {
		return nil, fmt.Errorf("client: server returned %d presence flags for %d ids", len(resp.Bools), len(ids))
	}
	return resp.Bools, nil
}

// FeedSince reads the server's change feed from cursor, long-polling up to
// wait when the feed is idle.  It returns the entries, the resume cursor,
// and whether the cursor was truncated — evicted from the feed's retained
// window, or belonging to a previous feed incarnation (primary restart) —
// in which case the caller must fall back to a snapshot catch-up.
func (c *Client) FeedSince(cursor core.FeedCursor, limit int, wait time.Duration) ([]core.FeedEntry, core.FeedCursor, bool, error) {
	var resp Response
	req := &Request{Op: OpFeedSince, Cursor: cursor.Seq, FeedEpoch: cursor.Epoch, Limit: limit, WaitMillis: wait.Milliseconds()}
	if err := c.roundTrip(req, &resp); err != nil {
		return nil, cursor, false, err
	}
	entries := make([]core.FeedEntry, len(resp.Entries))
	for i, e := range resp.Entries {
		entries[i] = core.FeedEntry{Seq: e.Seq, Key: e.Key, Branch: e.Branch, Old: e.Old, New: e.New}
	}
	return entries, core.FeedCursor{Epoch: resp.FeedEpoch, Seq: resp.Cursor}, resp.Truncated, nil
}

// FeedSeq probes the server's current feed position without reading entries.
func (c *Client) FeedSeq() (core.FeedCursor, error) {
	var resp Response
	if err := c.roundTrip(&Request{Op: OpFeedSince, Limit: -1}, &resp); err != nil {
		return core.FeedCursor{}, err
	}
	return core.FeedCursor{Epoch: resp.FeedEpoch, Seq: resp.Cursor}, nil
}

// PinHead pins uid as a GC root on the server for the server's pin lease;
// UnpinHead releases it.  Replicas bracket each head pull with these so a
// primary-side collection cannot sweep a graph mid-sync.
func (c *Client) PinHead(uid hash.Hash) error {
	var resp Response
	return c.roundTrip(&Request{Op: OpPinHead, ID: uid}, &resp)
}

// UnpinHead releases a PinHead.
func (c *Client) UnpinHead(uid hash.Hash) error {
	var resp Response
	return c.roundTrip(&Request{Op: OpUnpinHead, ID: uid}, &resp)
}

// Get implements store.Store; the chunk is verified client-side.
func (r *RemoteStore) Get(id hash.Hash) (*chunk.Chunk, error) {
	var resp Response
	if err := r.c.roundTrip(&Request{Op: OpGetChunk, ID: id}, &resp); err != nil {
		return nil, err
	}
	if !resp.Found {
		return nil, store.ErrNotFound
	}
	t := chunk.Type(resp.ChunkType)
	if !t.Valid() {
		return nil, fmt.Errorf("client: server returned invalid chunk type %d", resp.ChunkType)
	}
	c := chunk.New(t, resp.Data)
	if err := c.Verify(id); err != nil {
		return nil, err // forged or corrupted in flight
	}
	return c, nil
}

// Has implements store.Store.
func (r *RemoteStore) Has(id hash.Hash) (bool, error) {
	var resp Response
	if err := r.c.roundTrip(&Request{Op: OpHasChunk, ID: id}, &resp); err != nil {
		return false, err
	}
	return resp.OK, nil
}

// GetBatch implements store.Store: one round trip for the whole id
// list, collapsing the per-chunk request latency that made RemoteStore reads
// pay one RTT per Get.
func (r *RemoteStore) GetBatch(ids []hash.Hash) ([]*chunk.Chunk, error) { return r.c.GetChunks(ids) }

// HasBatch implements store.Store.
func (r *RemoteStore) HasBatch(ids []hash.Hash) ([]bool, error) { return r.c.HasChunks(ids) }

// Stats implements store.Store.
func (r *RemoteStore) Stats() store.Stats {
	var resp Response
	if err := r.c.roundTrip(&Request{Op: OpStats}, &resp); err != nil {
		return store.Stats{}
	}
	return resp.Stats
}

// RemoteBranchTable adapts a Client into a core.BranchTable.
type RemoteBranchTable struct {
	c *Client
}

// NewRemoteBranchTable wraps a client as a branch table.
func NewRemoteBranchTable(c *Client) *RemoteBranchTable { return &RemoteBranchTable{c: c} }

// Head implements core.BranchTable.
func (r *RemoteBranchTable) Head(key, branch string) (hash.Hash, bool, error) {
	var resp Response
	if err := r.c.roundTrip(&Request{Op: OpHead, Key: key, Branch: branch}, &resp); err != nil {
		return hash.Hash{}, false, err
	}
	return resp.UID, resp.Found, nil
}

// CompareAndSet implements core.BranchTable.  An ambiguous transport
// failure (the CAS may or may not have executed on the server) is resolved
// by probing the head: if it now equals new, the CAS landed — uids are
// content-addressed, so "head == new" is exactly the postcondition the
// caller asked for regardless of which attempt (or writer) established it.
func (r *RemoteBranchTable) CompareAndSet(key, branch string, old, new hash.Hash) (bool, error) {
	var resp Response
	err := r.c.roundTrip(&Request{Op: OpCAS, Key: key, Branch: branch, Old: old, New: new}, &resp)
	if err != nil {
		if errors.Is(err, ErrAmbiguous) {
			if cur, found, herr := r.Head(key, branch); herr == nil && found && cur == new {
				return true, nil
			}
		}
		return false, err
	}
	return resp.OK, nil
}

// Delete implements core.BranchTable.
func (r *RemoteBranchTable) Delete(key, branch string) error {
	var resp Response
	return r.c.roundTrip(&Request{Op: OpDeleteBranch, Key: key, Branch: branch}, &resp)
}

// Rename implements core.BranchTable.
func (r *RemoteBranchTable) Rename(key, from, to string) error {
	var resp Response
	return r.c.roundTrip(&Request{Op: OpRenameBranch, Key: key, Branch: from, ToBranch: to}, &resp)
}

// Branches implements core.BranchTable.
func (r *RemoteBranchTable) Branches(key string) (map[string]hash.Hash, error) {
	var resp Response
	if err := r.c.roundTrip(&Request{Op: OpBranches, Key: key}, &resp); err != nil {
		return nil, err
	}
	out := make(map[string]hash.Hash, len(resp.Heads))
	for b, s := range resp.Heads {
		uid, err := hash.Parse(s)
		if err != nil {
			return nil, fmt.Errorf("client: bad uid from server: %w", err)
		}
		out[b] = uid
	}
	return out, nil
}

// Keys implements core.BranchTable.
func (r *RemoteBranchTable) Keys() ([]string, error) {
	var resp Response
	if err := r.c.roundTrip(&Request{Op: OpKeys}, &resp); err != nil {
		return nil, err
	}
	return resp.Keys, nil
}
