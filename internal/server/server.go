package server

import (
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"sync"
	"time"

	"forkbase/internal/chunk"
	"forkbase/internal/core"
	"forkbase/internal/obs"
	"forkbase/internal/store"
)

// Server exposes a chunk store and a branch table over TCP.
type Server struct {
	st       store.Store
	heads    core.BranchTable
	feed     *core.Feed // non-nil when this node publishes a change feed
	readOnly bool       // replicas reject mutating ops
	limits   Limits
	met      *srvMetrics // set by SetMetrics before Listen; nil = uninstrumented

	mu      sync.Mutex
	ln      net.Listener
	conns   map[net.Conn]struct{}
	closed  bool
	refused uint64 // connections shed by the MaxConns gate
	logger  *slog.Logger
	wg      sync.WaitGroup
}

// srvMetrics holds the per-opcode and connection-lifecycle handles,
// resolved once at SetMetrics.  All methods are nil-safe so the serving
// path never branches on "is instrumentation configured".
type srvMetrics struct {
	ops      map[Op]*srvOp
	unknown  *srvOp
	inflight *obs.Gauge
	open     *obs.Gauge
	total    *obs.Counter
	refused  *obs.Counter
}

type srvOp struct {
	total *obs.Counter
	errs  *obs.Counter
	lat   *obs.Histogram
}

// SetMetrics instruments the server against reg: per-opcode request
// counts, latencies and error counts, an in-flight gauge, and connection
// lifecycle counters.  Call before Listen.
func (s *Server) SetMetrics(reg *obs.Registry) {
	if reg == nil || reg == obs.Discard {
		return
	}
	total := reg.CounterVec("forkbase_server_requests_total",
		"TCP requests served, by opcode.", "op")
	errsV := reg.CounterVec("forkbase_server_errors_total",
		"TCP requests answered with an error, by opcode.", "op")
	lat := reg.HistogramVec("forkbase_server_request_seconds",
		"TCP request handling latency, by opcode.", "op")
	m := &srvMetrics{
		ops: make(map[Op]*srvOp, len(opNames)),
		inflight: reg.Gauge("forkbase_server_inflight",
			"TCP requests currently being handled."),
		open: reg.Gauge("forkbase_server_conns_open",
			"TCP connections currently served."),
		total: reg.Counter("forkbase_server_conns_total",
			"TCP connections accepted."),
		refused: reg.Counter("forkbase_server_conns_refused_total",
			"TCP connections shed by the MaxConns gate."),
	}
	// Pre-register every known opcode so the families expose complete
	// zero-valued series from the first scrape.
	for op := range opNames {
		name := op.String()
		m.ops[op] = &srvOp{total: total.With(name), errs: errsV.With(name), lat: lat.With(name)}
	}
	m.unknown = &srvOp{total: total.With("unknown"), errs: errsV.With("unknown"), lat: lat.With("unknown")}
	s.met = m
}

func (m *srvMetrics) opDone(op Op, start time.Time, failed bool) {
	if m == nil {
		return
	}
	h, ok := m.ops[op]
	if !ok {
		h = m.unknown
	}
	h.total.Inc()
	h.lat.Since(start)
	if failed {
		h.errs.Inc()
	}
}

// Limits bound a server's exposure to slow or excessive clients.  The zero
// value imposes none (library embeddings, tests); cmd/forkbased enables
// both.
type Limits struct {
	// MaxConns caps concurrently served connections.  Excess accepts are
	// closed immediately — load is shed at the door instead of queueing
	// goroutines until memory runs out.  Clients see a transport error and
	// retry with backoff, by which time a slot may have freed.  0 = no cap.
	MaxConns int
	// ReadTimeout bounds how long the server waits for a complete request
	// frame.  It is also the idle-connection timeout: a client that goes
	// quiet (or a chaos proxy that truncates a frame mid-gob) loses its
	// connection instead of parking a goroutine forever.  Well-behaved
	// clients reconnect transparently.  0 = wait forever.
	ReadTimeout time.Duration
}

// SetLimits configures load-shedding bounds.  Call before Listen.
func (s *Server) SetLimits(l Limits) { s.limits = l }

// Refused reports how many connections the MaxConns gate has shed.
func (s *Server) Refused() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.refused
}

// Feed-serving limits: a single OpFeedSince answer is bounded so a lagging
// replica streams the window in pages, and the long-poll budget is clamped
// so an idle connection never parks a server goroutine for long.
const (
	feedDefaultLimit = 512
	feedMaxWait      = 30 * time.Second
)

// New creates a server over the given store and branch table.  A nil
// logger selects slog.Default(); routine transport noise (peer hangups,
// malformed frames) is logged at Debug, so the default level stays quiet.
func New(st store.Store, heads core.BranchTable, logger *slog.Logger) *Server {
	if logger == nil {
		logger = slog.Default()
	}
	return &Server{st: st, heads: heads, conns: make(map[net.Conn]struct{}), logger: logger}
}

// AttachFeed publishes feed over OpFeedSince (and enables head pinning).
// Call before Listen.  A primary shares the same feed with its local engine
// (core.Open adopts a feed-wrapped branch table), so commits made through
// any path — TCP CAS, REST, embedded — appear in one sequence.
func (s *Server) AttachFeed(f *core.Feed) { s.feed = f }

// SetReadOnly makes the server reject every mutating op (chunk puts, head
// CAS, branch delete/rename).  Replicas serve reads this way: their state
// moves only through replication, never through client writes.
func (s *Server) SetReadOnly(ro bool) { s.readOnly = ro }

// errReadOnly is what mutating ops receive from a read-only node.
var errReadOnly = errors.New("server: node is a read-only replica")

// Listen binds addr (e.g. "127.0.0.1:0") and serves until Close.
// It returns the bound address immediately; serving continues in the
// background.
func (s *Server) Listen(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("server: %w", err)
	}
	s.mu.Lock()
	s.ln = ln
	s.mu.Unlock()
	s.wg.Add(1)
	go s.acceptLoop(ln)
	return ln.Addr().String(), nil
}

func (s *Server) acceptLoop(ln net.Listener) {
	defer s.wg.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return // listener closed
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		if s.limits.MaxConns > 0 && len(s.conns) >= s.limits.MaxConns {
			s.refused++
			s.mu.Unlock()
			if s.met != nil {
				s.met.refused.Inc()
			}
			conn.Close() // shed at the door; the client backs off and retries
			continue
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		if s.met != nil {
			s.met.total.Inc()
			s.met.open.Add(1)
		}
		s.wg.Add(1)
		go s.serveConn(conn)
	}
}

func (s *Server) serveConn(conn net.Conn) {
	defer s.wg.Done()
	defer func() {
		conn.Close()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		if s.met != nil {
			s.met.open.Add(-1)
		}
	}()
	dec := gob.NewDecoder(conn)
	enc := gob.NewEncoder(conn)
	for {
		if s.limits.ReadTimeout > 0 {
			_ = conn.SetReadDeadline(time.Now().Add(s.limits.ReadTimeout))
		}
		var req Request
		if err := dec.Decode(&req); err != nil {
			if !errors.Is(err, io.EOF) {
				s.logger.Debug("request decode failed", "remote", conn.RemoteAddr().String(), "err", err)
			}
			return
		}
		start := time.Now()
		if s.met != nil {
			s.met.inflight.Add(1)
		}
		resp := s.handle(&req)
		if s.met != nil {
			s.met.inflight.Add(-1)
			s.met.opDone(req.Op, start, resp.Err != "")
		}
		if err := enc.Encode(resp); err != nil {
			s.logger.Debug("response encode failed", "remote", conn.RemoteAddr().String(), "err", err)
			return
		}
	}
}

func (s *Server) handle(req *Request) *Response {
	resp := &Response{}
	fail := func(err error) *Response {
		resp.Err = err.Error()
		return resp
	}
	if s.readOnly {
		switch req.Op {
		case OpPutChunk, OpPutChunks, OpCAS, OpDeleteBranch, OpRenameBranch:
			return fail(errReadOnly)
		}
	}
	switch req.Op {
	case OpPing:
		resp.OK = true
	case OpPutChunk:
		t := chunk.Type(req.ChunkType)
		if !t.Valid() {
			return fail(fmt.Errorf("invalid chunk type %d", req.ChunkType))
		}
		c := chunk.New(t, req.Data)
		if c.ID() != req.ID {
			// Refuse mislabelled chunks: content addressing is the
			// integrity contract in both directions.
			return fail(fmt.Errorf("%w: claimed %s actual %s", chunk.ErrCorrupt, req.ID.Short(), c.ID().Short()))
		}
		fresh, err := s.st.Put(c)
		if err != nil {
			return fail(err)
		}
		resp.OK = fresh
	case OpPutChunks:
		// Batched ingest: verify every claimed id up front (content
		// addressing is the integrity contract in both directions), then
		// land the whole batch in one store round.
		cs := make([]*chunk.Chunk, len(req.Chunks))
		for i, w := range req.Chunks {
			t := chunk.Type(w.Type)
			if !t.Valid() {
				return fail(fmt.Errorf("invalid chunk type %d at %d", w.Type, i))
			}
			c := chunk.NewClaimed(t, w.Data, w.ID)
			if err := c.Recheck(); err != nil {
				return fail(fmt.Errorf("chunk %d: %w", i, err))
			}
			cs[i] = c
		}
		fresh, err := s.st.PutBatch(cs)
		if err != nil {
			return fail(err)
		}
		resp.Fresh = fresh
		resp.OK = true
	case OpGetChunk:
		c, err := s.st.Get(req.ID)
		if err != nil {
			if errors.Is(err, store.ErrNotFound) {
				resp.Found = false
				return resp
			}
			return fail(err)
		}
		resp.Found = true
		resp.ChunkType = byte(c.Type())
		resp.Data = c.Data()
	case OpHasChunk:
		ok, err := s.st.Has(req.ID)
		if err != nil {
			return fail(err)
		}
		resp.OK = ok
	case OpGetChunks:
		cs, err := s.st.GetBatch(req.IDs)
		if err != nil {
			return fail(err)
		}
		resp.Chunks = make([]WireChunk, 0, len(cs))
		for _, c := range cs {
			if c == nil {
				continue // absent ids are omitted; the client notices the gap
			}
			resp.Chunks = append(resp.Chunks, WireChunk{ID: c.ID(), Type: byte(c.Type()), Data: c.Data()})
		}
		resp.OK = true
	case OpHasChunks:
		bools, err := s.st.HasBatch(req.IDs)
		if err != nil {
			return fail(err)
		}
		resp.Bools = bools
		resp.OK = true
	case OpFeedSince:
		if s.feed == nil {
			return fail(errors.New("server: node does not publish a change feed"))
		}
		resp.FeedEpoch = s.feed.Epoch()
		if req.Limit < 0 {
			// Sequence probe: report the feed tip without shipping entries.
			// Replicas take a cursor this way before a snapshot catch-up.
			resp.Cursor = s.feed.Seq()
			resp.OK = true
			return resp
		}
		if req.FeedEpoch != 0 && req.FeedEpoch != s.feed.Epoch() {
			// The cursor belongs to a previous feed incarnation (primary
			// restart): every retained entry may already be stale relative
			// to it, so force a snapshot exactly like ring truncation.
			resp.Cursor = req.Cursor
			resp.Truncated = true
			resp.OK = true
			return resp
		}
		limit := req.Limit
		if limit == 0 || limit > feedDefaultLimit {
			limit = feedDefaultLimit
		}
		if req.WaitMillis > 0 {
			wait := time.Duration(req.WaitMillis) * time.Millisecond
			if wait > feedMaxWait {
				wait = feedMaxWait
			}
			s.feed.Wait(req.Cursor, wait)
		}
		entries, next, truncated := s.feed.Since(req.Cursor, limit)
		resp.Entries = make([]WireFeedEntry, len(entries))
		for i, e := range entries {
			resp.Entries[i] = WireFeedEntry{Seq: e.Seq, Key: e.Key, Branch: e.Branch, Old: e.Old, New: e.New}
		}
		resp.Cursor = next
		resp.Truncated = truncated
		resp.OK = true
	case OpPinHead:
		if s.feed == nil {
			return fail(errors.New("server: node does not publish a change feed"))
		}
		s.feed.Pin(req.ID, 0) // server-side lease; replicas re-pin per round
		resp.OK = true
	case OpUnpinHead:
		if s.feed == nil {
			return fail(errors.New("server: node does not publish a change feed"))
		}
		s.feed.Unpin(req.ID)
		resp.OK = true
	case OpStats:
		resp.Stats = s.st.Stats()
	case OpHead:
		uid, ok, err := s.heads.Head(req.Key, req.Branch)
		if err != nil {
			return fail(err)
		}
		resp.Found = ok
		resp.UID = uid
	case OpCAS:
		ok, err := s.heads.CompareAndSet(req.Key, req.Branch, req.Old, req.New)
		if err != nil {
			return fail(err)
		}
		resp.OK = ok
	case OpDeleteBranch:
		if err := s.heads.Delete(req.Key, req.Branch); err != nil {
			return fail(err)
		}
		resp.OK = true
	case OpRenameBranch:
		if err := s.heads.Rename(req.Key, req.Branch, req.ToBranch); err != nil {
			return fail(err)
		}
		resp.OK = true
	case OpBranches:
		branches, err := s.heads.Branches(req.Key)
		if err != nil {
			return fail(err)
		}
		resp.Heads = make(map[string]string, len(branches))
		for b, uid := range branches {
			resp.Heads[b] = uid.String()
		}
	case OpKeys:
		keys, err := s.heads.Keys()
		if err != nil {
			return fail(err)
		}
		resp.Keys = keys
	default:
		return fail(fmt.Errorf("unknown op %d", req.Op))
	}
	return resp
}

// Addr returns the bound address ("" before Listen).
func (s *Server) Addr() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ln == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// Close stops the listener and all connections.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	ln := s.ln
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	var err error
	if ln != nil {
		err = ln.Close()
	}
	s.wg.Wait()
	return err
}
