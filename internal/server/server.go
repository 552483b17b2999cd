package server

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net"
	"sort"
	"sync"
	"time"

	"forkbase/internal/core"
	"forkbase/internal/hash"
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

// srvMetrics holds the per-opcode meters and connection-lifecycle handles,
// resolved once at SetMetrics.  ops has a slot for every byte an op can be:
// an unassigned or retired opcode's slot is the shared "unknown" meter.
type srvMetrics struct {
	ops      [256]*obs.Op
	inflight *obs.Gauge
	open     *obs.Gauge
	total    *obs.Counter
	refused  *obs.Counter
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
	mk := func(name string) *obs.Op {
		return &obs.Op{Name: name, Count: total.With(name), Fails: errsV.With(name), Lat: lat.With(name)}
	}
	m := &srvMetrics{
		inflight: reg.Gauge("forkbase_server_inflight",
			"TCP requests currently being handled."),
		open: reg.Gauge("forkbase_server_conns_open",
			"TCP connections currently served."),
		total: reg.Counter("forkbase_server_conns_total",
			"TCP connections accepted."),
		refused: reg.Counter("forkbase_server_conns_refused_total",
			"TCP connections shed by the MaxConns gate."),
	}
	// Every known opcode is registered up front, so the families expose
	// complete zero-valued series from the first scrape.
	unknown := mk("unknown")
	for i := range m.ops {
		m.ops[i] = unknown
	}
	for op, name := range opNames {
		m.ops[op] = mk(name)
	}
	s.met = m
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
	// frame.  It is also the idle-connection timeout and the bound on
	// writing a reply: a client that goes quiet or stops reading (or a chaos
	// proxy that truncates a frame half way) loses its connection instead of
	// parking a goroutine forever.  Well-behaved clients reconnect
	// transparently.  0 = wait forever.
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

// New creates a server over the given store and branch table.  A nil
// logger selects slog.Default(); routine transport noise (peer hangups,
// malformed frames) is logged at Debug, so the default level stays quiet.
func New(st store.Store, heads core.BranchTable, logger *slog.Logger) *Server {
	if logger == nil {
		logger = slog.Default()
	}
	return &Server{st: st, heads: heads, conns: make(map[net.Conn]struct{}), logger: logger}
}

// AttachFeed publishes feed over OpFeedSince, whose reads and probes hold
// the followers' leases on it.  Call before Listen.  A primary shares the
// same feed with its local engine (core.Open adopts a feed-wrapped branch
// table), so commits made through any path — TCP Apply, REST, embedded —
// appear in one sequence.
func (s *Server) AttachFeed(f *core.Feed) { s.feed = f }

// SetReadOnly makes the server reject every mutating op (chunk puts and
// head Applies).  Replicas serve reads this way: their state
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
	br := bufio.NewReader(conn)
	// Per-connection scratch: a request payload that carries no chunks, and
	// the reply frame to anything but a large batch get (which outgrows it
	// into a buffer of its own, dropped after the write).
	in, out := make([]byte, 0, 4<<10), make([]byte, 0, 64<<10)
	if s.limits.ReadTimeout > 0 {
		_ = conn.SetDeadline(time.Now().Add(s.limits.ReadTimeout))
	}
	for {
		h, payload, err := readFrame(br, in)
		if err != nil {
			if !errors.Is(err, io.EOF) {
				s.logger.Debug("request read failed", "remote", conn.RemoteAddr().String(), "err", err)
			}
			return
		}
		start := time.Now() // every request is timed: the clock is a sliver of a round trip
		if s.met != nil {
			s.met.inflight.Add(1)
		}
		reply, herr := s.handle(h, payload, appendHeader(out, h.op, 0, h.id))
		if herr == nil {
			reply, herr = finishFrame(reply)
		}
		if herr != nil {
			reply, _ = finishFrame(append(appendHeader(out, h.op, flagError, h.id), herr.Error()...))
		}
		if s.met != nil {
			s.met.inflight.Add(-1)
			s.met.ops[h.op].End(context.Background(), start, herr)
		}
		if s.limits.ReadTimeout > 0 {
			// One deadline bounds this reply's write — a peer that stopped
			// reading must not park the goroutine and its MaxConns slot —
			// and the wait for the next request.
			_ = conn.SetDeadline(time.Now().Add(s.limits.ReadTimeout))
		}
		if _, err := conn.Write(reply); err != nil {
			s.logger.Debug("reply write failed", "remote", conn.RemoteAddr().String(), "err", err)
			return
		}
		if errors.Is(herr, errMalformed) {
			return // told why; a peer that cannot frame a payload is not served further
		}
	}
}

// errNoFeed answers a feed read or probe on a node that publishes no feed.
var errNoFeed = errors.New("server: node does not publish a change feed")

// handle decodes the request payload p, executes the op and appends the
// reply payload to out (which already holds the reply header).
func (s *Server) handle(h header, p, out []byte) ([]byte, error) {
	op, d := h.op, dec{b: p}
	if h.flags != 0 {
		return nil, fmt.Errorf("server: request carries reply flags %#x", h.flags)
	}
	if s.readOnly && mutates(op) {
		return nil, errReadOnly
	}
	switch op {
	case OpPing, OpStats, OpKeys:
		if err := d.done(); err != nil || op == OpPing {
			return out, err
		}
		if op == OpStats {
			return appendStats(out, s.st.Stats()), nil
		}
		keys, err := s.heads.Keys()
		return appendStrs(out, keys), err
	case OpFeedSince:
		lease, cursor, limit, waitMillis := d.feedReq()
		if err := d.done(); err != nil {
			return nil, err
		}
		if s.feed == nil {
			return nil, errNoFeed
		}
		// Feed.Read clamps the wait; this bound only keeps the conversion
		// from overflowing.
		wait := time.Duration(min(waitMillis, math.MaxInt64/uint64(time.Millisecond))) * time.Millisecond
		entries, next, truncated := s.feed.Read(lease, cursor, limit, wait)
		return appendFeedPage(out, next, truncated, entries), nil
	case OpApply:
		ops := d.headOps()
		if err := d.done(); err != nil {
			return nil, err
		}
		ok, err := s.heads.Apply(ops)
		return appendFlags(out, ok), err
	case OpHead, OpBranches:
		key, branch := d.ref()
		if err := d.done(); err != nil {
			return nil, err
		}
		if op == OpHead {
			uid, ok, err := s.heads.Head(key, branch)
			if !ok {
				return appendIDs(out), err
			}
			return appendIDs(out, uid), err
		}
		branches, err := s.heads.Branches(key)
		names := branchNames(branches)
		heads := make([]hash.Hash, len(names))
		for i, b := range names {
			heads[i] = branches[b]
		}
		return appendIDs(appendStrs(out, names), heads...), err
	case OpHeads:
		from := d.str()
		if err := d.done(); err != nil {
			return nil, err
		}
		return s.headsPage(out, from, headsPageLimit)
	case OpPutChunks:
		ids := d.ids()
		cs := d.chunks(ids)
		if err := d.done(); err != nil {
			return nil, err
		}
		// Verify every claimed id up front (content addressing is the
		// integrity contract in both directions), then land the whole batch
		// in one store round.
		for i, c := range cs {
			if err := c.Recheck(); err != nil {
				return nil, fmt.Errorf("chunk %d: %w", i, err)
			}
		}
		fresh, err := s.st.PutBatch(cs)
		return appendFlags(out, fresh...), err
	case OpGetChunks, OpHasChunks:
		ids := d.ids()
		if err := d.done(); err != nil {
			return nil, err
		}
		if op == OpHasChunks {
			flags, err := s.st.HasBatch(ids)
			return appendFlags(out, flags...), err
		}
		cs, err := s.st.GetBatch(ids)
		if err != nil {
			return nil, err
		}
		return appendChunkReply(out, cs, MaxPayload), nil
	default:
		return nil, fmt.Errorf("unknown op %d", op)
	}
}

// headsPageLimit bounds a heads page's payload.
var headsPageLimit = MaxPayload

// headsPage appends a page of the heads of the keys from `from` on, whole
// keys in key order and branches in name order: key/branch pairs (strs),
// their heads (ids) and a flag that keys remain which did not fit in limit
// bytes.  The first key always ships, so asking again from the key after the
// last one listed makes progress.  Like core.ListHeads, whose listing it
// pages, it is no snapshot.
func (s *Server) headsPage(out []byte, from string, limit int) ([]byte, error) {
	all, err := core.ListHeads(s.heads)
	if err != nil {
		return nil, err
	}
	keys := make([]string, 0, len(all))
	for key := range all {
		if key >= from {
			keys = append(keys, key)
		}
	}
	sort.Strings(keys)
	var refs []string
	var uids []hash.Hash
	size := 3*binary.MaxVarintLen64 + 1 // three counts and the flag
	for _, key := range keys {
		n, grown := len(uids), size
		for _, b := range branchNames(all[key]) {
			refs, uids = append(refs, key, b), append(uids, all[key][b])
			grown += 2*binary.MaxVarintLen32 + len(key) + len(b) + hash.Size
		}
		if n > 0 && grown > limit {
			return appendFlags(appendIDs(appendStrs(out, refs[:2*n]), uids[:n]...), true), nil
		}
		size = grown
	}
	return appendFlags(appendIDs(appendStrs(out, refs), uids...), false), nil
}

// branchNames returns the names in branches, sorted.
func branchNames(branches map[string]hash.Hash) []string {
	names := make([]string, 0, len(branches))
	for b := range branches {
		names = append(names, b)
	}
	sort.Strings(names)
	return names
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
