package main

import (
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"forkbase/internal/chunk"
	"forkbase/internal/core"
	"forkbase/internal/hash"
	"forkbase/internal/repl"
	"forkbase/internal/store"
)

// Tracing lives entirely in the harness: spans are recorded by wrappers the
// traced run puts around the interfaces each layer is reached through
// (store.Store, core.BranchTable, repl.Source, http.Handler) and around the
// public engine and index calls an op is made of.  The untraced run installs
// none of this.

// maxKeptSpans bounds the raw spans held for trace-<workload>.json; self
// times and counts are folded in for every span regardless.
const maxKeptSpans = 150000

type span struct {
	Name   string `json:"name"`
	Layer  string `json:"layer"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"` // index into the file's span list; -1 = root
	Op     int    `json:"op"`
}

type spanStat struct {
	count  int64
	durNs  int64
	selfNs int64
	durs   []float32 // µs, for medians
}

type tracer struct {
	t0 time.Time
	mu sync.Mutex

	cur     []span // spans of the op in flight
	op      int
	opKind  string
	kept    []span
	dropped int

	byName  map[string]*spanStat
	byLayer map[string]int64            // self ns
	byKind  map[string]map[string]int64 // op kind → layer → self ns; "unattributed" = root self
	kindNs  map[string]int64            // op kind → root ns

	bytes map[string]*atomic.Int64 // named byte/count tallies fed by the wrappers
	// watched are counters the program keeps itself (cache lookups, say),
	// read at op boundaries like the tallies.
	watched   map[string]func() int64
	atBegin   map[string]int64
	atEnd     map[string]int64
	kindTally map[string]map[string]int64 // op kind → tally → growth during ops of that kind
	kindSpans map[string]map[string]int64 // op kind → layer → spans
}

func newTracer() *tracer {
	return &tracer{
		t0: time.Now(), byName: map[string]*spanStat{}, byLayer: map[string]int64{},
		byKind: map[string]map[string]int64{}, kindNs: map[string]int64{}, bytes: map[string]*atomic.Int64{},
		watched: map[string]func() int64{}, atBegin: map[string]int64{}, atEnd: map[string]int64{},
		kindTally: map[string]map[string]int64{}, kindSpans: map[string]map[string]int64{},
	}
}

// watch has the tracer sample fn at op boundaries under the given name.
func (t *tracer) watch(name string, fn func() int64) {
	t.mu.Lock()
	t.watched[name] = fn
	t.mu.Unlock()
}

// reset forgets everything recorded so far (the set-up), keeping the
// wrappers' tally handles.
func (t *tracer) reset() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.cur, t.kept, t.dropped = t.cur[:0], nil, 0
	t.byName, t.byLayer = map[string]*spanStat{}, map[string]int64{}
	t.byKind, t.kindNs = map[string]map[string]int64{}, map[string]int64{}
	t.kindTally, t.kindSpans = map[string]map[string]int64{}, map[string]map[string]int64{}
	for _, c := range t.bytes {
		c.Store(0)
	}
}

// readTallies snapshots every tally and watched counter (t.mu held).
func (t *tracer) readTallies(into map[string]int64) {
	for name, c := range t.bytes {
		into[name] = c.Load()
	}
	for name, fn := range t.watched {
		into[name] = fn()
	}
}

// during reports how much the named tally grew inside ops of one kind.
func (t *tracer) during(kind, name string) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return float64(t.kindTally[kind][name])
}

// spansDuring counts the spans of one layer recorded inside ops of one kind.
func (t *tracer) spansDuring(kind, layer string) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return float64(t.kindSpans[kind][layer])
}

// tally returns the named counter; wrappers resolve theirs once.
func (t *tracer) tally(name string) *atomic.Int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	c, ok := t.bytes[name]
	if !ok {
		c = new(atomic.Int64)
		t.bytes[name] = c
	}
	return c
}

func (t *tracer) count(name string) int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if c, ok := t.bytes[name]; ok {
		return c.Load()
	}
	return 0
}

// start reads the clock; a nil tracer costs one branch.
func (t *tracer) start() time.Time {
	if t == nil {
		return time.Time{}
	}
	return time.Now()
}

func (t *tracer) end(name, layer string, start time.Time) {
	if t == nil {
		return
	}
	end := time.Now()
	t.mu.Lock()
	t.cur = append(t.cur, span{Name: name, Layer: layer, Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds(), Op: t.op})
	t.mu.Unlock()
}

// beginOp opens the root span of one script op (or one batch of them).
func (t *tracer) beginOp(kind string) time.Time {
	if t == nil {
		return time.Time{}
	}
	t.mu.Lock()
	t.op++
	t.opKind = kind
	t.cur = t.cur[:0]
	t.readTallies(t.atBegin)
	t.mu.Unlock()
	return time.Now()
}

// endOp closes the root span and folds the op's spans into the per-layer
// accounts: parents by containment, self time as a span's duration minus
// the part of it its children cover.
func (t *tracer) endOp(start time.Time) {
	if t == nil {
		return
	}
	end := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	root := span{Name: "op." + t.opKind, Layer: "edge", Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds(), Op: t.op}
	spans := append([]span{root}, t.cur...)
	sort.SliceStable(spans[1:], func(i, j int) bool {
		a, b := spans[1+i], spans[1+j]
		if a.Start != b.Start {
			return a.Start < b.Start
		}
		return a.End > b.End
	})
	// covered[i] is the union length of i's children, built from a running
	// high-water mark because children arrive sorted by start.
	covered := make([]int64, len(spans))
	mark := make([]int64, len(spans))
	var stack []int
	for i := range spans {
		s := &spans[i]
		for len(stack) > 0 && spans[stack[len(stack)-1]].End < s.End {
			stack = stack[:len(stack)-1]
		}
		s.Parent = -1
		if len(stack) > 0 {
			p := stack[len(stack)-1]
			s.Parent = p
			from := s.Start
			if mark[p] > from {
				from = mark[p]
			}
			if s.End > from {
				covered[p] += s.End - from
				mark[p] = s.End
			}
		}
		mark[i] = s.Start
		stack = append(stack, i)
	}
	kind := t.byKind[t.opKind]
	if kind == nil {
		kind = map[string]int64{}
		t.byKind[t.opKind] = kind
	}
	t.kindNs[t.opKind] += root.End - root.Start
	tallies, layers := t.kindTally[t.opKind], t.kindSpans[t.opKind]
	if tallies == nil {
		tallies, layers = map[string]int64{}, map[string]int64{}
		t.kindTally[t.opKind], t.kindSpans[t.opKind] = tallies, layers
	}
	t.readTallies(t.atEnd)
	for name, v := range t.atEnd {
		tallies[name] += v - t.atBegin[name]
	}
	for i, s := range spans {
		layers[s.Layer]++
		dur := s.End - s.Start
		self := dur - covered[i]
		st := t.byName[s.Name]
		if st == nil {
			st = &spanStat{}
			t.byName[s.Name] = st
		}
		st.count++
		st.durNs += dur
		st.selfNs += self
		if len(st.durs) < 1<<20 {
			st.durs = append(st.durs, float32(dur)/1e3)
		}
		layer := s.Layer
		if i == 0 {
			layer = "unattributed"
		}
		t.byLayer[layer] += self
		kind[layer] += self
	}
	if room := maxKeptSpans - len(t.kept); room >= len(spans) {
		base := len(t.kept)
		for _, s := range spans {
			if s.Parent >= 0 {
				s.Parent += base
			}
			t.kept = append(t.kept, s)
		}
	} else {
		t.dropped += len(spans)
	}
	t.cur = t.cur[:0]
}

func (t *tracer) stat(name string) spanStat {
	if t == nil {
		return spanStat{}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if s := t.byName[name]; s != nil {
		return *s
	}
	return spanStat{}
}

// meanUs is the mean duration of the named span in µs (0 if it never ran).
func (t *tracer) meanUs(name string) float64 {
	s := t.stat(name)
	if s.count == 0 {
		return 0
	}
	return float64(s.durNs) / float64(s.count) / 1e3
}

func (t *tracer) p50Us(names ...string) float64 {
	var all []float64
	for _, n := range names {
		for _, d := range t.stat(n).durs {
			all = append(all, float64(d))
		}
	}
	return median(all)
}

// write dumps the kept spans and the per-layer self times.
func (t *tracer) write(path, workload string, seed int64) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	us := func(m map[string]int64) map[string]float64 {
		out := map[string]float64{}
		for k, v := range m {
			out[k] = float64(v) / 1e3
		}
		return out
	}
	perKind := map[string]any{}
	for k, m := range t.byKind {
		frac := 0.0
		if t.kindNs[k] > 0 {
			frac = float64(m["unattributed"]) / float64(t.kindNs[k])
		}
		perKind[k] = map[string]any{"total_us": float64(t.kindNs[k]) / 1e3, "self_us_by_layer": us(m), "unattributed_frac": frac}
	}
	doc := map[string]any{
		"workload": workload, "seed": seed,
		"self_us_by_layer": us(t.byLayer), "by_op_kind": perKind,
		"spans_dropped": t.dropped, "spans": t.kept,
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// ---- store.Store ------------------------------------------------------------

// spanStore records a span per chunk-store call.  It declares Unwrap so the
// trust, placement-epoch, kind and collector discoveries still reach the
// store underneath; the verified-index capability, which the verifying
// layer only takes from its immediate inner store, is forwarded by
// spanVerifiedStore.
type spanStore struct {
	store.Store
	t     *tracer
	layer string
	pfx   string

	gets, puts, putBytes, dedup, has, hasHits, chunks *atomic.Int64
}

type spanVerifiedStore struct {
	*spanStore
	vi store.VerifiedIndexer
}

func (t *tracer) wrapStore(inner store.Store, layer, pfx string) store.Store {
	s := &spanStore{Store: inner, t: t, layer: layer, pfx: pfx,
		gets: t.tally(pfx + ".gets"), puts: t.tally(pfx + ".puts"), putBytes: t.tally(pfx + ".put_bytes"),
		dedup: t.tally(pfx + ".dedup"), has: t.tally(pfx + ".has"), hasHits: t.tally(pfx + ".has_hits"),
		chunks: t.tally(pfx + ".chunks")}
	if vi, ok := inner.(store.VerifiedIndexer); ok {
		return &spanVerifiedStore{spanStore: s, vi: vi}
	}
	return s
}

func (s *spanStore) Unwrap() store.Store { return s.Store }

func (s *spanStore) Get(id hash.Hash) (*chunk.Chunk, error) {
	st := s.t.start()
	c, err := s.Store.Get(id)
	s.t.end(s.pfx+".get", s.layer, st)
	s.gets.Add(1)
	s.chunks.Add(1)
	return c, err
}

func (s *spanStore) Has(id hash.Hash) (bool, error) {
	st := s.t.start()
	ok, err := s.Store.Has(id)
	s.t.end(s.pfx+".has", s.layer, st)
	s.has.Add(1)
	if ok {
		s.hasHits.Add(1)
	}
	return ok, err
}

func (s *spanStore) notePuts(cs []*chunk.Chunk, fresh []bool) {
	for i, c := range cs {
		s.puts.Add(1)
		s.putBytes.Add(int64(c.Size()))
		if i < len(fresh) && !fresh[i] {
			s.dedup.Add(1)
		}
	}
	s.chunks.Add(int64(len(cs)))
}

func (s *spanStore) Put(c *chunk.Chunk) (bool, error) {
	st := s.t.start()
	fresh, err := s.Store.Put(c)
	s.t.end(s.pfx+".put", s.layer, st)
	s.notePuts([]*chunk.Chunk{c}, []bool{fresh})
	return fresh, err
}

func (s *spanStore) PutBatch(cs []*chunk.Chunk) ([]bool, error) {
	st := s.t.start()
	fresh, err := store.PutBatch(s.Store, cs)
	s.t.end(s.pfx+".put_batch", s.layer, st)
	s.notePuts(cs, fresh)
	return fresh, err
}

func (s *spanStore) GetBatch(ids []hash.Hash) ([]*chunk.Chunk, error) {
	st := s.t.start()
	cs, err := store.GetBatch(s.Store, ids)
	s.t.end(s.pfx+".get_batch", s.layer, st)
	s.gets.Add(int64(len(ids)))
	s.chunks.Add(int64(len(ids)))
	return cs, err
}

func (s *spanStore) HasBatch(ids []hash.Hash) ([]bool, error) {
	st := s.t.start()
	oks, err := store.HasBatch(s.Store, ids)
	s.t.end(s.pfx+".has_batch", s.layer, st)
	s.has.Add(int64(len(ids)))
	return oks, err
}

func (s *spanVerifiedStore) GetVerified(id hash.Hash) (*chunk.Chunk, bool, error) {
	st := s.t.start()
	c, ok, err := s.vi.GetVerified(id)
	s.t.end(s.pfx+".get", s.layer, st)
	s.gets.Add(1)
	s.chunks.Add(1)
	return c, ok, err
}
func (s *spanVerifiedStore) MarkVerified(id hash.Hash, epoch uint64) { s.vi.MarkVerified(id, epoch) }
func (s *spanVerifiedStore) UnmarkVerified(id hash.Hash)             { s.vi.UnmarkVerified(id) }
func (s *spanVerifiedStore) UnmarkAllVerified()                      { s.vi.UnmarkAllVerified() }
func (s *spanVerifiedStore) VerifiedServes() int64                   { return s.vi.VerifiedServes() }

var (
	_ store.BatchStore      = (*spanStore)(nil)
	_ store.BatchReadStore  = (*spanStore)(nil)
	_ store.VerifiedIndexer = (*spanVerifiedStore)(nil)
)

// ---- core.BranchTable -------------------------------------------------------

// spanHeads records a span per branch-table call.  headsFile, when set, is
// the file a FileBranchTable rewrites on every CAS; its size after the call
// is what that CAS wrote.
type spanHeads struct {
	core.BranchTable
	t         *tracer
	layer     string
	pfx       string
	headsFile string
	cas, wr   *atomic.Int64
}

func (t *tracer) wrapHeads(inner core.BranchTable, layer, pfx, headsFile string) core.BranchTable {
	return &spanHeads{BranchTable: inner, t: t, layer: layer, pfx: pfx, headsFile: headsFile,
		cas: t.tally(pfx + ".cas"), wr: t.tally(pfx + ".cas_bytes")}
}

func (h *spanHeads) Head(key, branch string) (hash.Hash, bool, error) {
	st := h.t.start()
	uid, ok, err := h.BranchTable.Head(key, branch)
	h.t.end(h.pfx+".head", h.layer, st)
	return uid, ok, err
}

func (h *spanHeads) CompareAndSet(key, branch string, old, new hash.Hash) (bool, error) {
	st := h.t.start()
	ok, err := h.BranchTable.CompareAndSet(key, branch, old, new)
	h.t.end(h.pfx+".cas", h.layer, st)
	h.cas.Add(1)
	if h.headsFile != "" {
		if fi, err := os.Stat(h.headsFile); err == nil {
			h.wr.Add(fi.Size())
		}
	}
	return ok, err
}

func (h *spanHeads) Branches(key string) (map[string]hash.Hash, error) {
	st := h.t.start()
	m, err := h.BranchTable.Branches(key)
	h.t.end(h.pfx+".branches", h.layer, st)
	return m, err
}

// ---- repl.Source ------------------------------------------------------------

type spanSource struct {
	repl.Source
	t               *tracer
	fetches, chunks *atomic.Int64
}

func (t *tracer) wrapSource(inner repl.Source) repl.Source {
	return &spanSource{Source: inner, t: t, fetches: t.tally("repl.fetches"), chunks: t.tally("repl.chunks")}
}

func (s *spanSource) GetChunks(ids []hash.Hash) ([]*chunk.Chunk, error) {
	st := s.t.start()
	cs, err := s.Source.GetChunks(ids)
	s.t.end("repl.fetch", "repl", st)
	s.fetches.Add(1)
	s.chunks.Add(int64(len(ids)))
	return cs, err
}

func (s *spanSource) Heads() (map[string]map[string]hash.Hash, error) {
	st := s.t.start()
	m, err := s.Source.Heads()
	s.t.end("repl.heads", "repl", st)
	return m, err
}

func (s *spanSource) FeedSince(c core.FeedCursor, limit int, wait time.Duration) ([]core.FeedEntry, core.FeedCursor, bool, error) {
	st := s.t.start()
	es, next, trunc, err := s.Source.FeedSince(c, limit, wait)
	s.t.end("repl.feed", "repl", st)
	return es, next, trunc, err
}

func (s *spanSource) Pin(root hash.Hash) error {
	st := s.t.start()
	err := s.Source.Pin(root)
	s.t.end("repl.pin", "repl", st)
	return err
}

func (s *spanSource) Unpin(root hash.Hash) error {
	st := s.t.start()
	err := s.Source.Unpin(root)
	s.t.end("repl.pin", "repl", st)
	return err
}

// ---- http.Handler -----------------------------------------------------------

type countingBody struct {
	http.ResponseWriter
	code int
	n    int64
}

func (c *countingBody) WriteHeader(code int) {
	if c.code == 0 {
		c.code = code
	}
	c.ResponseWriter.WriteHeader(code)
}

func (c *countingBody) Write(b []byte) (int, error) {
	if c.code == 0 {
		c.code = http.StatusOK
	}
	c.n += int64(len(b))
	return c.ResponseWriter.Write(b)
}

// wrapHandler is the span middleware around the handler rest.New returns.
func (t *tracer) wrapHandler(next http.Handler) http.Handler {
	reqs, reqB, respB, bad := t.tally("rest.reqs"), t.tally("rest.req_bytes"), t.tally("rest.resp_bytes"), t.tally("rest.non2xx")
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		cb := &countingBody{ResponseWriter: w}
		st := t.start()
		next.ServeHTTP(cb, r)
		t.end("rest.handler", "rest", st)
		reqs.Add(1)
		if r.ContentLength > 0 {
			reqB.Add(r.ContentLength)
		}
		respB.Add(cb.n)
		if cb.code < 200 || cb.code > 299 {
			bad.Add(1)
		}
	})
}
