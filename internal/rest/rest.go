// Package rest exposes the ForkBase engine over HTTP/JSON — the RESTful API
// of the paper's semantic-view layer (Fig 1).  Its routes are the table
// routes below New: every path, the methods it answers, which of them write,
// and each path's query parameters.
package rest

import (
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"strconv"
	"strings"
	"time"

	"forkbase/internal/core"
	"forkbase/internal/dataset"
	"forkbase/internal/hash"
	"forkbase/internal/index"
	"forkbase/internal/obs"
	"forkbase/internal/pos"
	"forkbase/internal/repl"
	"forkbase/internal/store"
	"forkbase/internal/value"
)

// Handler serves the REST API over a core engine.
type Handler struct {
	db         *core.DB
	mux        *http.ServeMux
	replStatus func() repl.Stats     // nil on non-replicas
	ready      func() (bool, string) // nil = always ready

	reg     *obs.Registry // the engine's, exposed at /v1/metrics(.json)
	met     *restMetrics
	logger  *slog.Logger
	slowReq time.Duration // 0 = no slow-request logging
}

// New builds the handler.  Metrics go to the engine's registry, the logger
// defaults to slog.Default(); override it with WithLogger.
func New(db *core.DB) *Handler {
	h := &Handler{db: db, mux: http.NewServeMux(), logger: slog.Default()}
	h.reg = db.Metrics()
	h.met = newRESTMetrics(h.reg)
	seen := map[string]bool{}
	for _, rt := range routes {
		pattern, _, _ := strings.Cut(rt.path, "{") // a family's templates share its prefix
		if !seen[pattern] {
			seen[pattern] = true
			h.mux.HandleFunc(pattern, h.dispatch)
		}
	}
	return h
}

// route is one method of one path of the API.  The path is exact, or a
// template whose {key} or {name} is one path segment (see families).  A
// write is refused with 403 on a read-only node, a replica whose state moves
// only through replication, before its handler reads the request.
type route struct {
	method, path string
	write        bool
	serve        action
}

// action serves a route for the key or dataset name in its path ("" for an
// exact path).
type action func(h *Handler, w http.ResponseWriter, r *http.Request, name string)

const reads, writes = false, true

// routes is the REST API: New registers its paths on the mux, dispatch
// answers every request from it, and routeLabel labels every request's
// metrics with its templates.  A path's methods are listed in the order its
// 405 answer names them.
var routes = []route{
	{"GET", "/v1/keys", reads, (*Handler).keys},
	{"GET", "/v1/obj/{key}", reads, (*Handler).getObject},       // ?branch=B, or ?uid=U
	{"PUT", "/v1/obj/{key}", writes, (*Handler).putObject},      // ?branch=B; JSON body
	{"GET", "/v1/obj/{key}/history", reads, (*Handler).history}, // ?branch=B&limit=N
	{"GET", "/v1/obj/{key}/branches", reads, (*Handler).branches},
	{"POST", "/v1/obj/{key}/branch", writes, (*Handler).branch},  // JSON body
	{"POST", "/v1/obj/{key}/merge", writes, (*Handler).merge},    // JSON body
	{"GET", "/v1/obj/{key}/diff", reads, (*Handler).diff},        // ?from=B1&to=B2
	{"GET", "/v1/obj/{key}/verify", reads, (*Handler).verify},    // ?uid=U&deep=1
	{"GET", "/v1/dataset/{name}", reads, (*Handler).exportCSV},   // ?branch=B
	{"POST", "/v1/dataset/{name}", writes, (*Handler).importCSV}, // ?branch=B&key=COL, or ?branch=B&append=1; CSV body
	{"GET", "/v1/dataset/{name}/stat", reads, (*Handler).datasetStat},
	{"GET", "/v1/dataset/{name}/diff", reads, (*Handler).datasetDiff}, // ?from=B1&to=B2
	{"POST", "/v1/batch", writes, (*Handler).batch},                   // JSON body
	{"POST", "/v1/gc", writes, (*Handler).gc},
	{"POST", "/v1/scrub", reads, (*Handler).scrub}, // local maintenance, not a logical write
	{"GET", "/v1/stats", reads, (*Handler).stats},
	{"GET", "/v1/repl/status", reads, (*Handler).replStatusHandler},
	{"GET", "/v1/healthz", reads, (*Handler).healthz},
	{"GET", "/v1/metrics", reads, (*Handler).metricsProm},
	{"GET", "/v1/metrics.json", reads, (*Handler).metricsJSON},
}

// families are the templates with a {key} or {name} segment, by the prefix
// the mux serves them under: root is the template of the name itself, and
// the action after the name picks root + "/" + action.  A path with no name
// is answered "missing " + noun.
var families = []struct{ prefix, root, noun string }{
	{"/v1/obj/", "/v1/obj/{key}", "key"},
	{"/v1/dataset/", "/v1/dataset/{name}", "dataset name"},
}

// byPath is routes by path, each path's methods in table order.
var byPath = func() map[string][]route {
	m := map[string][]route{}
	for _, rt := range routes {
		m[rt.path] = append(m[rt.path], rt)
	}
	return m
}()

// resolve finds the routes serving path, one per method, the {key} or
// {name} in it and its metric label.  A path under a family with no name,
// or with an action the family lacks, gets the status and text to refuse it
// with (400, 404); the latter is labelled root + "/?".  A path outside the
// table has no routes and is labelled "other".
func resolve(path string) (rs []route, name, label string, code int, refusal string) {
	for _, f := range families {
		rest, ok := strings.CutPrefix(path, f.prefix)
		if !ok {
			continue
		}
		name, act, _ := strings.Cut(rest, "/")
		if rs = byPath[f.root]; act != "" {
			rs = byPath[f.root+"/"+act]
		}
		if rs == nil {
			label, code, refusal = f.root+"/?", http.StatusNotFound, "unknown action "+act
		} else {
			label = rs[0].path
		}
		if name == "" {
			rs, code, refusal = nil, http.StatusBadRequest, "missing "+f.noun
		}
		return rs, name, label, code, refusal
	}
	if rs = byPath[path]; rs == nil {
		return nil, "", "other", 0, ""
	}
	return rs, "", path, 0, ""
}

// dispatch answers a request from the route table: a path resolve refuses,
// then a method the path does not list (405), then a write on a read-only
// node (403), each before the route's handler reads anything.
func (h *Handler) dispatch(w http.ResponseWriter, r *http.Request) {
	rs, name, _, code, refusal := resolve(r.URL.Path)
	if code != 0 {
		writeJSON(w, code, errorBody{Error: refusal})
		return
	}
	for _, rt := range rs {
		if rt.method != r.Method {
			continue
		}
		if rt.write && h.db.ReadOnly() {
			writeJSON(w, http.StatusForbidden, errorBody{Error: "node is a read-only replica (write to the primary)"})
			return
		}
		rt.serve(h, w, r, name)
		return
	}
	writeJSON(w, http.StatusMethodNotAllowed, errorBody{Error: allowed(rs)})
}

// allowed is a 405 answer's text: the methods a path's routes answer, "GET
// only" or "GET or PUT".
func allowed(rs []route) string {
	if len(rs) == 1 {
		return rs[0].method + " only"
	}
	methods := make([]string, len(rs))
	for i, rt := range rs {
		methods[i] = rt.method
	}
	return strings.Join(methods, " or ")
}

// WithScrubber does nothing and returns h.  Scrub and store health come
// from the engine (core.DB.Scrub, StoreHealth, LastScrub), which finds a
// file store anywhere in its stack; the frozen benchmark harness
// (benchmark/rig.go) still calls this and is the only reason it remains.
func (h *Handler) WithScrubber(store.Scrubber) *Handler { return h }

// WithReadiness installs the readiness predicate behind /v1/healthz.  A
// replica wires its follower's lag check here (forkbased: reachable and
// within -max-lag feed entries); a primary usually leaves it nil (always
// ready).  The detail string explains a not-ready verdict.  Returns h for
// chaining.
func (h *Handler) WithReadiness(fn func() (bool, string)) *Handler {
	h.ready = fn
	return h
}

// healthz serves GET /v1/healthz — the probe endpoint load balancers and
// orchestrators poll.  Answering at all is liveness; the status code is
// readiness: 200 when serving-fit, 503 (with Retry-After) when not — e.g. a
// follower lagging beyond its threshold or cut off from its primary.
func (h *Handler) healthz(w http.ResponseWriter, r *http.Request, _ string) {
	ready, detail := true, ""
	if h.ready != nil {
		ready, detail = h.ready()
	}
	body := map[string]any{"alive": true, "ready": ready}
	if detail != "" {
		body["detail"] = detail
	}
	if h.reg != nil && h.reg != obs.Discard {
		// Registry-derived vitals, so one probe answers "is it healthy AND is
		// it doing work".  Counter families only — gauge funcs may probe the
		// network (repl lag) and a health check must stay cheap.
		body["metrics"] = map[string]any{
			"engine_ops":            h.reg.Sum("forkbase_engine_ops_total"),
			"engine_errors":         h.reg.Sum("forkbase_engine_errors_total"),
			"http_requests":         h.reg.Sum("forkbase_http_requests_total"),
			"server_requests":       h.reg.Sum("forkbase_server_requests_total"),
			"store_errors":          h.reg.Sum("forkbase_store_errors_total"),
			"cache_hits":            h.reg.Sum("forkbase_cache_hits_total"),
			"cache_misses":          h.reg.Sum("forkbase_cache_misses_total"),
			"retry_gaveup":          h.reg.Sum("forkbase_retry_gaveup_total"),
			"verify_cache_hits":     h.reg.Sum("forkbase_verify_cache_hits_total"),
			"verify_cache_misses":   h.reg.Sum("forkbase_verify_cache_misses_total"),
			"verify_skipped_hashes": h.reg.Sum("forkbase_verify_skipped_hashes_total"),
		}
	}
	if _, disk := store.As[store.Scrubber](h.db.RawStore()); disk {
		// Store health is reported, not folded into readiness: a store with
		// lost chunks still serves every intact version, and taking it out of
		// rotation would also take out its repair path (heal needs to reach
		// it).  Operators alert on store_health != "ok".
		if herr := h.db.StoreHealth(); herr != nil {
			body["store_health"] = herr.Error()
		} else {
			body["store_health"] = "ok"
		}
		if st, at, ok := h.db.LastScrub(); ok {
			body["last_scrub"] = map[string]any{
				"at":                   at.UTC().Format(time.RFC3339),
				"segments":             st.Segments,
				"ok":                   st.Ok,
				"corrupt":              st.Corrupt,
				"torn":                 st.Torn,
				"unreadable":           st.Unreadable,
				"quarantined_segments": st.QuarantinedSegments,
				"rescued":              st.Rescued,
				"lost":                 len(st.Lost),
			}
		}
	}
	if !ready {
		writeJSON(w, http.StatusServiceUnavailable, body)
		return
	}
	writeJSON(w, http.StatusOK, body)
}

// WithReplStatus publishes replication progress at GET /v1/repl/status;
// nodes that are not replicas report {"following": false}.  Returns h for
// chaining.
func (h *Handler) WithReplStatus(fn func() repl.Stats) *Handler {
	h.replStatus = fn
	return h
}

func (h *Handler) replStatusHandler(w http.ResponseWriter, r *http.Request, _ string) {
	if h.replStatus == nil {
		writeJSON(w, http.StatusOK, map[string]any{"following": false})
		return
	}
	s := h.replStatus()
	writeJSON(w, http.StatusOK, map[string]any{
		"following":        true,
		"cursor":           s.Cursor,
		"rounds":           s.Rounds,
		"snapshots":        s.Snapshots,
		"heads_applied":    s.HeadsApplied,
		"branches_deleted": s.BranchesDeleted,
		"chunks_fetched":   s.ChunksFetched,
		"bytes_fetched":    s.BytesFetched,
		"chunks_skipped":   s.ChunksSkipped,
		"errors":           s.Errors,
		"last_error":       s.LastError,
	})
}

type errorBody struct {
	Error string `json:"error"`
}

// writeJSON answers v under code; a 503 carries the Retry-After hint.
func writeJSON(w http.ResponseWriter, code int, v any) {
	if code == http.StatusServiceUnavailable {
		w.Header().Set("Retry-After", retryAfterSeconds)
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

// retryAfterSeconds is the backpressure hint shipped with every 503: long
// enough to shed a retry storm, short enough that a healed store is
// rediscovered quickly.
const retryAfterSeconds = "1"

// statusOf is the single engine-error→HTTP-status mapping.  Every handler
// funnels non-validation errors through it (writeErr), so a given engine
// condition surfaces as the same status on every route: absence is 404, lost
// races and conflicts are 409, a missing store capability is 501, detected
// tampering is 502, and a transiently unavailable store is 503 (writeJSON
// adds a Retry-After hint: back off, don't fail over).  Anything
// unrecognized stays a 500 — a genuine server-side fault.
func statusOf(err error) int {
	switch {
	case errors.Is(err, store.ErrUnavailable):
		return http.StatusServiceUnavailable
	case errors.Is(err, core.ErrBranchNotFound),
		errors.Is(err, core.ErrKeyNotFound),
		errors.Is(err, index.ErrKeyNotFound),
		errors.Is(err, store.ErrNotFound):
		return http.StatusNotFound
	case errors.Is(err, core.ErrBranchExists),
		errors.Is(err, core.ErrStaleHead),
		errors.Is(err, core.ErrCollected):
		return http.StatusConflict
	case errors.Is(err, store.ErrTooLarge):
		return http.StatusRequestEntityTooLarge
	case errors.Is(err, core.ErrNotCollectable),
		errors.Is(err, core.ErrNotScrubbable):
		return http.StatusNotImplemented
	case errors.Is(err, core.ErrTampered):
		return http.StatusBadGateway // the storage layer is lying to us
	}
	return http.StatusInternalServerError
}

// writeErr answers err with its message under its status (statusOf).
func writeErr(w http.ResponseWriter, err error) {
	writeJSON(w, statusOf(err), errorBody{Error: err.Error()})
}

// writeBadBody answers a request body the route cannot use with msg: 413 when
// err is the read that ran past the body cap (see ServeHTTP) or a CSV line
// past the dataset package's line bound, else 400.
func writeBadBody(w http.ResponseWriter, err error, msg string) {
	code := http.StatusBadRequest
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) || errors.Is(err, dataset.ErrLineTooLong) {
		code = http.StatusRequestEntityTooLarge
	}
	writeJSON(w, code, errorBody{Error: msg})
}

// versionBody is the JSON rendering of a Version.
type versionBody struct {
	UID    string            `json:"uid"`
	Seq    uint64            `json:"seq"`
	Bases  []string          `json:"bases,omitempty"`
	Kind   string            `json:"kind"`
	Value  string            `json:"value"`
	Count  uint64            `json:"count,omitempty"`
	Index  string            `json:"index,omitempty"` // map/set index structure
	Meta   map[string]string `json:"meta,omitempty"`
	Branch string            `json:"branch,omitempty"`
}

func renderVersion(v core.Version, branch string) versionBody {
	out := versionBody{
		UID:    v.UID.String(),
		Seq:    v.Seq,
		Kind:   v.Value.Kind().String(),
		Value:  v.Value.Display(),
		Meta:   v.Meta,
		Branch: branch,
	}
	if k := v.Value.Kind(); k == value.KindMap || k == value.KindSet {
		out.Index = v.Value.IndexKind().String()
	}
	if v.Value.Kind().Composite() {
		out.Count = v.Value.Count()
	}
	for _, b := range v.Bases {
		out.Bases = append(out.Bases, b.String())
	}
	return out
}

func (h *Handler) keys(w http.ResponseWriter, r *http.Request, _ string) {
	keys, err := h.db.ListKeys()
	if err != nil {
		writeErr(w, err)
		return
	}
	if keys == nil {
		keys = []string{}
	}
	writeJSON(w, http.StatusOK, map[string]any{"keys": keys})
}

func (h *Handler) stats(w http.ResponseWriter, r *http.Request, _ string) {
	s := h.db.Stats()
	writeJSON(w, http.StatusOK, map[string]any{
		"unique_chunks":  s.UniqueChunks,
		"physical_bytes": s.PhysicalBytes,
		"logical_bytes":  s.LogicalBytes,
		"dedup_ratio":    s.DedupRatio(),
		"dedup_hits":     s.DedupHits,
		"index":          h.db.IndexKind().String(),
	})
}

func branchParam(r *http.Request) string { return branchOrDefault(r.URL.Query().Get("branch")) }

// branchOrDefault is the branch a write that names none goes to.
func branchOrDefault(b string) string {
	if b == "" {
		return core.DefaultBranch
	}
	return b
}

func (h *Handler) getObject(w http.ResponseWriter, r *http.Request, key string) {
	branch := branchParam(r)
	if uidStr := r.URL.Query().Get("uid"); uidStr != "" {
		uid, err := parseUID(uidStr)
		if err != nil {
			writeJSON(w, http.StatusBadRequest, errorBody{Error: err.Error()})
			return
		}
		v, err := h.db.GetVersion(key, uid)
		if err != nil {
			writeErr(w, err)
			return
		}
		writeJSON(w, http.StatusOK, renderVersion(v, ""))
		return
	}
	v, err := h.db.GetCtx(r.Context(), key, branch)
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, renderVersion(v, branch))
}

// putObject serves PUT /v1/obj/{key}, whose body is
//
//	{"kind": "string|int|float|bool|map|set|list|blob", "value": "...",
//	 "entries": {"k": "v", ...}, "items": ["...", ...], "meta": {"k": "v", ...}}
//
// with value for the scalar kinds and blob, entries for map, and items for
// list and set (body.go decodes it).
func (h *Handler) putObject(w http.ResponseWriter, r *http.Request, key string) {
	body, err := decodeBody(r, decodePut)
	if err != nil {
		writeBadBody(w, err, "bad JSON: "+err.Error())
		return
	}
	// Build + commit under the GC write fence: a concurrent POST /v1/gc
	// cannot sweep the value's chunks before the head publishes them.
	var badReq error
	ver, err := h.db.BuildAndPutCtx(r.Context(), key, branchParam(r), body.meta, func() (value.Value, error) {
		v, err := h.buildValue(body)
		if err != nil {
			badReq = err
		}
		return v, err
	})
	if badReq != nil {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: badReq.Error()})
		return
	}
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusCreated, renderVersion(ver, branchParam(r)))
}

func (h *Handler) buildValue(body putReq) (value.Value, error) {
	switch body.kind {
	case "", "string":
		return value.String(body.value), nil
	case "int":
		i, err := strconv.ParseInt(body.value, 10, 64)
		if err != nil {
			return value.Value{}, fmt.Errorf("bad int: %w", err)
		}
		return value.Int(i), nil
	case "float":
		f, err := strconv.ParseFloat(body.value, 64)
		if err != nil {
			return value.Value{}, fmt.Errorf("bad float: %w", err)
		}
		return value.Float(f), nil
	case "bool":
		b, err := strconv.ParseBool(body.value)
		if err != nil {
			return value.Value{}, fmt.Errorf("bad bool: %w", err)
		}
		return value.Bool(b), nil
	case "blob":
		return value.NewBlob(h.db.Store(), h.db.Chunking(), []byte(body.value))
	case "map":
		var entries []pos.Entry
		if body.entries != nil {
			entries = *body.entries
		}
		// Engine helper: the map is indexed with the engine's configured
		// structure (POS-Tree or MPT).
		return h.db.NewMapValue(entries)
	case "set":
		elems := make([][]byte, len(body.items))
		for i, s := range body.items {
			elems[i] = []byte(s)
		}
		return h.db.NewSetValue(elems)
	case "list":
		items := make([][]byte, len(body.items))
		for i, s := range body.items {
			items[i] = []byte(s)
		}
		return value.NewList(h.db.Store(), h.db.Chunking(), items)
	default:
		return value.Value{}, fmt.Errorf("unknown kind %q", body.kind)
	}
}

// batch handles POST /v1/batch, whose body is {"ops": [op, ...]}, each op a
// put body with the op's "key" and, optionally, its "branch".  The ops'
// version objects are committed through the engine's batched write path (one
// store round for all FNodes, one Apply for all heads), the bulk-ingest entry
// point for REST clients.
// The batch commits all or nothing: 201 with a version per op, in op order,
// or an error — 409 when a head it derives from moved — and no op
// committed.
func (h *Handler) batch(w http.ResponseWriter, r *http.Request, _ string) {
	body, err := decodeBody(r, decodeBatch)
	if err != nil {
		writeBadBody(w, err, "bad JSON: "+err.Error())
		return
	}
	if len(body) == 0 {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: "need ops"})
		return
	}
	for i, op := range body {
		if op.key == "" {
			writeJSON(w, http.StatusBadRequest, errorBody{Error: fmt.Sprintf("op %d: missing key", i)})
			return
		}
	}
	// Values are built inside the GC write fence along with the commit, so
	// a concurrent collection cannot sweep them mid-batch.
	var badReq error
	ops := make([]core.WriteOp, len(body))
	vers, err := h.db.BuildAndWriteBatchCtx(r.Context(), func() ([]core.WriteOp, error) {
		for i, op := range body {
			v, err := h.buildValue(op.putReq)
			if err != nil {
				badReq = fmt.Errorf("op %d: %w", i, err)
				return nil, badReq
			}
			ops[i] = core.WriteOp{Key: op.key, Branch: branchOrDefault(op.branch), Value: v, Meta: op.meta}
		}
		return ops, nil
	})
	if badReq != nil {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: badReq.Error()})
		return
	}
	if err != nil {
		writeErr(w, err)
		return
	}
	out := make([]versionBody, len(vers))
	for i, v := range vers {
		out[i] = renderVersion(v, ops[i].Branch)
	}
	writeJSON(w, http.StatusCreated, map[string]any{"versions": out})
}

// gc handles POST /v1/gc: a full mark-and-sweep over the engine's store,
// with log compaction on file-backed stores.  Stores without a collection
// capability answer 501.
func (h *Handler) gc(w http.ResponseWriter, r *http.Request, _ string) {
	stats, err := h.db.GC()
	if err != nil {
		writeErr(w, err) // ErrNotCollectable maps to 501 like everywhere else
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"live":               stats.Live,
		"swept":              stats.Swept,
		"swept_bytes":        stats.SweptBytes,
		"reclaimed_bytes":    stats.ReclaimedBytes,
		"compacted_segments": stats.CompactedSegments,
		"relocated":          stats.Relocated,
	})
}

// scrub handles POST /v1/scrub: rehash every on-disk chunk, quarantine
// damaged segments, report the classification.  Scrub is local maintenance,
// not a logical write, so read-only replicas may run it too; stores without
// disk answer 501.
func (h *Handler) scrub(w http.ResponseWriter, r *http.Request, _ string) {
	st, err := h.db.Scrub()
	if err != nil {
		writeErr(w, err) // ErrNotScrubbable: 501, a store with no disk
		return
	}
	lost := make([]string, len(st.Lost))
	for i, id := range st.Lost {
		lost[i] = id.String()
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"segments":             st.Segments,
		"scanned_bytes":        st.ScannedBytes,
		"ok":                   st.Ok,
		"corrupt":              st.Corrupt,
		"torn":                 st.Torn,
		"unreadable":           st.Unreadable,
		"quarantined_segments": st.QuarantinedSegments,
		"rescued":              st.Rescued,
		"lost":                 lost,
		"elapsed_ns":           st.ElapsedNs,
		"healthy":              h.db.StoreHealth() == nil,
	})
}

func (h *Handler) history(w http.ResponseWriter, r *http.Request, key string) {
	limit := 0
	if l := r.URL.Query().Get("limit"); l != "" {
		limit, _ = strconv.Atoi(l)
	}
	versions, err := h.db.History(key, branchParam(r), limit)
	if err != nil {
		writeErr(w, err)
		return
	}
	out := make([]versionBody, len(versions))
	for i, v := range versions {
		out[i] = renderVersion(v, "")
	}
	writeJSON(w, http.StatusOK, map[string]any{"history": out})
}

// branches lists the key's heads from one read of the branch table, so a
// branch deleted meanwhile is either listed or not, never a failed listing.
func (h *Handler) branches(w http.ResponseWriter, r *http.Request, key string) {
	bs, err := h.db.BranchTable().Branches(key)
	if err != nil {
		writeErr(w, err)
		return
	}
	heads := make(map[string]string, len(bs))
	for b, uid := range bs {
		heads[b] = uid.String()
	}
	writeJSON(w, http.StatusOK, map[string]any{"branches": heads})
}

// branch serves POST /v1/obj/{key}/branch, whose body is {"new": B, "from":
// A}, from optional.
func (h *Handler) branch(w http.ResponseWriter, r *http.Request, key string) {
	body, err := decodeBody(r, decodeBranch)
	if err != nil || body.new == "" {
		writeBadBody(w, err, "need {new, from?}")
		return
	}
	if err := h.db.Branch(key, body.new, body.from); err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusCreated, map[string]string{"branch": body.new})
}

// merge serves POST /v1/obj/{key}/merge, whose body is {"into": B, "from":
// A, "resolve": "ours|theirs", "message": M}, the last two optional.
func (h *Handler) merge(w http.ResponseWriter, r *http.Request, key string) {
	body, err := decodeBody(r, decodeMerge)
	if err != nil || body.into == "" || body.from == "" {
		writeBadBody(w, err, "need {into, from}")
		return
	}
	var resolve index.Resolver
	switch body.resolve {
	case "":
	case "ours":
		resolve = index.ResolveOurs
	case "theirs":
		resolve = index.ResolveTheirs
	default:
		writeJSON(w, http.StatusBadRequest, errorBody{Error: "resolve must be ours|theirs"})
		return
	}
	meta := map[string]string{}
	if body.message != "" {
		meta["message"] = body.message
	}
	res, err := h.db.MergeCtx(r.Context(), key, body.into, body.from, resolve, meta)
	if err != nil {
		var ce *index.ErrConflict
		if errors.As(err, &ce) {
			conflicts := make([]map[string]string, len(ce.Conflicts))
			for i, c := range ce.Conflicts {
				conflicts[i] = map[string]string{
					"key": string(c.Key), "base": string(c.Base),
					"ours": string(c.A), "theirs": string(c.B),
				}
			}
			writeJSON(w, http.StatusConflict, map[string]any{"conflicts": conflicts})
			return
		}
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"version":      renderVersion(res.Version, body.into),
		"fast_forward": res.FastForward,
	})
}

func (h *Handler) diff(w http.ResponseWriter, r *http.Request, key string) {
	from, to := r.URL.Query().Get("from"), r.URL.Query().Get("to")
	if from == "" || to == "" {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: "need from= and to= branches"})
		return
	}
	deltas, stats, err := h.db.DiffBranches(key, from, to)
	if err != nil {
		writeErr(w, err)
		return
	}
	out := make([]map[string]string, len(deltas))
	for i, d := range deltas {
		out[i] = map[string]string{
			"key":  string(d.Key),
			"kind": d.Kind().String(),
			"from": string(d.From),
			"to":   string(d.To),
		}
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"deltas":         out,
		"touched_chunks": stats.TouchedChunks,
		"pruned_refs":    stats.PrunedRefs,
	})
}

func (h *Handler) verify(w http.ResponseWriter, r *http.Request, key string) {
	uidStr := r.URL.Query().Get("uid")
	var err error
	var target core.Version
	if uidStr == "" {
		target, err = h.db.Get(key, branchParam(r))
		if err != nil {
			writeErr(w, err)
			return
		}
	} else {
		id, perr := parseUID(uidStr)
		if perr != nil {
			writeJSON(w, http.StatusBadRequest, errorBody{Error: perr.Error()})
			return
		}
		target = core.Version{UID: id}
	}
	deep := r.URL.Query().Get("deep") == "1"
	rep, verr := h.db.VerifyVersion(key, target.UID, deep)
	body := map[string]any{
		"uid":              rep.UID.String(),
		"ok":               rep.OK,
		"chunks_checked":   rep.ChunksChecked,
		"versions_checked": rep.VersionsChecked,
	}
	if verr != nil {
		fails := make([]map[string]string, len(rep.Failures))
		for i, f := range rep.Failures {
			fails[i] = map[string]string{"chunk": f.ChunkID.String(), "context": f.Context, "error": f.Err.Error()}
		}
		body["failures"] = fails
		writeJSON(w, statusOf(verr), body)
		return
	}
	writeJSON(w, http.StatusOK, body)
}

// parseUID decodes a Base32 uid query parameter.
func parseUID(s string) (hash.Hash, error) {
	parsed, err := hash.Parse(s)
	if err != nil {
		return hash.Hash{}, fmt.Errorf("bad uid: %w", err)
	}
	return parsed, nil
}
