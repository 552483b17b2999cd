// Package rest exposes the ForkBase engine over HTTP/JSON — the RESTful API
// of the paper's semantic-view layer (Fig 1).  Routes:
//
//	GET    /v1/keys                               list object keys
//	GET    /v1/obj/{key}?branch=B                 current version
//	PUT    /v1/obj/{key}?branch=B                 put (JSON body)
//	GET    /v1/obj/{key}/history?branch=B&limit=N version chain
//	GET    /v1/obj/{key}/branches                 list branches
//	POST   /v1/obj/{key}/branch                   fork branch (JSON body)
//	POST   /v1/obj/{key}/merge                    merge branches (JSON body)
//	GET    /v1/obj/{key}/diff?from=B1&to=B2       differential query
//	GET    /v1/obj/{key}/verify?uid=U&deep=1      tamper validation
//	POST   /v1/batch                              multi-key bulk write (JSON)
//	POST   /v1/gc                                 collect unreachable chunks
//	POST   /v1/scrub                              verify + quarantine on-disk chunks
//	GET    /v1/stats                              store dedup accounting
//	GET    /v1/repl/status                        replication progress
//	GET    /v1/healthz                            liveness + readiness + store health
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
	"forkbase/internal/hash"
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

	reg     *obs.Registry // exposed at /v1/metrics(.json); engine's by default
	met     *restMetrics
	logger  *slog.Logger
	slowReq time.Duration // 0 = no slow-request logging
}

// New builds the handler.  Metrics default to the engine's registry, the
// logger to slog.Default(); override with WithMetrics / WithLogger.
func New(db *core.DB) *Handler {
	h := &Handler{db: db, mux: http.NewServeMux(), logger: slog.Default()}
	h.reg = db.Metrics()
	h.met = newRESTMetrics(h.reg)
	h.mux.HandleFunc("/v1/keys", h.keys)
	h.mux.HandleFunc("/v1/stats", h.stats)
	h.mux.HandleFunc("/v1/obj/", h.object)
	h.mux.HandleFunc("/v1/batch", h.batch)
	h.mux.HandleFunc("/v1/gc", h.gc)
	h.mux.HandleFunc("/v1/scrub", h.scrub)
	h.mux.HandleFunc("/v1/repl/status", h.replStatusHandler)
	h.mux.HandleFunc("/v1/healthz", h.healthz)
	h.mux.HandleFunc("/v1/metrics", h.metricsProm)
	h.mux.HandleFunc("/v1/metrics.json", h.metricsJSON)
	h.registerDatasets()
	return h
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
func (h *Handler) healthz(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeJSON(w, http.StatusMethodNotAllowed, errorBody{Error: "GET only"})
		return
	}
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
			"engine_ops":                 h.reg.Sum("forkbase_engine_ops_total"),
			"engine_errors":              h.reg.Sum("forkbase_engine_errors_total"),
			"http_requests":              h.reg.Sum("forkbase_http_requests_total"),
			"server_requests":            h.reg.Sum("forkbase_server_requests_total"),
			"store_errors":               h.reg.Sum("forkbase_store_errors_total"),
			"cache_hits":                 h.reg.Sum("forkbase_cache_hits_total"),
			"cache_misses":               h.reg.Sum("forkbase_cache_misses_total"),
			"retry_gaveup":               h.reg.Sum("forkbase_retry_gaveup_total"),
			"verify_cache_hits":          h.reg.Sum("forkbase_verify_cache_hits_total"),
			"verify_cache_misses":        h.reg.Sum("forkbase_verify_cache_misses_total"),
			"verify_cache_invalidations": h.reg.Sum("forkbase_verify_cache_invalidations_total"),
			"verify_skipped_hashes":      h.reg.Sum("forkbase_verify_skipped_hashes_total"),
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
		w.Header().Set("Retry-After", retryAfterSeconds)
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

// denyWrite rejects a mutating request on a read-only engine (a replica:
// its state moves only through replication, never through client writes)
// before the request is decoded, and reports whether it did.
func (h *Handler) denyWrite(w http.ResponseWriter) bool {
	if !h.db.ReadOnly() {
		return false
	}
	writeJSON(w, http.StatusForbidden, errorBody{Error: "node is a read-only replica (write to the primary)"})
	return true
}

func (h *Handler) replStatusHandler(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeJSON(w, http.StatusMethodNotAllowed, errorBody{Error: "GET only"})
		return
	}
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

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// retryAfterSeconds is the backpressure hint shipped with every 503: long
// enough to shed a retry storm, short enough that a healed store is
// rediscovered quickly.
const retryAfterSeconds = "1"

// writeErr is the single engine-error→HTTP-status mapping.  Every handler
// funnels non-validation errors through here, so a given engine condition
// surfaces as the same status on every route: absence is 404, lost races
// and conflicts are 409, a missing store capability is 501, detected
// tampering is 502, and a transiently unavailable store is 503 with a
// Retry-After hint (back off, don't fail over).  Anything unrecognized
// stays a 500 — a genuine server-side fault.
func writeErr(w http.ResponseWriter, err error) {
	code := http.StatusInternalServerError
	switch {
	case errors.Is(err, store.ErrUnavailable):
		w.Header().Set("Retry-After", retryAfterSeconds)
		code = http.StatusServiceUnavailable
	case errors.Is(err, core.ErrBranchNotFound),
		errors.Is(err, core.ErrKeyNotFound),
		errors.Is(err, pos.ErrKeyNotFound),
		errors.Is(err, store.ErrNotFound):
		code = http.StatusNotFound
	case errors.Is(err, core.ErrBranchExists),
		errors.Is(err, core.ErrStaleHead):
		code = http.StatusConflict
	case errors.Is(err, core.ErrNotCollectable),
		errors.Is(err, core.ErrNotScrubbable):
		code = http.StatusNotImplemented
	case errors.Is(err, core.ErrTampered):
		code = http.StatusBadGateway // the storage layer is lying to us
	}
	writeJSON(w, code, errorBody{Error: err.Error()})
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
		out.Index = v.Index.String()
	}
	if v.Value.Kind().Composite() {
		out.Count = v.Value.Count()
	}
	for _, b := range v.Bases {
		out.Bases = append(out.Bases, b.String())
	}
	return out
}

func (h *Handler) keys(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeJSON(w, http.StatusMethodNotAllowed, errorBody{Error: "GET only"})
		return
	}
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

func (h *Handler) stats(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeJSON(w, http.StatusMethodNotAllowed, errorBody{Error: "GET only"})
		return
	}
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

// object routes /v1/obj/{key}[/{action}].
func (h *Handler) object(w http.ResponseWriter, r *http.Request) {
	rest := strings.TrimPrefix(r.URL.Path, "/v1/obj/")
	key, action, _ := strings.Cut(rest, "/")
	if key == "" {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: "missing key"})
		return
	}
	switch action {
	case "":
		switch r.Method {
		case http.MethodGet:
			h.getObject(w, r, key)
		case http.MethodPut:
			h.putObject(w, r, key)
		default:
			writeJSON(w, http.StatusMethodNotAllowed, errorBody{Error: "GET or PUT"})
		}
	case "history":
		h.history(w, r, key)
	case "branches":
		h.branches(w, r, key)
	case "branch":
		h.branch(w, r, key)
	case "merge":
		h.merge(w, r, key)
	case "diff":
		h.diff(w, r, key)
	case "verify":
		h.verify(w, r, key)
	default:
		writeJSON(w, http.StatusNotFound, errorBody{Error: "unknown action " + action})
	}
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

// putBody is the JSON request for PUT /v1/obj/{key}.
type putBody struct {
	Kind    string            `json:"kind"` // string|int|float|bool|map|set|list|blob
	Value   string            `json:"value,omitempty"`
	Entries map[string]string `json:"entries,omitempty"` // map kind
	Items   []string          `json:"items,omitempty"`   // list/set kind
	Meta    map[string]string `json:"meta,omitempty"`
}

func (h *Handler) putObject(w http.ResponseWriter, r *http.Request, key string) {
	if h.denyWrite(w) {
		return
	}
	var body putBody
	if err := json.NewDecoder(r.Body).Decode(&body); err != nil {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: "bad JSON: " + err.Error()})
		return
	}
	// Build + commit under the GC write fence: a concurrent POST /v1/gc
	// cannot sweep the value's chunks before the head publishes them.
	var badReq error
	ver, err := h.db.BuildAndPutCtx(r.Context(), key, branchParam(r), body.Meta, func() (value.Value, error) {
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

func (h *Handler) buildValue(body putBody) (value.Value, error) {
	switch body.Kind {
	case "", "string":
		return value.String(body.Value), nil
	case "int":
		i, err := strconv.ParseInt(body.Value, 10, 64)
		if err != nil {
			return value.Value{}, fmt.Errorf("bad int: %w", err)
		}
		return value.Int(i), nil
	case "float":
		f, err := strconv.ParseFloat(body.Value, 64)
		if err != nil {
			return value.Value{}, fmt.Errorf("bad float: %w", err)
		}
		return value.Float(f), nil
	case "bool":
		b, err := strconv.ParseBool(body.Value)
		if err != nil {
			return value.Value{}, fmt.Errorf("bad bool: %w", err)
		}
		return value.Bool(b), nil
	case "blob":
		return value.NewBlob(h.db.Store(), h.db.Chunking(), []byte(body.Value))
	case "map":
		entries := make([]pos.Entry, 0, len(body.Entries))
		for k, v := range body.Entries {
			entries = append(entries, pos.Entry{Key: []byte(k), Val: []byte(v)})
		}
		// Engine helper: the map is indexed with the engine's configured
		// structure (POS-Tree or MPT).
		return h.db.NewMapValue(entries)
	case "set":
		elems := make([][]byte, len(body.Items))
		for i, s := range body.Items {
			elems[i] = []byte(s)
		}
		return h.db.NewSetValue(elems)
	case "list":
		items := make([][]byte, len(body.Items))
		for i, s := range body.Items {
			items[i] = []byte(s)
		}
		return value.NewList(h.db.Store(), h.db.Chunking(), items)
	default:
		return value.Value{}, fmt.Errorf("unknown kind %q", body.Kind)
	}
}

// batchOpBody is one write of POST /v1/batch.
type batchOpBody struct {
	Key    string `json:"key"`
	Branch string `json:"branch,omitempty"`
	putBody
}

// batch handles POST /v1/batch: the ops' version objects are committed
// through the engine's batched write path (one store round for all FNodes,
// one Apply for all heads), the bulk-ingest entry point for REST clients.
// The batch commits all or nothing: 201 with a version per op, in op order,
// or an error — 409 when a head it derives from moved — and no op
// committed.
func (h *Handler) batch(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeJSON(w, http.StatusMethodNotAllowed, errorBody{Error: "POST only"})
		return
	}
	if h.denyWrite(w) {
		return
	}
	var body struct {
		Ops []batchOpBody `json:"ops"`
	}
	if err := json.NewDecoder(r.Body).Decode(&body); err != nil {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: "bad JSON: " + err.Error()})
		return
	}
	if len(body.Ops) == 0 {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: "need ops"})
		return
	}
	for i, op := range body.Ops {
		if op.Key == "" {
			writeJSON(w, http.StatusBadRequest, errorBody{Error: fmt.Sprintf("op %d: missing key", i)})
			return
		}
	}
	// Values are built inside the GC write fence along with the commit, so
	// a concurrent collection cannot sweep them mid-batch.
	var badReq error
	ops := make([]core.WriteOp, len(body.Ops))
	vers, err := h.db.BuildAndWriteBatchCtx(r.Context(), func() ([]core.WriteOp, error) {
		for i, op := range body.Ops {
			v, err := h.buildValue(op.putBody)
			if err != nil {
				badReq = fmt.Errorf("op %d: %w", i, err)
				return nil, badReq
			}
			ops[i] = core.WriteOp{Key: op.Key, Branch: branchOrDefault(op.Branch), Value: v, Meta: op.Meta}
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
func (h *Handler) gc(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeJSON(w, http.StatusMethodNotAllowed, errorBody{Error: "POST only"})
		return
	}
	if h.denyWrite(w) {
		return
	}
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
func (h *Handler) scrub(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeJSON(w, http.StatusMethodNotAllowed, errorBody{Error: "POST only"})
		return
	}
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

func (h *Handler) branches(w http.ResponseWriter, r *http.Request, key string) {
	bs, err := h.db.ListBranches(key)
	if err != nil {
		writeErr(w, err)
		return
	}
	heads := map[string]string{}
	for _, b := range bs {
		uid, err := h.db.Head(key, b)
		if err != nil {
			writeErr(w, err)
			return
		}
		heads[b] = uid.String()
	}
	writeJSON(w, http.StatusOK, map[string]any{"branches": heads})
}

type branchBody struct {
	New  string `json:"new"`
	From string `json:"from,omitempty"`
}

func (h *Handler) branch(w http.ResponseWriter, r *http.Request, key string) {
	if r.Method != http.MethodPost {
		writeJSON(w, http.StatusMethodNotAllowed, errorBody{Error: "POST only"})
		return
	}
	if h.denyWrite(w) {
		return
	}
	var body branchBody
	if err := json.NewDecoder(r.Body).Decode(&body); err != nil || body.New == "" {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: "need {new, from?}"})
		return
	}
	if err := h.db.Branch(key, body.New, body.From); err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusCreated, map[string]string{"branch": body.New})
}

type mergeBody struct {
	Into    string `json:"into"`
	From    string `json:"from"`
	Resolve string `json:"resolve,omitempty"` // "", "ours", "theirs"
	Message string `json:"message,omitempty"`
}

func (h *Handler) merge(w http.ResponseWriter, r *http.Request, key string) {
	if r.Method != http.MethodPost {
		writeJSON(w, http.StatusMethodNotAllowed, errorBody{Error: "POST only"})
		return
	}
	if h.denyWrite(w) {
		return
	}
	var body mergeBody
	if err := json.NewDecoder(r.Body).Decode(&body); err != nil || body.Into == "" || body.From == "" {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: "need {into, from}"})
		return
	}
	var resolve pos.Resolver
	switch body.Resolve {
	case "":
	case "ours":
		resolve = pos.ResolveOurs
	case "theirs":
		resolve = pos.ResolveTheirs
	default:
		writeJSON(w, http.StatusBadRequest, errorBody{Error: "resolve must be ours|theirs"})
		return
	}
	meta := map[string]string{}
	if body.Message != "" {
		meta["message"] = body.Message
	}
	res, err := h.db.MergeCtx(r.Context(), key, body.Into, body.From, resolve, meta)
	if err != nil {
		var ce *pos.ErrConflict
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
		"version":      renderVersion(res.Version, body.Into),
		"fast_forward": res.FastForward,
		"reused":       res.Stats.ReusedChunks,
		"new_chunks":   res.Stats.NewChunks,
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
		writeJSON(w, http.StatusBadGateway, body)
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
