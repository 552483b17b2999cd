// REST-layer observability: per-route latency histograms with status-code
// labels, trace-ID minting/propagation, slow-request logs, and the two
// exposition endpoints (/v1/metrics, /v1/metrics.json).
//
// The middleware lives in Handler.ServeHTTP so every route — including ones
// added later — is measured without per-handler boilerplate.  Route labels
// are normalized templates ("/v1/obj/{key}/merge"), never raw paths: a
// metric label must be bounded-cardinality or the registry becomes the leak.
package rest

import (
	"log/slog"
	"net/http"
	"strconv"
	"time"

	"forkbase/internal/obs"
	"forkbase/internal/server"
)

// restMetrics holds the handler's pre-registered metric families.  Handles
// are nil (and every method a no-op) when the registry is obs.Discard.
type restMetrics struct {
	reqs     *obs.CounterVec   // forkbase_http_requests_total{route,code}
	seconds  *obs.HistogramVec // forkbase_http_request_seconds{route}
	inflight *obs.Gauge        // forkbase_http_inflight
}

func newRESTMetrics(reg *obs.Registry) *restMetrics {
	return &restMetrics{
		reqs: reg.CounterVec("forkbase_http_requests_total",
			"HTTP requests served, by normalized route and status code.",
			"route", "code"),
		seconds: reg.HistogramVec("forkbase_http_request_seconds",
			"HTTP request latency, by normalized route.", "route"),
		inflight: reg.Gauge("forkbase_http_inflight",
			"HTTP requests currently being served."),
	}
}

// WithLogger installs the structured logger behind slow-request warnings
// (nil keeps slog.Default()).  Returns h for chaining.
func (h *Handler) WithLogger(l *slog.Logger) *Handler {
	if l != nil {
		h.logger = l
	}
	return h
}

// WithSlowRequest sets the latency threshold above which a request is
// logged at Warn with its trace ID (0 disables).  Returns h for chaining.
func (h *Handler) WithSlowRequest(d time.Duration) *Handler {
	h.slowReq = d
	return h
}

// routeLabel maps a request path to its route template (resolve).
func routeLabel(path string) string {
	_, _, label, _, _ := resolve(path)
	return label
}

// statusRecorder captures the status code a handler writes so the
// middleware can label the request counter after the fact.
type statusRecorder struct {
	http.ResponseWriter
	code int
}

func (sr *statusRecorder) WriteHeader(code int) {
	if sr.code == 0 {
		sr.code = code
	}
	sr.ResponseWriter.WriteHeader(code)
}

func (sr *statusRecorder) Write(b []byte) (int, error) {
	if sr.code == 0 {
		sr.code = http.StatusOK
	}
	return sr.ResponseWriter.Write(b)
}

// traceHeader is accepted from clients (so a CLI or gateway can stitch its
// own ID through) and always echoed on the response.
const traceHeader = "X-Trace-Id"

// maxTraceIDLen caps client-supplied trace IDs; anything longer is
// replaced, not truncated — a hostile header must not leak into logs.
const maxTraceIDLen = 64

// ServeHTTP implements http.Handler: mint/propagate the trace ID, serve the
// route, then account for it.  The accounting is deferred, so a handler that
// panics is counted as a 500 and leaves the in-flight gauge where it found
// it; the panic itself goes on to net/http.
//
// Every request body is capped at server.MaxPayload, the TCP edge's frame
// cap: a body declared longer is refused with 413 before anything is read,
// and a read past the cap fails with *http.MaxBytesError, which the routes
// answer with 413 too (writeBadBody).
func (h *Handler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	route := routeLabel(r.URL.Path)

	tid := r.Header.Get(traceHeader)
	if tid == "" || len(tid) > maxTraceIDLen {
		tid = obs.NewTraceID()
	}
	ctx, tid := obs.WithTrace(r.Context(), tid)
	w.Header().Set(traceHeader, tid)

	sr := &statusRecorder{ResponseWriter: w}
	h.met.inflight.Add(1)
	served := false
	defer func() {
		h.met.inflight.Add(-1)
		switch {
		case !served:
			sr.code = http.StatusInternalServerError
		case sr.code == 0:
			sr.code = http.StatusOK
		}
		elapsed := time.Since(start)
		h.met.reqs.With(route, strconv.Itoa(sr.code)).Inc()
		h.met.seconds.With(route).Observe(elapsed)
		if h.slowReq > 0 && elapsed >= h.slowReq {
			h.logger.Warn("slow http request",
				"trace_id", tid, "route", route, "method", r.Method,
				"status", sr.code, "elapsed", elapsed)
		}
	}()
	if r.ContentLength > server.MaxPayload {
		writeJSON(sr, http.StatusRequestEntityTooLarge, errorBody{Error: "request body too large"})
	} else {
		r.Body = http.MaxBytesReader(w, r.Body, server.MaxPayload)
		h.mux.ServeHTTP(sr, r.WithContext(ctx))
	}
	served = true
}

// metricsProm serves GET /v1/metrics in Prometheus text exposition format.
func (h *Handler) metricsProm(w http.ResponseWriter, r *http.Request, _ string) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = h.reg.WritePrometheus(w)
}

// metricsJSON serves GET /v1/metrics.json — the same registry as a
// structured snapshot, for the CLI and for tests.
func (h *Handler) metricsJSON(w http.ResponseWriter, r *http.Request, _ string) {
	w.Header().Set("Content-Type", "application/json")
	_ = h.reg.WriteJSON(w)
}
