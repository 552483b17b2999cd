package rest

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"forkbase/internal/core"
	"forkbase/internal/obs"
	"forkbase/internal/store"
)

// newObsServer builds a REST handler over an engine with its own private
// registry, so counter assertions see only this test's traffic.
func newObsServer(t *testing.T) (*httptest.Server, *obs.Registry) {
	t.Helper()
	reg := obs.NewRegistry()
	db := core.Open(core.Options{
		Store: store.NewMemStore(), Branches: core.NewMemBranchTable(), Metrics: reg,
	})
	t.Cleanup(func() { db.Close() })
	srv := httptest.NewServer(New(db))
	t.Cleanup(srv.Close)
	return srv, reg
}

// TestRESTMetricsEndToEnd: real requests move the route counters, the
// engine op counters underneath them, and the exposition endpoints report
// both — the full pipeline from HTTP edge to registry to scrape.
func TestRESTMetricsEndToEnd(t *testing.T) {
	srv, reg := newObsServer(t)

	if code, _ := doJSON(t, http.MethodPut, srv.URL+"/v1/obj/k1", putBody{Kind: "string", Value: "v1"}); code != http.StatusCreated {
		t.Fatalf("put: %d", code)
	}
	if code, _ := doJSON(t, http.MethodPut, srv.URL+"/v1/obj/k2", putBody{Kind: "string", Value: "v2"}); code != http.StatusCreated {
		t.Fatalf("put: %d", code)
	}
	for i := 0; i < 3; i++ {
		if code, _ := doJSON(t, http.MethodGet, srv.URL+"/v1/obj/k1", nil); code != http.StatusOK {
			t.Fatalf("get: %d", code)
		}
	}
	if code, _ := doJSON(t, http.MethodGet, srv.URL+"/v1/obj/absent", nil); code != http.StatusNotFound {
		t.Fatal("expected 404 for absent key")
	}

	// Route counters, labeled by normalized route and status code.
	for _, tc := range []struct {
		code string
		want float64
	}{{"201", 2}, {"200", 3}, {"404", 1}} {
		if got, ok := reg.Value("forkbase_http_requests_total", "/v1/obj/{key}", tc.code); !ok || got != tc.want {
			t.Errorf("http_requests_total{/v1/obj/{key},%s} = %v (ok=%v), want %v", tc.code, got, ok, tc.want)
		}
	}
	// Nothing else moved the family: the total is exactly what was issued.
	if got := reg.Sum("forkbase_http_requests_total"); got != 6 {
		t.Errorf("http_requests_total summed over routes = %v, want 6", got)
	}
	// The per-route histogram saw every request on the route.
	if got, _ := reg.Value("forkbase_http_request_seconds", "/v1/obj/{key}"); got != 6 {
		t.Errorf("http_request_seconds{/v1/obj/{key}} count = %v, want 6", got)
	}
	// Engine op counters moved underneath the HTTP layer.
	if got, _ := reg.Value("forkbase_engine_ops_total", "put"); got != 2 {
		t.Errorf("engine_ops_total{put} = %v, want 2", got)
	}
	if got, _ := reg.Value("forkbase_engine_ops_total", "get"); got != 4 {
		t.Errorf("engine_ops_total{get} = %v, want 4 (3 hits + 1 miss)", got)
	}
	// A not-found get is benign, not an engine error.
	if got := reg.Sum("forkbase_engine_errors_total"); got != 0 {
		t.Errorf("engine_errors_total = %v, want 0", got)
	}
}

// TestPanickingHandlerIsAccounted: a handler that panics is counted as a
// 500 and takes its in-flight increment with it, and the panic still
// reaches the caller (net/http, which recovers it).
func TestPanickingHandlerIsAccounted(t *testing.T) {
	reg := obs.NewRegistry()
	db := core.Open(core.Options{Store: store.NewMemStore(), Metrics: reg})
	h := New(db)
	h.mux.HandleFunc("/boom", func(http.ResponseWriter, *http.Request) { panic("boom") })
	func() {
		defer func() {
			if recover() == nil {
				t.Error("the handler's panic did not reach the caller")
			}
		}()
		h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodGet, "/boom", nil))
	}()
	if got, _ := reg.Value("forkbase_http_inflight"); got != 0 {
		t.Errorf("http_inflight = %v after the panic, want 0", got)
	}
	if got, _ := reg.Value("forkbase_http_requests_total", "other", "500"); got != 1 {
		t.Errorf(`http_requests_total{route="other",code="500"} = %v, want 1`, got)
	}
}

// TestMetricsEndpoints: /v1/metrics serves the Prometheus text format and
// /v1/metrics.json the snapshot, and both include the families the scrape
// contract promises.
func TestMetricsEndpoints(t *testing.T) {
	srv, _ := newObsServer(t)
	if code, _ := doJSON(t, http.MethodPut, srv.URL+"/v1/obj/k", putBody{Kind: "string", Value: "v"}); code != http.StatusCreated {
		t.Fatalf("put: %d", code)
	}

	resp, err := http.Get(srv.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/v1/metrics: %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("Content-Type = %q, want text/plain exposition", ct)
	}
	text := string(body)
	for _, want := range []string{
		"# TYPE forkbase_http_requests_total counter",
		`forkbase_http_requests_total{route="/v1/obj/{key}",code="201"} 1`,
		"# TYPE forkbase_engine_ops_total counter",
		`forkbase_engine_ops_total{op="put"} 1`,
		"forkbase_http_inflight",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/v1/metrics missing %q\n---\n%s", want, text)
		}
	}

	code, js := doJSON(t, http.MethodGet, srv.URL+"/v1/metrics.json", nil)
	if code != http.StatusOK {
		t.Fatalf("/v1/metrics.json: %d", code)
	}
	counters, ok := js["counters"].([]any)
	if !ok {
		t.Fatalf("metrics.json missing counters array: %v", js)
	}
	found := false
	for _, c := range counters {
		if m, ok := c.(map[string]any); ok && m["name"] == "forkbase_http_requests_total" {
			found = true
			break
		}
	}
	if !found {
		t.Error("metrics.json counters missing forkbase_http_requests_total")
	}
}

// TestTraceIDHeader: the edge mints a trace ID and echoes it; a caller-
// provided ID is propagated instead; a hostile oversized ID is replaced,
// never truncated.
func TestTraceIDHeader(t *testing.T) {
	srv, _ := newObsServer(t)

	resp, err := http.Get(srv.URL + "/v1/keys")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	minted := resp.Header.Get("X-Trace-Id")
	if minted == "" {
		t.Fatal("no X-Trace-Id minted on response")
	}

	req, _ := http.NewRequest(http.MethodGet, srv.URL+"/v1/keys", nil)
	req.Header.Set("X-Trace-Id", "caller-supplied-id")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if got := resp.Header.Get("X-Trace-Id"); got != "caller-supplied-id" {
		t.Errorf("caller trace ID not echoed: got %q", got)
	}

	req, _ = http.NewRequest(http.MethodGet, srv.URL+"/v1/keys", nil)
	req.Header.Set("X-Trace-Id", strings.Repeat("x", 200))
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if got := resp.Header.Get("X-Trace-Id"); len(got) > 64 || strings.Contains(got, "x") {
		t.Errorf("oversized trace ID should be replaced, got %q", got)
	}
}

// TestRouteLabelCardinality: arbitrary paths collapse into a bounded label
// set — a scanner hitting random URLs must not mint unbounded families.
func TestRouteLabelCardinality(t *testing.T) {
	for path, want := range map[string]string{
		"/v1/obj/some-key":               "/v1/obj/{key}",
		"/v1/obj/a/merge":                "/v1/obj/{key}/merge",
		"/v1/obj/a/history":              "/v1/obj/{key}/history",
		"/v1/obj/a/unknown-action":       "/v1/obj/{key}/?",
		"/v1/dataset/sales":              "/v1/dataset/{name}",
		"/v1/dataset/sales/stat":         "/v1/dataset/{name}/stat",
		"/v1/keys":                       "/v1/keys",
		"/v1/metrics":                    "/v1/metrics",
		"/totally/bogus":                 "other",
		"/v1/../../etc/passwd":           "other",
		"/v1/obj/k/merge/extra/segments": "/v1/obj/{key}/?",
	} {
		if got := routeLabel(path); got != want {
			t.Errorf("routeLabel(%q) = %q, want %q", path, got, want)
		}
	}
}

// TestHealthzIncludesMetrics: the health endpoint carries registry-derived
// gauges so an operator's first probe already shows traffic totals.
func TestHealthzIncludesMetrics(t *testing.T) {
	srv, _ := newObsServer(t)
	if code, _ := doJSON(t, http.MethodPut, srv.URL+"/v1/obj/k", putBody{Kind: "string", Value: "v"}); code != http.StatusCreated {
		t.Fatalf("put: %d", code)
	}
	code, body := doJSON(t, http.MethodGet, srv.URL+"/v1/healthz", nil)
	if code != http.StatusOK {
		t.Fatalf("healthz: %d", code)
	}
	met, ok := body["metrics"].(map[string]any)
	if !ok {
		t.Fatalf("healthz missing metrics block: %v", body)
	}
	if met["engine_ops"].(float64) < 1 {
		t.Errorf("healthz engine_ops = %v, want >= 1", met["engine_ops"])
	}
	if met["http_requests"].(float64) < 1 {
		t.Errorf("healthz http_requests = %v, want >= 1", met["http_requests"])
	}
}
