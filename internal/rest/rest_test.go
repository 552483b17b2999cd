package rest

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"forkbase/internal/chaos"
	"forkbase/internal/chunker"
	"forkbase/internal/core"
	"forkbase/internal/hash"
	"forkbase/internal/store"
)

func newServer(t *testing.T) (*httptest.Server, *core.DB, *store.MaliciousStore) {
	t.Helper()
	mal := store.NewMaliciousStore(store.NewMemStore())
	db := core.Open(core.Options{Store: mal, Chunking: chunker.SmallConfig()})
	srv := httptest.NewServer(New(db))
	t.Cleanup(srv.Close)
	return srv, db, mal
}

func doJSON(t *testing.T, method, url string, body any) (int, map[string]any) {
	t.Helper()
	var rd *bytes.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(b)
	} else {
		rd = bytes.NewReader(nil)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decoding response: %v", err)
	}
	return resp.StatusCode, out
}

func TestPutGetRoundTrip(t *testing.T) {
	srv, _, _ := newServer(t)
	code, body := doJSON(t, http.MethodPut, srv.URL+"/v1/obj/greeting", putBody{
		Kind: "string", Value: "hello rest", Meta: map[string]string{"author": "alice"},
	})
	if code != http.StatusCreated {
		t.Fatalf("put code %d: %v", code, body)
	}
	uid := body["uid"].(string)
	if uid == "" || body["seq"].(float64) != 1 {
		t.Fatalf("body = %v", body)
	}

	code, body = doJSON(t, http.MethodGet, srv.URL+"/v1/obj/greeting", nil)
	if code != http.StatusOK || body["value"].(string) != "hello rest" {
		t.Fatalf("get = %d %v", code, body)
	}
	if body["meta"].(map[string]any)["author"].(string) != "alice" {
		t.Fatalf("meta = %v", body["meta"])
	}

	// Fetch by uid.
	code, body = doJSON(t, http.MethodGet, srv.URL+"/v1/obj/greeting?uid="+uid, nil)
	if code != http.StatusOK || body["uid"].(string) != uid {
		t.Fatalf("get by uid = %d %v", code, body)
	}
}

func TestTypedPuts(t *testing.T) {
	srv, _, _ := newServer(t)
	cases := []putBody{
		{Kind: "int", Value: "42"},
		{Kind: "float", Value: "2.5"},
		{Kind: "bool", Value: "true"},
		{Kind: "blob", Value: strings.Repeat("x", 10000)},
		{Kind: "map", Entries: map[string]string{"a": "1", "b": "2"}},
		{Kind: "set", Items: []string{"p", "q"}},
		{Kind: "list", Items: []string{"one", "two"}},
	}
	for i, c := range cases {
		code, body := doJSON(t, http.MethodPut, fmt.Sprintf("%s/v1/obj/typed-%d", srv.URL, i), c)
		if code != http.StatusCreated {
			t.Fatalf("case %d (%s): %d %v", i, c.Kind, code, body)
		}
		if body["kind"].(string) != c.Kind {
			t.Fatalf("case %d kind = %v", i, body["kind"])
		}
	}
	// Bad kinds and values.
	for _, c := range []putBody{{Kind: "int", Value: "NaN"}, {Kind: "alien"}} {
		code, _ := doJSON(t, http.MethodPut, srv.URL+"/v1/obj/bad", c)
		if code != http.StatusBadRequest {
			t.Fatalf("bad put accepted: %d", code)
		}
	}
}

func TestKeysAndStats(t *testing.T) {
	srv, _, _ := newServer(t)
	code, body := doJSON(t, http.MethodGet, srv.URL+"/v1/keys", nil)
	if code != http.StatusOK || len(body["keys"].([]any)) != 0 {
		t.Fatalf("empty keys = %d %v", code, body)
	}
	doJSON(t, http.MethodPut, srv.URL+"/v1/obj/k1", putBody{Value: "v"})
	code, body = doJSON(t, http.MethodGet, srv.URL+"/v1/keys", nil)
	if code != http.StatusOK || len(body["keys"].([]any)) != 1 {
		t.Fatalf("keys = %v", body)
	}
	code, body = doJSON(t, http.MethodGet, srv.URL+"/v1/stats", nil)
	if code != http.StatusOK || body["unique_chunks"].(float64) < 1 {
		t.Fatalf("stats = %v", body)
	}
}

func TestBranchDiffMergeFlow(t *testing.T) {
	srv, _, _ := newServer(t)
	put := func(branch string, entries map[string]string) {
		code, body := doJSON(t, http.MethodPut, srv.URL+"/v1/obj/data?branch="+branch,
			putBody{Kind: "map", Entries: entries})
		if code != http.StatusCreated {
			t.Fatalf("put %s: %d %v", branch, code, body)
		}
	}
	base := map[string]string{}
	for i := 0; i < 50; i++ {
		base[fmt.Sprintf("row%02d", i)] = "base"
	}
	put("master", base)

	code, body := doJSON(t, http.MethodPost, srv.URL+"/v1/obj/data/branch", branchBody{New: "vendor"})
	if code != http.StatusCreated {
		t.Fatalf("branch: %d %v", code, body)
	}
	// Duplicate branch → 409.
	code, _ = doJSON(t, http.MethodPost, srv.URL+"/v1/obj/data/branch", branchBody{New: "vendor"})
	if code != http.StatusConflict {
		t.Fatalf("dup branch: %d", code)
	}

	mod := map[string]string{}
	for k, v := range base {
		mod[k] = v
	}
	mod["row10"] = "vendor-edit"
	put("vendor", mod)

	code, body = doJSON(t, http.MethodGet, srv.URL+"/v1/obj/data/diff?from=master&to=vendor", nil)
	if code != http.StatusOK {
		t.Fatalf("diff: %d %v", code, body)
	}
	deltas := body["deltas"].([]any)
	if len(deltas) != 1 {
		t.Fatalf("deltas = %v", deltas)
	}
	d := deltas[0].(map[string]any)
	if d["key"] != "row10" || d["kind"] != "modified" {
		t.Fatalf("delta = %v", d)
	}

	code, body = doJSON(t, http.MethodPost, srv.URL+"/v1/obj/data/merge",
		mergeBody{Into: "master", From: "vendor", Message: "pull vendor edits"})
	if code != http.StatusOK {
		t.Fatalf("merge: %d %v", code, body)
	}

	code, body = doJSON(t, http.MethodGet, srv.URL+"/v1/obj/data/branches", nil)
	if code != http.StatusOK || len(body["branches"].(map[string]any)) != 2 {
		t.Fatalf("branches = %v", body)
	}

	code, body = doJSON(t, http.MethodGet, srv.URL+"/v1/obj/data/history", nil)
	if code != http.StatusOK || len(body["history"].([]any)) < 2 {
		t.Fatalf("history = %v", body)
	}
}

func TestMergeConflictResponse(t *testing.T) {
	srv, _, _ := newServer(t)
	put := func(branch, val string) {
		doJSON(t, http.MethodPut, srv.URL+"/v1/obj/c?branch="+branch,
			putBody{Kind: "map", Entries: map[string]string{"k": val}})
	}
	put("master", "base")
	doJSON(t, http.MethodPost, srv.URL+"/v1/obj/c/branch", branchBody{New: "dev"})
	put("master", "from-master")
	put("dev", "from-dev")

	code, body := doJSON(t, http.MethodPost, srv.URL+"/v1/obj/c/merge", mergeBody{Into: "master", From: "dev"})
	if code != http.StatusConflict {
		t.Fatalf("conflict merge: %d %v", code, body)
	}
	conflicts := body["conflicts"].([]any)
	if len(conflicts) != 1 {
		t.Fatalf("conflicts = %v", conflicts)
	}
	// Resolve with theirs.
	code, body = doJSON(t, http.MethodPost, srv.URL+"/v1/obj/c/merge",
		mergeBody{Into: "master", From: "dev", Resolve: "theirs"})
	if code != http.StatusOK {
		t.Fatalf("resolved merge: %d %v", code, body)
	}
}

func TestVerifyEndpoint(t *testing.T) {
	srv, _, mal := newServer(t)
	code, body := doJSON(t, http.MethodPut, srv.URL+"/v1/obj/doc",
		putBody{Kind: "blob", Value: strings.Repeat("sensitive ", 5000)})
	if code != http.StatusCreated {
		t.Fatalf("put: %d", code)
	}
	uid := body["uid"].(string)

	code, body = doJSON(t, http.MethodGet, srv.URL+"/v1/obj/doc/verify?uid="+uid+"&deep=1", nil)
	if code != http.StatusOK || body["ok"] != true {
		t.Fatalf("clean verify: %d %v", code, body)
	}
	// The same uid is not a version of any other key.
	code, body = doJSON(t, http.MethodGet, srv.URL+"/v1/obj/other/verify?uid="+uid, nil)
	if code != http.StatusBadGateway || body["ok"] != false || len(body["failures"].([]any)) != 1 {
		t.Fatalf("verify under a foreign key: %d %v", code, body)
	}

	// Corrupt a chunk and verify again.
	ids := mal.Unwrap().(*store.MemStore).IDs()
	corrupted := false
	for _, id := range ids {
		if id.String() != uid {
			if ok, _ := mal.CorruptFlip(id, 3, 1); ok {
				corrupted = true
				break
			}
		}
	}
	if !corrupted {
		t.Fatal("nothing corrupted")
	}
	code, body = doJSON(t, http.MethodGet, srv.URL+"/v1/obj/doc/verify?uid="+uid+"&deep=1", nil)
	if code != http.StatusBadGateway || body["ok"] != false {
		t.Fatalf("tampered verify: %d %v", code, body)
	}
	if len(body["failures"].([]any)) == 0 {
		t.Fatal("no failures listed")
	}
}

// TestVerifyEndpointReportsAMissingChunk: a chunk the store lost is no
// evidence of tampering, so the verify route answers 404, not 502, and
// still lists the failure.
func TestVerifyEndpointReportsAMissingChunk(t *testing.T) {
	srv, _, mal := newServer(t)
	code, body := doJSON(t, http.MethodPut, srv.URL+"/v1/obj/doc",
		putBody{Kind: "blob", Value: strings.Repeat("sensitive ", 5000)})
	if code != http.StatusCreated {
		t.Fatalf("put: %d", code)
	}
	uid := body["uid"].(string)
	mem := mal.Unwrap().(*store.MemStore)
	for _, id := range mem.IDs() {
		if id.String() != uid {
			mem.Delete(id)
			break
		}
	}
	code, body = doJSON(t, http.MethodGet, srv.URL+"/v1/obj/doc/verify?uid="+uid+"&deep=1", nil)
	if code != http.StatusNotFound || body["ok"] != false || len(body["failures"].([]any)) != 1 {
		t.Fatalf("verify with a chunk missing: %d %v; want 404 listing one failure", code, body)
	}
}

func TestErrorPaths(t *testing.T) {
	srv, _, _ := newServer(t)
	code, _ := doJSON(t, http.MethodGet, srv.URL+"/v1/obj/nothing", nil)
	if code != http.StatusNotFound {
		t.Fatalf("missing obj: %d", code)
	}
	code, _ = doJSON(t, http.MethodGet, srv.URL+"/v1/obj/x/unknownaction", nil)
	if code != http.StatusNotFound {
		t.Fatalf("unknown action: %d", code)
	}
	code, _ = doJSON(t, http.MethodGet, srv.URL+"/v1/obj/x?uid=garbage", nil)
	if code != http.StatusBadRequest {
		t.Fatalf("bad uid: %d", code)
	}
	code, _ = doJSON(t, http.MethodPost, srv.URL+"/v1/keys", nil)
	if code != http.StatusMethodNotAllowed {
		t.Fatalf("method: %d", code)
	}
	code, _ = doJSON(t, http.MethodGet, srv.URL+"/v1/obj/x/diff", nil)
	if code != http.StatusBadRequest {
		t.Fatalf("diff without branches: %d", code)
	}
}

func TestBatchWriteREST(t *testing.T) {
	srv, db, _ := newServer(t)
	code, body := doJSON(t, "POST", srv.URL+"/v1/batch", map[string]any{
		"ops": []map[string]any{
			{"key": "a", "kind": "string", "value": "va"},
			{"key": "b", "branch": "dev", "kind": "int", "value": "7"},
			{"key": "a", "kind": "string", "value": "va2"},
		},
	})
	if code != http.StatusCreated {
		t.Fatalf("code = %d body = %v", code, body)
	}
	vers, ok := body["versions"].([]any)
	if !ok || len(vers) != 3 {
		t.Fatalf("versions = %v", body["versions"])
	}
	// Each version names the branch its op committed to, the default
	// included.
	for i, want := range []string{"master", "dev", "master"} {
		if v, _ := vers[i].(map[string]any); v["branch"] != want {
			t.Fatalf("version %d = %v, want branch %q", i, vers[i], want)
		}
	}
	got, err := db.Get("a", "")
	if err != nil {
		t.Fatal(err)
	}
	if s, _ := got.Value.AsString(); s != "va2" {
		t.Fatalf("a = %q (chained batch op lost)", s)
	}
	if got.Seq != 2 {
		t.Fatalf("a seq = %d", got.Seq)
	}
	if _, err := db.Get("b", "dev"); err != nil {
		t.Fatal(err)
	}

	// Bad requests reject cleanly.
	if code, _ := doJSON(t, "POST", srv.URL+"/v1/batch", map[string]any{"ops": []map[string]any{}}); code != http.StatusBadRequest {
		t.Fatalf("empty ops code = %d", code)
	}
	if code, _ := doJSON(t, "POST", srv.URL+"/v1/batch", map[string]any{
		"ops": []map[string]any{{"kind": "string", "value": "x"}},
	}); code != http.StatusBadRequest {
		t.Fatalf("missing key code = %d", code)
	}
	if code, _ := doJSON(t, "GET", srv.URL+"/v1/batch", nil); code != http.StatusMethodNotAllowed {
		t.Fatalf("GET code = %d", code)
	}
}

// TestBatchWriteRESTAllOrNothing: a batch one of whose heads moves under it
// answers 409 and commits none of its ops.
func TestBatchWriteRESTAllOrNothing(t *testing.T) {
	db := core.Open(core.Options{Branches: &movingTable{BranchTable: core.NewMemBranchTable(), key: "victim"}})
	srv := httptest.NewServer(New(db))
	defer srv.Close()
	code, body := doJSON(t, "POST", srv.URL+"/v1/batch", map[string]any{
		"ops": []map[string]any{
			{"key": "a", "kind": "string", "value": "va"},
			{"key": "victim", "kind": "string", "value": "lost race"},
			{"key": "b", "kind": "string", "value": "vb"},
		},
	})
	if code != http.StatusConflict || body["versions"] != nil {
		t.Fatalf("raced batch = %d %v, want 409 and no versions", code, body)
	}
	for _, key := range []string{"a", "b"} {
		if code, _ := doJSON(t, "GET", srv.URL+"/v1/obj/"+key, nil); code != http.StatusNotFound {
			t.Fatalf("GET %s after a refused batch = %d, want 404", key, code)
		}
	}
}

// movingTable moves key's master head, once, just before an Apply that
// would move it — a concurrent writer winning the race.
type movingTable struct {
	core.BranchTable
	key   string
	moved bool
}

func (m *movingTable) Apply(ops []core.HeadOp) (bool, error) {
	for _, op := range ops {
		if op.Key == m.key && !m.moved {
			m.moved = true
			m.BranchTable.CompareAndSet(op.Key, op.Branch, op.Expect, hash.Of([]byte("rival")))
		}
	}
	return m.BranchTable.Apply(ops)
}

// TestGCEndpoint drives POST /v1/gc against a file-backed engine: churned
// garbage is swept, disk space is reclaimed, and live data survives.
func TestGCEndpoint(t *testing.T) {
	fs, err := store.OpenFileStoreWith(t.TempDir(), store.FileStoreOptions{SegmentSize: 8 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	db := core.Open(core.Options{Store: fs, Chunking: chunker.SmallConfig()})
	srv := httptest.NewServer(New(db))
	t.Cleanup(srv.Close)

	mkEntries := func(tag string) map[string]string {
		entries := map[string]string{}
		for i := 0; i < 400; i++ {
			entries[fmt.Sprintf("k-%05d", i)] = tag
		}
		return entries
	}
	if code, body := doJSON(t, "PUT", srv.URL+"/v1/obj/keep", putBody{Kind: "map", Entries: mkEntries("keep")}); code != http.StatusCreated {
		t.Fatalf("put keep: %d %v", code, body)
	}
	if code, body := doJSON(t, "PUT", srv.URL+"/v1/obj/churn?branch=tmp", putBody{Kind: "map", Entries: mkEntries("churn")}); code != http.StatusCreated {
		t.Fatalf("put churn: %d %v", code, body)
	}
	if err := db.DeleteBranch("churn", "tmp"); err != nil {
		t.Fatal(err)
	}

	code, body := doJSON(t, "POST", srv.URL+"/v1/gc", nil)
	if code != http.StatusOK {
		t.Fatalf("gc code %d: %v", code, body)
	}
	if swept, _ := body["swept"].(float64); swept == 0 {
		t.Fatalf("gc swept nothing: %v", body)
	}
	if reclaimed, _ := body["reclaimed_bytes"].(float64); reclaimed <= 0 {
		t.Fatalf("gc reclaimed no disk: %v", body)
	}
	if code, _ := doJSON(t, "GET", srv.URL+"/v1/obj/keep", nil); code != http.StatusOK {
		t.Fatalf("live object unreadable after gc: %d", code)
	}
	if code, _ := doJSON(t, "GET", srv.URL+"/v1/gc", nil); code != http.StatusMethodNotAllowed {
		t.Fatalf("GET gc code = %d", code)
	}
}

// TestGCEndpointNotCollectable answers 501 when the store has no collection
// capability.
type opaqueStore struct{ store.Store }

func TestGCEndpointNotCollectable(t *testing.T) {
	db := core.Open(core.Options{Store: opaqueStore{store.NewMemStore()}, Chunking: chunker.SmallConfig()})
	srv := httptest.NewServer(New(db))
	t.Cleanup(srv.Close)
	if code, _ := doJSON(t, "POST", srv.URL+"/v1/gc", nil); code != http.StatusNotImplemented {
		t.Fatalf("not-collectable gc code = %d", code)
	}
}

// TestScrubAndHealthComeFromTheEngine: POST /v1/scrub and the store fields
// of /v1/healthz need no wiring beyond New — over a file store they scrub
// and report health; over a store with no disk, scrub is 501 and healthz
// reports no store health.
func TestScrubAndHealthComeFromTheEngine(t *testing.T) {
	fs, err := store.OpenFileStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	for _, tc := range []struct {
		name string
		st   store.Store
		disk bool
	}{{"file", fs, true}, {"mem", store.NewMemStore(), false}} {
		t.Run(tc.name, func(t *testing.T) {
			db := core.Open(core.Options{Store: tc.st, Chunking: chunker.SmallConfig()})
			srv := httptest.NewServer(New(db))
			defer srv.Close()
			if code, body := doJSON(t, "PUT", srv.URL+"/v1/obj/k", putBody{Kind: "string", Value: "v"}); code != http.StatusCreated {
				t.Fatalf("put: %d %v", code, body)
			}

			code, body := doJSON(t, "POST", srv.URL+"/v1/scrub", nil)
			if !tc.disk {
				if code != http.StatusNotImplemented {
					t.Fatalf("scrub without a disk = %d %v, want 501", code, body)
				}
			} else if code != http.StatusOK || body["healthy"] != true {
				t.Fatalf("scrub = %d %v, want 200 and healthy", code, body)
			}

			code, body = doJSON(t, "GET", srv.URL+"/v1/healthz", nil)
			if code != http.StatusOK {
				t.Fatalf("healthz = %d %v", code, body)
			}
			_, hasHealth := body["store_health"]
			_, hasLast := body["last_scrub"]
			if !tc.disk {
				if hasHealth || hasLast {
					t.Fatalf("healthz without a disk reports store fields: %v", body)
				}
			} else if body["store_health"] != "ok" || !hasLast {
				t.Fatalf("healthz = %v, want store_health ok and last_scrub", body)
			}
		})
	}
}

func TestHealthzDefaultReady(t *testing.T) {
	srv, _, _ := newServer(t)
	resp, err := http.Get(srv.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %d, want 200", resp.StatusCode)
	}
	var body map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if body["alive"] != true || body["ready"] != true {
		t.Fatalf("healthz body: %v", body)
	}
}

func TestHealthzNotReadyIs503WithRetryAfter(t *testing.T) {
	mal := store.NewMaliciousStore(store.NewMemStore())
	db := core.Open(core.Options{Store: mal, Chunking: chunker.SmallConfig()})
	h := New(db).WithReadiness(func() (bool, string) { return false, "replica lagging 42 entries" })
	srv := httptest.NewServer(h)
	t.Cleanup(srv.Close)
	resp, err := http.Get(srv.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz = %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("503 without Retry-After")
	}
	var body map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if body["alive"] != true || body["ready"] != false || body["detail"] != "replica lagging 42 entries" {
		t.Fatalf("healthz body: %v", body)
	}
}

// TestUnavailableStoreIs503 pins graceful degradation on the data routes: a
// transiently-down store surfaces as 503 + Retry-After (backpressure), not
// as a 500 or a fake 404.
func TestUnavailableStoreIs503(t *testing.T) {
	flaky := chaos.NewFlakyStore(store.NewMemStore())
	db := core.Open(core.Options{Store: flaky, Chunking: chunker.SmallConfig()})
	srv := httptest.NewServer(New(db))
	t.Cleanup(srv.Close)

	code, _ := doJSON(t, http.MethodPut, srv.URL+"/v1/obj/x", map[string]any{"kind": "string", "value": "v"})
	if code != http.StatusCreated {
		t.Fatalf("seed put = %d", code)
	}
	flaky.SetDown(true)
	resp, err := http.Get(srv.URL + "/v1/obj/x")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("get with store down = %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("503 without Retry-After")
	}
	flaky.SetDown(false)
	resp2, err := http.Get(srv.URL + "/v1/obj/x")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("get after recovery = %d, want 200", resp2.StatusCode)
	}
}
