package rest

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"forkbase/internal/core"
	"forkbase/internal/hash"
	"forkbase/internal/store"
	"forkbase/internal/value"
)

// allowedByPath is the 405 text of every path the API serves, written out
// rather than derived from the table: a route added to the table without a
// row here fails TestRouteTable.
var allowedByPath = map[string]string{
	"/v1/keys":                "GET only",
	"/v1/obj/{key}":           "GET or PUT",
	"/v1/obj/{key}/history":   "GET only",
	"/v1/obj/{key}/branches":  "GET only",
	"/v1/obj/{key}/branch":    "POST only",
	"/v1/obj/{key}/merge":     "POST only",
	"/v1/obj/{key}/diff":      "GET only",
	"/v1/obj/{key}/verify":    "GET only",
	"/v1/dataset/{name}":      "GET or POST",
	"/v1/dataset/{name}/stat": "GET only",
	"/v1/dataset/{name}/diff": "GET only",
	"/v1/batch":               "POST only",
	"/v1/gc":                  "POST only",
	"/v1/scrub":               "POST only",
	"/v1/stats":               "GET only",
	"/v1/repl/status":         "GET only",
	"/v1/healthz":             "GET only",
	"/v1/metrics":             "GET only",
	"/v1/metrics.json":        "GET only",
}

// unreadBody fails the test if a handler reads it.
type unreadBody struct {
	t    *testing.T
	name string
}

func (b unreadBody) Read([]byte) (int, error) {
	b.t.Errorf("%s read its body", b.name)
	return 0, http.ErrBodyReadAfterClose
}

func (unreadBody) Close() error { return nil }

// serveOnce serves one request whose body fails the test if it is read, and
// returns the status and the error text of the answer.
func serveOnce(t *testing.T, h http.Handler, method, path string) (int, string) {
	t.Helper()
	req := httptest.NewRequest(method, path, nil)
	req.Body = unreadBody{t, method + " " + path}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	var body errorBody
	_ = json.Unmarshal(rec.Body.Bytes(), &body)
	return rec.Code, body.Error
}

// TestRouteTable walks the route table.  Every path answers a method it does
// not list with 405 and the text naming the ones it does; on a read-only
// node every write is refused with 403 before its handler reads the body,
// and a method the path does not list is still a 405.  The path is answered
// before the method: a family path with no name is 400, one with an action
// the family lacks 404.
func TestRouteTable(t *testing.T) {
	opts := core.Options{Store: store.NewMemStore(), Branches: core.NewMemBranchTable()}
	if _, err := core.Open(opts).Put("x", "master", value.String("v"), nil); err != nil {
		t.Fatal(err)
	}
	primary := New(core.Open(opts))
	opts.ReadOnly = true
	replica := New(core.Open(opts))

	listed := map[string]map[string]bool{}
	for _, rt := range routes {
		if listed[rt.path] == nil {
			listed[rt.path] = map[string]bool{}
		}
		listed[rt.path][rt.method] = true
	}
	if len(listed) != len(allowedByPath) {
		t.Errorf("the table has %d paths, allowedByPath %d", len(listed), len(allowedByPath))
	}
	concrete := strings.NewReplacer("{key}", "x", "{name}", "x")
	for template, methods := range listed {
		want, ok := allowedByPath[template]
		if !ok {
			t.Errorf("%s is not in allowedByPath", template)
			continue
		}
		path := concrete.Replace(template)
		for _, m := range []string{"GET", "PUT", "POST", "DELETE", "PATCH", "HEAD"} {
			if methods[m] {
				continue
			}
			for _, h := range []*Handler{primary, replica} {
				if code, text := serveOnce(t, h, m, path); code != http.StatusMethodNotAllowed || text != want {
					t.Errorf("%s %s (read-only %v) = %d %q, want 405 %q", m, path, h.db.ReadOnly(), code, text, want)
				}
			}
		}
	}
	for _, rt := range routes {
		if !rt.write {
			continue
		}
		path := concrete.Replace(rt.path)
		if code, text := serveOnce(t, replica, rt.method, path); code != http.StatusForbidden {
			t.Errorf("%s %s on a read-only node = %d %q, want 403", rt.method, path, code, text)
		}
	}
	for _, tc := range []struct {
		method, path string
		code         int
		text         string
	}{
		{"GET", "/v1/obj/", http.StatusBadRequest, "missing key"},
		{"POST", "/v1/obj/", http.StatusBadRequest, "missing key"},
		{"GET", "/v1/dataset/", http.StatusBadRequest, "missing dataset name"},
		{"DELETE", "/v1/obj/x/nope", http.StatusNotFound, "unknown action nope"},
		{"GET", "/v1/dataset/x/stat/more", http.StatusNotFound, "unknown action stat/more"},
	} {
		if code, text := serveOnce(t, replica, tc.method, tc.path); code != tc.code || text != tc.text {
			t.Errorf("%s %s = %d %q, want %d %q", tc.method, tc.path, code, text, tc.code, tc.text)
		}
	}
}

// vanishingTable deletes the branch gone of key right after it answers a
// listing of key's branches, once armed: a DeleteBranch landing between a
// listing and a read of a head it listed.
type vanishingTable struct {
	core.BranchTable
	key, gone string
	armed     bool
}

func (v *vanishingTable) Branches(key string) (map[string]hash.Hash, error) {
	bs, err := v.BranchTable.Branches(key)
	if uid, ok := bs[v.gone]; v.armed && ok && key == v.key {
		if _, err := v.BranchTable.CompareAndSet(key, v.gone, uid, hash.Hash{}); err != nil {
			return nil, err
		}
	}
	return bs, err
}

// TestBranchesReadsTheHeadsOnce: GET /v1/obj/{key}/branches answers the one
// listing it read, even when a branch it lists is deleted right after.
func TestBranchesReadsTheHeadsOnce(t *testing.T) {
	table := &vanishingTable{BranchTable: core.NewMemBranchTable(), key: "k", gone: "dev"}
	db := core.Open(core.Options{Store: store.NewMemStore(), Branches: table})
	ver, err := db.Put("k", "master", value.String("v"), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Branch("k", "dev", "master"); err != nil {
		t.Fatal(err)
	}
	table.armed = true
	srv := httptest.NewServer(New(db))
	defer srv.Close()
	code, body := doJSON(t, http.MethodGet, srv.URL+"/v1/obj/k/branches", nil)
	uid := ver.UID.String()
	if got, _ := body["branches"].(map[string]any); code != http.StatusOK || len(got) != 2 || got["master"] != uid || got["dev"] != uid {
		t.Fatalf("branches with dev deleted after the listing = %d %v, want 200 listing master and dev at %s", code, body, uid)
	}
	if _, err := db.Head("k", "dev"); err == nil {
		t.Fatal("dev was not deleted after the listing")
	}
}
