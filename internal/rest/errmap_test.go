package rest

import (
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"forkbase/internal/core"
	"forkbase/internal/index"
	"forkbase/internal/repl"
	"forkbase/internal/store"
	"forkbase/internal/value"
)

// TestWriteErrMapping pins the single engine-error→status table every
// handler funnels through: a given engine condition must surface as the
// same status on every route.
func TestWriteErrMapping(t *testing.T) {
	cases := []struct {
		name string
		err  error
		want int
	}{
		{"branch not found", core.ErrBranchNotFound, http.StatusNotFound},
		{"key not found", core.ErrKeyNotFound, http.StatusNotFound},
		{"map key not found", index.ErrKeyNotFound, http.StatusNotFound},
		{"chunk not found", store.ErrNotFound, http.StatusNotFound},
		{"wrapped branch not found", fmt.Errorf("ctx: %w", core.ErrBranchNotFound), http.StatusNotFound},
		{"branch exists", core.ErrBranchExists, http.StatusConflict},
		{"stale head", core.ErrStaleHead, http.StatusConflict},
		{"wrapped stale head", fmt.Errorf("op 3: %w: k@b", core.ErrStaleHead), http.StatusConflict},
		{"collected", fmt.Errorf("op 0 (k@master): %w", core.ErrCollected), http.StatusConflict},
		{"too large", fmt.Errorf("x: %w", store.ErrTooLarge), http.StatusRequestEntityTooLarge},
		{"not collectable", core.ErrNotCollectable, http.StatusNotImplemented},
		{"tampered", core.ErrTampered, http.StatusBadGateway},
		{"unknown", errors.New("disk on fire"), http.StatusInternalServerError},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rec := httptest.NewRecorder()
			writeErr(rec, tc.err)
			if rec.Code != tc.want {
				t.Fatalf("writeErr(%v) = %d, want %d", tc.err, rec.Code, tc.want)
			}
		})
	}
}

// TestHandlersUseTheMapping drives the conditions end-to-end through real
// routes, so no handler can leak a 500 for a mapped condition.
func TestHandlersUseTheMapping(t *testing.T) {
	srv, db, _ := newServer(t)
	if _, err := db.Put("obj", "master", value.String("v1"), nil); err != nil {
		t.Fatal(err)
	}

	t.Run("get missing object is 404", func(t *testing.T) {
		code, _ := doJSON(t, http.MethodGet, srv.URL+"/v1/obj/nope", nil)
		if code != http.StatusNotFound {
			t.Fatalf("code = %d", code)
		}
	})
	t.Run("get missing branch is 404", func(t *testing.T) {
		code, _ := doJSON(t, http.MethodGet, srv.URL+"/v1/obj/obj?branch=ghost", nil)
		if code != http.StatusNotFound {
			t.Fatalf("code = %d", code)
		}
	})
	t.Run("history of missing branch is 404", func(t *testing.T) {
		code, _ := doJSON(t, http.MethodGet, srv.URL+"/v1/obj/obj/history?branch=ghost", nil)
		if code != http.StatusNotFound {
			t.Fatalf("code = %d", code)
		}
	})
	t.Run("diff against missing branch is 404", func(t *testing.T) {
		code, _ := doJSON(t, http.MethodGet, srv.URL+"/v1/obj/obj/diff?from=master&to=ghost", nil)
		if code != http.StatusNotFound {
			t.Fatalf("code = %d", code)
		}
	})
	t.Run("duplicate branch is 409", func(t *testing.T) {
		code, _ := doJSON(t, http.MethodPost, srv.URL+"/v1/obj/obj/branch", map[string]string{"new": "dev", "from": "master"})
		if code != http.StatusCreated {
			t.Fatalf("setup code = %d", code)
		}
		code, _ = doJSON(t, http.MethodPost, srv.URL+"/v1/obj/obj/branch", map[string]string{"new": "dev", "from": "master"})
		if code != http.StatusConflict {
			t.Fatalf("code = %d", code)
		}
	})
	t.Run("missing dataset is 404", func(t *testing.T) {
		code, _ := doJSON(t, http.MethodGet, srv.URL+"/v1/dataset/ghost/stat", nil)
		if code != http.StatusNotFound {
			t.Fatalf("code = %d", code)
		}
	})
	t.Run("merge with missing source is 404", func(t *testing.T) {
		code, _ := doJSON(t, http.MethodPost, srv.URL+"/v1/obj/obj/merge", map[string]string{"into": "master", "from": "ghost"})
		if code != http.StatusNotFound {
			t.Fatalf("code = %d", code)
		}
	})
}

func TestReplStatusEndpoint(t *testing.T) {
	srv, _, _ := newServer(t)
	code, body := doJSON(t, http.MethodGet, srv.URL+"/v1/repl/status", nil)
	if code != http.StatusOK || body["following"] != false {
		t.Fatalf("non-replica status: %d %v", code, body)
	}

	// A replica handler publishes its follower's live stats.
	db2 := core.Open(core.Options{})
	h := New(db2).WithReplStatus(func() repl.Stats {
		return repl.Stats{Cursor: 42, ChunksFetched: 7, BytesFetched: 4096, LastError: ""}
	})
	srv2 := httptest.NewServer(h)
	defer srv2.Close()
	code, body = doJSON(t, http.MethodGet, srv2.URL+"/v1/repl/status", nil)
	if code != http.StatusOK || body["following"] != true {
		t.Fatalf("replica status: %d %v", code, body)
	}
	if body["cursor"].(float64) != 42 || body["chunks_fetched"].(float64) != 7 {
		t.Fatalf("replica status body: %v", body)
	}
}

// TestReadOnlyHandlerRejectsWrites: every mutating route on a replica's
// REST API answers 403; reads keep working.
func TestReadOnlyHandlerRejectsWrites(t *testing.T) {
	opts := core.Options{Store: store.NewMemStore(), Branches: core.NewMemBranchTable()}
	if _, err := core.Open(opts).Put("obj", "master", value.String("v"), nil); err != nil {
		t.Fatal(err)
	}
	opts.ReadOnly = true
	db := core.Open(opts)
	srv := httptest.NewServer(New(db))
	defer srv.Close()

	writes := []struct {
		method, path string
		body         any
	}{
		{http.MethodPut, "/v1/obj/obj", map[string]any{"kind": "string", "value": "x"}},
		{http.MethodPost, "/v1/batch", map[string]any{"ops": []map[string]any{{"key": "k", "kind": "string", "value": "x"}}}},
		{http.MethodPost, "/v1/gc", nil},
		{http.MethodPost, "/v1/obj/obj/branch", map[string]string{"new": "dev"}},
		{http.MethodPost, "/v1/obj/obj/merge", map[string]string{"into": "a", "from": "b"}},
		{http.MethodPost, "/v1/dataset/ds", nil},
	}
	for _, wr := range writes {
		code, _ := doJSON(t, wr.method, srv.URL+wr.path, wr.body)
		if code != http.StatusForbidden {
			t.Errorf("%s %s on read-only handler = %d, want 403", wr.method, wr.path, code)
		}
	}
	if code, _ := doJSON(t, http.MethodGet, srv.URL+"/v1/obj/obj", nil); code != http.StatusOK {
		t.Fatalf("read on read-only handler = %d", code)
	}
}

// TestStaleHeadIs409 drives a real lost head race through PUT /v1/obj.
func TestStaleHeadIs409(t *testing.T) {
	// raceTable wraps the branch table so the head moves between the
	// handler's read and its CAS, every time.
	db := core.Open(core.Options{Branches: &raceTable{core.NewMemBranchTable()}})
	srv := httptest.NewServer(New(db))
	defer srv.Close()
	code, body := doJSON(t, http.MethodPut, srv.URL+"/v1/obj/k", map[string]any{"kind": "string", "value": "x"})
	if code != http.StatusConflict {
		t.Fatalf("lost head race = %d (%v), want 409", code, body)
	}
}

// raceTable loses every Apply, simulating a permanently contended head.
type raceTable struct {
	core.BranchTable
}

func (r *raceTable) Apply([]core.HeadOp) (bool, error) {
	return false, nil // someone always won the race first
}
