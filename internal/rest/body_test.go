package rest

import (
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"

	"forkbase/internal/chunker"
	"forkbase/internal/core"
	"forkbase/internal/server"
	"forkbase/internal/store"
)

// filler reads as an endless run of 'A'.
type filler struct{}

func (filler) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = 'A'
	}
	return len(p), nil
}

// TestHostileBodies: a request body past server.MaxPayload, the TCP edge's
// frame cap, costs the client a 413 on every route that reads one — not a
// commit and not an allocation the size of the body.  A body that declares
// its length is refused unread; one of unknown length is cut off at the cap.
func TestHostileBodies(t *testing.T) {
	db := core.Open(core.Options{Store: store.NewMemStore(), Chunking: chunker.SmallConfig()})
	h := New(db)
	seed := httptest.NewRecorder()
	h.ServeHTTP(seed, httptest.NewRequest(http.MethodPost, "/v1/dataset/d?key=id", strings.NewReader("id,v\n1,x\n")))
	if seed.Code != http.StatusCreated {
		t.Fatalf("seeding the dataset: %d %s", seed.Code, seed.Body)
	}
	const over = server.MaxPayload + 1<<16
	for _, tc := range []struct {
		name, method, path, head, tail string
		declared                       bool
	}{
		{"put, declared length", http.MethodPut, "/v1/obj/k", `{"kind":"string","value":"`, `"}`, true},
		{"put", http.MethodPut, "/v1/obj/k", `{"kind":"string","value":"`, `"}`, false},
		{"batch", http.MethodPost, "/v1/batch", `{"ops":[{"key":"k","kind":"string","value":"`, `"}]}`, false},
		{"branch", http.MethodPost, "/v1/obj/d/branch", `{"new":"`, `"}`, false},
		{"merge", http.MethodPost, "/v1/obj/d/merge", `{"into":"master","from":"master","message":"`, `"}`, false},
		{"dataset import", http.MethodPost, "/v1/dataset/e?key=id", "id,v\n1,", "\n", false},
		{"dataset append", http.MethodPost, "/v1/dataset/d?append=1", "id,v\n2,", "\n", false},
	} {
		// A well-formed body one step past the cap.
		body := io.MultiReader(strings.NewReader(tc.head),
			io.LimitReader(filler{}, over-int64(len(tc.head)+len(tc.tail))), strings.NewReader(tc.tail))
		req := httptest.NewRequest(tc.method, tc.path, body)
		req.ContentLength = -1
		if tc.declared {
			req.ContentLength = over
		}
		rec := httptest.NewRecorder()
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		h.ServeHTTP(rec, req)
		runtime.ReadMemStats(&after)
		if rec.Code != http.StatusRequestEntityTooLarge {
			t.Errorf("%s: %d %.80s, want 413", tc.name, rec.Code, rec.Body)
		}
		if got := after.TotalAlloc - before.TotalAlloc; tc.declared && got > server.MaxPayload+1<<20 {
			t.Errorf("%s: refusing the body allocated %d bytes; the cap is %d", tc.name, got, server.MaxPayload)
		}
	}
	if keys, err := db.ListKeys(); err != nil || len(keys) != 1 {
		t.Fatalf("keys after hostile bodies: %v, %v; want only the seeded dataset", keys, err)
	}
	if branches, err := db.ListBranches("d"); err != nil || len(branches) != 1 {
		t.Fatalf("branches of d after hostile bodies: %d, %v; want master alone", len(branches), err)
	}
}
