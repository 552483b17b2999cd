package rest

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"

	"forkbase/internal/chunker"
	"forkbase/internal/core"
	"forkbase/internal/store"
	"forkbase/internal/value"
)

// collabBody is a PUT body shaped like the rest-collab benchmark's: a map of
// 32 entries, 3-byte keys, 48-byte text values, marshalled from a Go map
// (so key-sorted), about 1.85 KB.
func collabBody(rng *rand.Rand) []byte {
	entries := make(map[string]string, 32)
	raw := make([]byte, 36)
	for r := 0; r < 32; r++ {
		rng.Read(raw)
		entries[fmt.Sprintf("f%02d", r)] = base64.RawURLEncoding.EncodeToString(raw)
	}
	body, err := json.Marshal(map[string]any{"kind": "map", "entries": entries})
	if err != nil {
		panic(err)
	}
	return body
}

// BenchmarkPutObject: PUT /v1/obj/{key} over HTTP with rest-collab-shaped
// bodies over 1,000 objects, one version each per op: request decode, map
// build and commit, response encode, and the loopback round trip.
//
//	go test -run xxx -bench PutObject -cpu 1 ./internal/rest
func BenchmarkPutObject(b *testing.B) {
	db := core.Open(core.Options{Store: store.NewMemStore(), Chunking: chunker.DefaultConfig()})
	srv := httptest.NewServer(New(db))
	defer srv.Close()
	rng := rand.New(rand.NewSource(1))
	const objects = 1000
	bodies := make([][]byte, objects)
	for i := range bodies {
		bodies[i] = collabBody(rng)
	}
	put := func(i int) {
		req, err := http.NewRequest(http.MethodPut, fmt.Sprintf("%s/v1/obj/o%03d", srv.URL, i%objects),
			bytes.NewReader(bodies[i*7%objects]))
		if err != nil {
			b.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			b.Fatal(err)
		}
		var out bytes.Buffer
		_, _ = out.ReadFrom(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusCreated {
			b.Fatalf("PUT: %d %s", resp.StatusCode, out.Bytes())
		}
	}
	for i := 0; i < objects; i++ {
		put(i)
	}
	b.SetBytes(int64(len(bodies[0])))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		put(objects + i)
	}
}

// BenchmarkDispatch: four requests served in process, past the edge's
// accounting, routing and refusals and through cheap handlers: a read of a
// string object, its one-version history, a method the path does not list
// (405) and an action the family lacks (404).
//
//	go test -run xxx -bench Dispatch -benchmem -cpu 1 ./internal/rest
func BenchmarkDispatch(b *testing.B) {
	db := core.Open(core.Options{Store: store.NewMemStore()})
	if _, err := db.Put("k", "master", value.String("v"), nil); err != nil {
		b.Fatal(err)
	}
	h := New(db)
	reqs := []*http.Request{
		httptest.NewRequest(http.MethodGet, "/v1/obj/k", nil),
		httptest.NewRequest(http.MethodGet, "/v1/obj/k/history?limit=1", nil),
		httptest.NewRequest(http.MethodPost, "/v1/keys", nil),
		httptest.NewRequest(http.MethodGet, "/v1/obj/k/nope", nil),
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.ServeHTTP(httptest.NewRecorder(), reqs[i%len(reqs)])
	}
}
