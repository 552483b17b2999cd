package forkbase_test

import (
	"bufio"
	"bytes"
	"flag"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"

	"forkbase/internal/chunk"
	"forkbase/internal/chunker"
	"forkbase/internal/core"
	"forkbase/internal/hash"
	"forkbase/internal/index"
	"forkbase/internal/obs"
	"forkbase/internal/rest"
	"forkbase/internal/server"
	"forkbase/internal/store"
	"forkbase/internal/value"
)

var updateExposition = flag.Bool("update-exposition", false, "rewrite testdata/exposition.golden")

// TestExpositionSchema pins the shape of everything the process exposes
// under forkbase_: each family's HELP and TYPE lines and the label set of
// every series, after a scripted embedded + TCP + REST workload.  Sample
// values and histogram buckets are left out — they are timing — so a diff
// here is a renamed family, a changed help text, a new or lost label, or a
// series that stopped (or started) being registered.
func TestExpositionSchema(t *testing.T) {
	reg := obs.NewRegistry()
	quiet := slog.New(slog.NewTextHandler(io.Discard, nil))

	// Embedded engine: every instrumented entry point once.
	eng := core.Open(core.Options{Metrics: reg, Logger: quiet, Chunking: chunker.SmallConfig()})
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	m, err := eng.NewMapValue([]index.Entry{{Key: []byte("a"), Val: []byte("1")}})
	must(err)
	_, err = eng.Put("m", "", m, nil)
	must(err)
	must(eng.Branch("m", "dev", ""))
	_, err = eng.EditMap("m", "dev", []index.Entry{{Key: []byte("b"), Val: []byte("2")}}, nil, nil)
	must(err)
	_, err = eng.Merge("m", "", "dev", nil, nil)
	must(err)
	_, err = eng.WriteBatch([]core.WriteOp{{Key: "s", Value: value.String("v")}})
	must(err)
	_, err = eng.Get("m", "")
	must(err)
	_, err = eng.GC()
	must(err)

	// TCP server: every chunk and head operation a remote engine makes.
	srv := server.New(store.NewMemStore(), core.NewMemBranchTable(), quiet)
	srv.SetMetrics(reg)
	addr, err := srv.Listen("127.0.0.1:0")
	must(err)
	defer srv.Close()
	cl, err := server.Dial(addr)
	must(err)
	defer cl.Close()
	rs := server.NewRemoteStore(cl)
	c := chunk.New(chunk.TypeBlobLeaf, []byte("payload"))
	_, err = rs.Put(c)
	must(err)
	_, err = rs.Get(c.ID())
	must(err)
	_, err = rs.Has(c.ID())
	must(err)
	_, err = rs.GetBatch([]hash.Hash{c.ID()})
	must(err)
	_, _, err = server.NewRemoteBranchTable(cl).Head("m", "master")
	must(err)

	// REST edge: a write, a read, a miss and a scrape.
	h := rest.New(eng)
	for _, req := range []*http.Request{
		httptest.NewRequest(http.MethodPut, "/v1/obj/doc", strings.NewReader(`{"kind":"string","value":"v"}`)),
		httptest.NewRequest(http.MethodGet, "/v1/obj/doc", nil),
		httptest.NewRequest(http.MethodGet, "/v1/obj/absent", nil),
		httptest.NewRequest(http.MethodGet, "/v1/metrics", nil),
	} {
		h.ServeHTTP(httptest.NewRecorder(), req)
	}

	var expo bytes.Buffer
	must(reg.WritePrometheus(&expo))
	var schema strings.Builder
	sc := bufio.NewScanner(&expo)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "# "):
			schema.WriteString(line + "\n")
		case strings.Contains(line, "_bucket{"):
		default:
			series, _, _ := strings.Cut(line, " ")
			schema.WriteString(series + "\n")
		}
	}
	got := schema.String()

	const golden = "testdata/exposition.golden"
	if *updateExposition {
		must(os.MkdirAll("testdata", 0o755))
		must(os.WriteFile(golden, []byte(got), 0o644))
	}
	want, err := os.ReadFile(golden)
	must(err)
	if got != string(want) {
		t.Fatalf("exposition schema differs from %s (run with -update-exposition to accept):\n%s", golden, lineDiff(string(want), got))
	}
}

// lineDiff lists the lines only in want (-) and only in got (+).
func lineDiff(want, got string) string {
	count := map[string]int{}
	for _, l := range strings.Split(want, "\n") {
		count[l]++
	}
	for _, l := range strings.Split(got, "\n") {
		count[l]--
	}
	var b strings.Builder
	for _, l := range strings.Split(want, "\n") {
		if count[l] > 0 {
			b.WriteString("- " + l + "\n")
			count[l]--
		}
	}
	for _, l := range strings.Split(got, "\n") {
		if count[l] < 0 {
			b.WriteString("+ " + l + "\n")
			count[l]++
		}
	}
	return b.String()
}
