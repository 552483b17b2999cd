package forkbase_test

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"strings"
	"testing"
	"time"

	"forkbase"
	"forkbase/internal/access"
	"forkbase/internal/chunker"
	"forkbase/internal/core"
	"forkbase/internal/obs"
	"forkbase/internal/pos"
	"forkbase/internal/store"
)

// api is every DB operation the examples, the CLI and the README call, with
// the signature they call it by.  Most are the engine's, promoted into DB, so
// a rename in the engine breaks this package's build rather than a caller's.
type api interface {
	Close() error
	Put(key, branch string, v forkbase.Value, meta map[string]string) (forkbase.Version, error)
	PutString(key, branch, s string, meta map[string]string) (forkbase.Version, error)
	PutMap(key, branch string, entries []forkbase.Entry, meta map[string]string) (forkbase.Version, error)
	PutBlob(key, branch string, data []byte, meta map[string]string) (forkbase.Version, error)
	WriteBatch(ops []forkbase.WriteOp) ([]forkbase.Version, error)
	Get(key, branch string) (forkbase.Version, error)
	GetVersion(key string, uid forkbase.Hash) (forkbase.Version, error)
	Head(key, branch string) (forkbase.Hash, error)
	Latest(key string) (string, forkbase.Version, error)
	History(key, branch string, limit int) ([]forkbase.Version, error)
	ListKeys() ([]string, error)
	ListBranches(key string) ([]string, error)
	IndexOf(v forkbase.Version) (forkbase.Index, error)
	IndexKind() forkbase.IndexKind
	MapOf(v forkbase.Version) (*pos.Tree, error)
	Chunking() chunker.Config
	Branch(key, newBranch, fromBranch string) error
	RenameBranch(key, from, to string) error
	DiffBranches(key, fromBranch, toBranch string) ([]forkbase.Delta, forkbase.DiffStats, error)
	Merge(key, dst, src string, resolve forkbase.Resolver, meta map[string]string) (forkbase.MergeResult, error)
	VerifyVersion(key string, uid forkbase.Hash, deep bool) (forkbase.VerifyReport, error)
	GC() (forkbase.GCStats, error)
	Scrub() (forkbase.ScrubStats, error)
	StoreHealth() error
	HealFrom(addr string) (forkbase.HealStats, error)
	Stats() forkbase.StoreStats
	NodeCacheStats() forkbase.NodeCacheStats
	VerifyStats() store.VerifyStats
	Metrics() *obs.Registry
	Following() bool
	ReplStats() forkbase.ReplStats
	WaitSynced(timeout time.Duration) error
	FeedLag() (uint64, error)
	OpenDataset(name, branch string) (*forkbase.Dataset, error)
	LoadCSVDataset(name, branch, keyColumn string, r io.Reader, meta map[string]string) (*forkbase.Dataset, error)
	DiffDatasets(name, fromBranch, toBranch string) (forkbase.DiffResult, error)
	ACL() *access.Controller
	SessionFor(user string) *forkbase.Session
}

var _ api = (*forkbase.DB)(nil)

func TestPublicRoundTrip(t *testing.T) {
	db := forkbase.MustOpen(forkbase.InMemory())
	defer db.Close()

	v, err := db.PutString("k", "", "hello", map[string]string{"a": "b"})
	if err != nil {
		t.Fatal(err)
	}
	got, err := db.Get("k", "")
	if err != nil || got.UID != v.UID {
		t.Fatalf("get: %v", err)
	}
	if got.Value.Display() != "hello" {
		t.Fatalf("display = %q", got.Value.Display())
	}
	byUID, err := db.GetVersion("k", v.UID)
	if err != nil || byUID.Value.Display() != "hello" {
		t.Fatalf("get by uid: %v", err)
	}
}

func TestPublicTypedPuts(t *testing.T) {
	db := forkbase.MustOpen()
	defer db.Close()
	if _, err := db.PutBlob("b", "", bytes.Repeat([]byte("z"), 50000), nil); err != nil {
		t.Fatal(err)
	}
	ver, err := db.Get("b", "")
	if err != nil {
		t.Fatal(err)
	}
	data, err := db.BlobBytes(ver)
	if err != nil || len(data) != 50000 {
		t.Fatalf("blob: %d %v", len(data), err)
	}
	if _, err := db.PutSet("s", "", [][]byte{[]byte("x")}, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := db.PutList("l", "", [][]byte{[]byte("i")}, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Put("prim", "", forkbase.NewInt(7), nil); err != nil {
		t.Fatal(err)
	}
	keys, err := db.ListKeys()
	if err != nil || len(keys) != 4 {
		t.Fatalf("keys = %v", keys)
	}
}

func TestPublicBranchDiffMerge(t *testing.T) {
	db := forkbase.MustOpen()
	defer db.Close()
	entries := make([]forkbase.Entry, 500)
	for i := range entries {
		entries[i] = forkbase.Entry{Key: []byte(fmt.Sprintf("r%04d", i)), Val: []byte("v")}
	}
	if _, err := db.PutMap("m", "", entries, nil); err != nil {
		t.Fatal(err)
	}
	if err := db.Branch("m", "dev", ""); err != nil {
		t.Fatal(err)
	}
	entries[100].Val = []byte("changed")
	if _, err := db.PutMap("m", "dev", entries, nil); err != nil {
		t.Fatal(err)
	}
	deltas, _, err := db.DiffBranches("m", "master", "dev")
	if err != nil || len(deltas) != 1 {
		t.Fatalf("diff: %d %v", len(deltas), err)
	}
	res, err := db.Merge("m", "master", "dev", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res.FastForward {
		t.Fatal("expected fast-forward")
	}
	branch, latest, err := db.Latest("m")
	if err != nil || latest.Seq != 2 {
		t.Fatalf("latest: %s %d %v", branch, latest.Seq, err)
	}
}

func TestPublicDatasets(t *testing.T) {
	db := forkbase.MustOpen()
	defer db.Close()
	csv := "id,city\nu1,Oslo\nu2,Rio\n"
	ds, err := db.LoadCSVDataset("users", "", "id", strings.NewReader(csv), nil)
	if err != nil {
		t.Fatal(err)
	}
	if ds.Rows() != 2 {
		t.Fatalf("rows = %d", ds.Rows())
	}
	ds2, err := db.OpenDataset("users", "")
	if err != nil || ds2.Rows() != 2 {
		t.Fatalf("reopen: %v", err)
	}
	var buf bytes.Buffer
	if err := ds2.ExportCSV(&buf); err != nil || buf.String() != csv {
		t.Fatalf("export: %q %v", buf.String(), err)
	}
}

func TestPublicFileBacked(t *testing.T) {
	dir := t.TempDir()
	db, err := forkbase.Open(forkbase.FileBacked(dir))
	if err != nil {
		t.Fatal(err)
	}
	want, err := db.PutString("persist", "", "disk", nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db2, err := forkbase.Open(forkbase.FileBacked(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	got, err := db2.Get("persist", "")
	if err != nil || got.UID != want.UID {
		t.Fatalf("reopen: %v", err)
	}
}

// TestPublicScrubFindsInjectedFileStore: Scrub and LastScrub find the file
// store through the engine's stack, so a WithStore file store scrubs like a
// FileBacked one, and an in-memory instance is refused by the engine.
func TestPublicScrubFindsInjectedFileStore(t *testing.T) {
	fs, err := store.OpenFileStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	db := forkbase.MustOpen(forkbase.WithStore(fs))
	if _, err := db.PutString("k", "", "v", nil); err != nil {
		t.Fatal(err)
	}
	st, err := db.Scrub()
	if err != nil || st.Ok == 0 {
		t.Fatalf("Scrub over an injected file store = %+v, %v", st, err)
	}
	if last, _, ok := db.LastScrub(); !ok || last.Ok != st.Ok {
		t.Fatalf("LastScrub = %+v, %v; want the pass just run", last, ok)
	}

	mem := forkbase.MustOpen()
	defer mem.Close()
	if _, err := mem.Scrub(); !errors.Is(err, core.ErrNotScrubbable) {
		t.Fatalf("in-memory Scrub = %v, want core.ErrNotScrubbable", err)
	}
	if _, _, ok := mem.LastScrub(); ok {
		t.Fatal("in-memory LastScrub reported a pass")
	}
}

func TestPublicSessionACL(t *testing.T) {
	db := forkbase.MustOpen()
	defer db.Close()
	db.ACL().Grant("writer", "doc", access.Wildcard, access.Write)
	w := db.SessionFor("writer")
	r := db.SessionFor("reader")

	if _, err := w.Put("doc", "", forkbase.NewString("x"), nil); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Get("doc", ""); !errors.Is(err, forkbase.ErrDenied) {
		t.Fatalf("reader get: %v", err)
	}
	db.ACL().Grant("reader", "doc", "master", access.Read)
	if _, err := r.Get("doc", ""); err != nil {
		t.Fatalf("granted reader get: %v", err)
	}
	if _, err := r.Put("doc", "", forkbase.NewString("y"), nil); !errors.Is(err, forkbase.ErrDenied) {
		t.Fatalf("reader put: %v", err)
	}
	if err := r.DeleteBranch("doc", "master"); !errors.Is(err, forkbase.ErrDenied) {
		t.Fatalf("reader delete-branch: %v", err)
	}
}

func TestPublicVerify(t *testing.T) {
	db := forkbase.MustOpen()
	defer db.Close()
	v, err := db.PutString("k", "", "content", nil)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := db.VerifyVersion("k", v.UID, true)
	if err != nil || !rep.OK {
		t.Fatalf("verify: %+v %v", rep, err)
	}
	// The same uid is not a version of any other key.
	if rep, err := db.VerifyVersion("other", v.UID, true); !errors.Is(err, forkbase.ErrTampered) || rep.OK {
		t.Fatalf("verify under a foreign key: %+v %v", rep, err)
	}
}

func TestParseHash(t *testing.T) {
	db := forkbase.MustOpen()
	defer db.Close()
	v, _ := db.PutString("k", "", "x", nil)
	parsed, err := forkbase.ParseHash(v.UID.String())
	if err != nil || parsed != v.UID {
		t.Fatalf("parse: %v", err)
	}
	if _, err := forkbase.ParseHash("nope"); err == nil {
		t.Fatal("parsed garbage")
	}
}

func TestPublicNodeCache(t *testing.T) {
	db := forkbase.MustOpen(forkbase.InMemory(), forkbase.WithNodeCache(16<<20))
	defer db.Close()

	entries := make([]forkbase.Entry, 5000)
	for i := range entries {
		entries[i] = forkbase.Entry{Key: []byte(fmt.Sprintf("k%06d", i)), Val: []byte(fmt.Sprintf("v%d", i))}
	}
	if _, err := db.PutMap("m", "", entries, nil); err != nil {
		t.Fatal(err)
	}
	ver, err := db.Get("m", "")
	if err != nil {
		t.Fatal(err)
	}
	tree, err := db.MapOf(ver)
	if err != nil {
		t.Fatal(err)
	}
	for pass := 0; pass < 2; pass++ {
		for i := 0; i < 5000; i += 113 {
			v, err := tree.Get([]byte(fmt.Sprintf("k%06d", i)))
			if err != nil {
				t.Fatal(err)
			}
			if want := fmt.Sprintf("v%d", i); string(v) != want {
				t.Fatalf("got %q want %q", v, want)
			}
		}
	}
	st := db.NodeCacheStats()
	if st.Hits == 0 || st.Entries == 0 {
		t.Fatalf("cache unused through public API: %+v", st)
	}

	// Without WithNodeCache the stats stay zero.
	plain := forkbase.MustOpen()
	defer plain.Close()
	if st := plain.NodeCacheStats(); st != (forkbase.NodeCacheStats{}) {
		t.Fatalf("cache stats on uncached DB: %+v", st)
	}
}

// TestPublicObservabilityOptions: WithMetrics, WithLogger and
// WithSlowOpThreshold reach the engine — a Put counts in the given registry,
// and with a 1 ns threshold it is reported through the given logger.
func TestPublicObservabilityOptions(t *testing.T) {
	reg := obs.NewRegistry()
	var logs bytes.Buffer
	db := forkbase.MustOpen(forkbase.InMemory(),
		forkbase.WithMetrics(reg),
		forkbase.WithLogger(slog.New(slog.NewTextHandler(&logs, nil))),
		forkbase.WithSlowOpThreshold(time.Nanosecond))
	defer db.Close()
	before := reg.Sum("forkbase_engine_ops_total")
	if _, err := db.PutString("k", "", "v", nil); err != nil {
		t.Fatal(err)
	}
	if got := reg.Sum("forkbase_engine_ops_total") - before; got != 1 {
		t.Fatalf("engine ops counted in the registry = %v, want 1", got)
	}
	if out := logs.String(); !strings.Contains(out, `msg="slow op"`) || !strings.Contains(out, "op=put") {
		t.Fatalf("no slow-op record for the put reached the logger:\n%s", out)
	}
}

// TestPublicEditObservability: an edit is an engine operation of its own,
// "edit" — counted once in the registry and, past the slow-op threshold,
// logged with its key and branch.
func TestPublicEditObservability(t *testing.T) {
	reg := obs.NewRegistry()
	var logs bytes.Buffer
	db := forkbase.MustOpen(forkbase.InMemory(),
		forkbase.WithMetrics(reg),
		forkbase.WithLogger(slog.New(slog.NewTextHandler(&logs, nil))),
		forkbase.WithSlowOpThreshold(time.Nanosecond))
	defer db.Close()
	if _, err := db.PutMap("m", "", []forkbase.Entry{{Key: []byte("a"), Val: []byte("1")}}, nil); err != nil {
		t.Fatal(err)
	}
	logs.Reset()
	if _, err := db.EditMap("m", "", []forkbase.Entry{{Key: []byte("b"), Val: []byte("2")}}, nil, nil); err != nil {
		t.Fatal(err)
	}
	if n, _ := reg.Value("forkbase_engine_ops_total", "edit"); n != 1 {
		t.Fatalf("edits counted in the registry = %v, want 1", n)
	}
	if out := logs.String(); !strings.Contains(out, "op=edit") || !strings.Contains(out, "key=m branch=master") {
		t.Fatalf("no slow-op record for the edit reached the logger:\n%s", out)
	}
}

func TestWriteBatchPublicAPI(t *testing.T) {
	db := forkbase.MustOpen(forkbase.InMemory())
	defer db.Close()
	vers, err := db.WriteBatch([]forkbase.WriteOp{
		{Key: "a", Value: forkbase.NewString("1")},
		{Key: "b", Value: forkbase.NewInt(2)},
		{Key: "a", Value: forkbase.NewString("3")},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(vers) != 3 || vers[2].Seq != 2 {
		t.Fatalf("versions = %+v", vers)
	}
	got, err := db.Get("a", "")
	if err != nil {
		t.Fatal(err)
	}
	if s, _ := got.Value.AsString(); s != "3" {
		t.Fatalf("a = %q", s)
	}
	// Batched versions are tamper-verifiable like any others.
	rep, err := db.VerifyVersion("a", got.UID, true)
	if err != nil || !rep.OK {
		t.Fatalf("verify: %+v %v", rep, err)
	}
}

func TestWriteBatchFileBacked(t *testing.T) {
	dir := t.TempDir()
	db, err := forkbase.Open(forkbase.FileBacked(dir))
	if err != nil {
		t.Fatal(err)
	}
	ops := make([]forkbase.WriteOp, 0, 50)
	for i := 0; i < 50; i++ {
		ops = append(ops, forkbase.WriteOp{
			Key:   fmt.Sprintf("key-%02d", i),
			Value: forkbase.NewString(fmt.Sprintf("val-%d", i)),
		})
	}
	if _, err := db.WriteBatch(ops); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	// Group-committed batch survives reopen.
	db2, err := forkbase.Open(forkbase.FileBacked(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	for i := 0; i < 50; i++ {
		v, err := db2.Get(fmt.Sprintf("key-%02d", i), "")
		if err != nil {
			t.Fatalf("key-%02d lost: %v", i, err)
		}
		if s, _ := v.Value.AsString(); s != fmt.Sprintf("val-%d", i) {
			t.Fatalf("key-%02d = %q", i, s)
		}
	}
}

func TestPublicOpenRejectsBadChunking(t *testing.T) {
	// Inverted min/max must fail at Open, not deep inside the first build.
	if _, err := forkbase.Open(forkbase.WithChunking(12, 1<<16, 1<<9)); err == nil {
		t.Fatal("Open accepted MinSize > MaxSize")
	}
	// Absurd Q likewise.
	if _, err := forkbase.Open(forkbase.WithChunking(99, 1<<9, 1<<16)); err == nil {
		t.Fatal("Open accepted Q=99")
	}
	// A valid explicit config still opens.
	db, err := forkbase.Open(forkbase.WithChunking(10, 1<<7, 1<<14))
	if err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	db.Close()
}

// TestOpenRejectsConflictingBackends: Remote, FileBacked and WithStore each
// choose the chunk store, so Open refuses any two of them instead of letting
// one silently replace the other.
func TestOpenRejectsConflictingBackends(t *testing.T) {
	node := forkbase.MustOpen()
	defer node.Close()
	srv := node.NewServer(nil)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	for _, tc := range []struct {
		name string
		a, b forkbase.Option
	}{
		{"remote+file", forkbase.Remote(addr), forkbase.FileBacked(t.TempDir())},
		{"remote+store", forkbase.Remote(addr), forkbase.WithStore(store.NewMemStore())},
		{"file+store", forkbase.FileBacked(t.TempDir()), forkbase.WithStore(store.NewMemStore())},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if db, err := forkbase.Open(tc.a, tc.b); err == nil {
				db.Close()
				t.Fatal("Open accepted two chunk stores")
			}
		})
	}
}

// TestOpenRefusesUnknownIndexKind: an index kind that names neither
// structure is refused where an engine is opened — an error from
// forkbase.Open, a panic from core.Open — instead of at the first map write.
func TestOpenRefusesUnknownIndexKind(t *testing.T) {
	if db, err := forkbase.Open(forkbase.WithIndex(forkbase.IndexKind(7))); err == nil {
		db.Close()
		t.Fatal("Open accepted index kind 7")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("core.Open accepted index kind 7")
		}
	}()
	core.Open(core.Options{Index: forkbase.IndexKind(7)})
}

func TestPublicWithIndexMPT(t *testing.T) {
	db := forkbase.MustOpen(forkbase.WithIndex(forkbase.IndexMPT))
	defer db.Close()
	if db.IndexKind() != forkbase.IndexMPT {
		t.Fatalf("IndexKind = %s", db.IndexKind())
	}
	entries := make([]forkbase.Entry, 500)
	for i := range entries {
		entries[i] = forkbase.Entry{
			Key: []byte(fmt.Sprintf("k%04d", i)),
			Val: []byte(fmt.Sprintf("v%d", i)),
		}
	}
	ver, err := db.PutMap("m", "", entries, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ver.Index != forkbase.IndexMPT {
		t.Fatalf("version index = %s", ver.Index)
	}
	// Structure-agnostic access works; the POS-typed accessor refuses.
	ix, err := db.IndexOf(ver)
	if err != nil {
		t.Fatal(err)
	}
	if ix.Kind() != forkbase.IndexMPT || ix.Len() != 500 {
		t.Fatalf("IndexOf: %s/%d", ix.Kind(), ix.Len())
	}
	if got, err := ix.Get([]byte("k0042")); err != nil || string(got) != "v42" {
		t.Fatalf("Get = %q, %v", got, err)
	}
	if _, err := db.MapOf(ver); err == nil {
		t.Fatal("MapOf decoded an MPT root as a POS-Tree")
	}
	// Branch, edit, diff, merge all flow through the engine generically.
	if err := db.Branch("m", "fork", ""); err != nil {
		t.Fatal(err)
	}
	if _, err := db.EditMap("m", "fork", []forkbase.Entry{{Key: []byte("k0042"), Val: []byte("forked")}}, nil, nil); err != nil {
		t.Fatal(err)
	}
	deltas, _, err := db.DiffBranches("m", "", "fork")
	if err != nil {
		t.Fatal(err)
	}
	if len(deltas) != 1 {
		t.Fatalf("deltas = %+v", deltas)
	}
	res, err := db.Merge("m", "", "fork", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	ix, err = db.IndexOf(res.Version)
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := ix.Get([]byte("k0042")); string(got) != "forked" {
		t.Fatalf("merged value = %q", got)
	}
	// GC and verify on the MPT-backed public handle.
	if _, err := db.GC(); err != nil {
		t.Fatal(err)
	}
	if _, err := db.VerifyVersion("m", res.Version.UID, true); err != nil {
		t.Fatalf("verify: %v", err)
	}
}
