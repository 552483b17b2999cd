package store_test

import (
	"sync/atomic"
	"testing"

	"forkbase/internal/chaos"
	"forkbase/internal/chunk"
	"forkbase/internal/hash"
	"forkbase/internal/nodecache"
	"forkbase/internal/obs"
	"forkbase/internal/server"
	"forkbase/internal/store"
)

// probe is a transparent layer slipped between a wrapper and its backend: it
// counts which operations arrive, so the test can tell a native batch call
// from a per-chunk loop.
type probe struct {
	store.Store
	single, batch atomic.Int64
}

func (p *probe) Unwrap() store.Store { return p.Store }

func (p *probe) Put(c *chunk.Chunk) (bool, error) { p.single.Add(1); return p.Store.Put(c) }
func (p *probe) Get(id hash.Hash) (*chunk.Chunk, error) {
	p.single.Add(1)
	return p.Store.Get(id)
}
func (p *probe) Has(id hash.Hash) (bool, error) { p.single.Add(1); return p.Store.Has(id) }
func (p *probe) PutBatch(cs []*chunk.Chunk) ([]bool, error) {
	p.batch.Add(1)
	return p.Store.PutBatch(cs)
}
func (p *probe) GetBatch(ids []hash.Hash) ([]*chunk.Chunk, error) {
	p.batch.Add(1)
	return p.Store.GetBatch(ids)
}
func (p *probe) HasBatch(ids []hash.Hash) ([]bool, error) {
	p.batch.Add(1)
	return p.Store.HasBatch(ids)
}

// foreign is a third-party Store: the base contract and nothing else — no
// capability, no Unwrap.
type foreign struct{ store.Store }

// trusted is the verifying layer's trust rule, spelled out.
func trusted(st store.Store) bool {
	t, ok := store.As[store.VerifyCacheTruster](st)
	return ok && t.VerifyCacheTrusted()
}

// TestStackConformance pins capability transparency for every wrapper over
// every backend: As finds each optional capability exactly when the backend
// has it (and finds the backend itself, not a forwarder), the node-cache
// attachment is found through any layering, batch calls reach the backend as
// one native batch call, verify-cache trust is deny-by-default, and the
// verifier finds its witness exactly when the stack puts a trusted
// VerifiedIndexer directly beneath it.
func TestStackConformance(t *testing.T) {
	backends := []struct {
		name string
		open func(t *testing.T) store.Store
	}{
		{"mem", func(*testing.T) store.Store { return store.NewMemStore() }},
		{"file", func(t *testing.T) store.Store {
			fs, err := store.OpenFileStore(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { fs.Close() })
			return fs
		}},
	}
	ownCache := nodecache.New(1 << 20)
	wrappers := []struct {
		name string
		wrap func(store.Store) store.Store
		// cache is what the wrapper itself attaches (nil = none).
		cache *nodecache.Cache
		// perIDReads: GetBatch is deliberately a per-id loop (MaliciousStore
		// substitutes attacked ids one by one).
		perIDReads bool
		untrusted  bool
		// witness: over a backend that keeps one, the verifier the stack
		// reads through sits directly on it (or on a layer forwarding it).
		witness bool
	}{
		{name: "bare", wrap: func(s store.Store) store.Store { return s }, witness: true},
		{name: "counting", wrap: func(s store.Store) store.Store { return store.NewCountingStore(s) }},
		{name: "verifying", wrap: func(s store.Store) store.Store { return store.NewVerifyingStore(s) }, witness: true},
		{name: "instrumented", wrap: func(s store.Store) store.Store { return store.Instrument(s, obs.NewRegistry()) }, witness: true},
		{name: "nodecached", wrap: func(s store.Store) store.Store { return store.WithNodeCache(s, ownCache) }, cache: ownCache},
		{name: "malicious", wrap: func(s store.Store) store.Store { return store.NewMaliciousStore(s) },
			perIDReads: true, untrusted: true},
		{name: "malicious-under-counting", wrap: func(s store.Store) store.Store {
			return store.NewCountingStore(store.NewMaliciousStore(s))
		}, perIDReads: true, untrusted: true},
		// The order core.Open assembles.
		{name: "full-stack", wrap: func(s store.Store) store.Store {
			v := store.NewVerifyingStore(store.Instrument(s, obs.NewRegistry()))
			return store.WithNodeCache(v, ownCache)
		}, cache: ownCache, witness: true},
	}

	for _, b := range backends {
		for _, w := range wrappers {
			t.Run(b.name+"/"+w.name, func(t *testing.T) {
				backend := b.open(t)
				st := w.wrap(backend)

				checkCap[store.Collector](t, "Collector", st, backend)
				checkCap[store.Scrubber](t, "Scrubber", st, backend)
				checkCap[store.Repairer](t, "Repairer", st, backend)
				checkCap[store.PlacementEpocher](t, "PlacementEpocher", st, backend)
				checkCap[store.Kinder](t, "Kinder", st, backend)
				if got, want := store.KindOf(st), backend.(store.Kinder).StoreKind(); got != want {
					t.Errorf("KindOf = %q, want %q", got, want)
				}

				// The attachment: only the wrapper's own over a bare backend...
				if got := store.NodeCacheOf(st); got != w.cache {
					t.Errorf("NodeCacheOf = %p, want the wrapper's own %p", got, w.cache)
				}
				// ...and one attached beneath is found through the wrapper,
				// unless the wrapper attaches its own on top (topmost wins).
				below := nodecache.New(1 << 20)
				deep := w.wrap(store.WithNodeCache(backend, below))
				wantCache := below
				if w.cache != nil {
					wantCache = w.cache
				}
				if got := store.NodeCacheOf(deep); got != wantCache {
					t.Errorf("NodeCacheOf over an attached backend = %p, want %p", got, wantCache)
				}

				// Batches arrive at the backend as batches.
				p := &probe{Store: backend}
				top := w.wrap(p)
				cs := []*chunk.Chunk{
					chunk.New(chunk.TypeBlobLeaf, []byte(b.name+w.name+"-a")),
					chunk.New(chunk.TypeBlobLeaf, []byte(b.name+w.name+"-b")),
					chunk.New(chunk.TypeBlobLeaf, []byte(b.name+w.name+"-c")),
				}
				ids := []hash.Hash{cs[0].ID(), cs[1].ID(), cs[2].ID()}
				before := backend.Stats()
				if _, err := top.PutBatch(cs); err != nil {
					t.Fatal(err)
				}
				if has, err := top.HasBatch(ids); err != nil || !has[0] || !has[1] || !has[2] {
					t.Fatalf("HasBatch = %v, %v", has, err)
				}
				if got, err := top.GetBatch(ids); err != nil || got[0] == nil || got[1] == nil || got[2] == nil {
					t.Fatalf("GetBatch = %v, %v", got, err)
				}
				wantBatch, wantSingle := int64(3), int64(0)
				if w.perIDReads {
					wantBatch, wantSingle = 2, 3
				}
				if gb, gs := p.batch.Load(), p.single.Load(); gb != wantBatch || gs != wantSingle {
					t.Errorf("backend saw %d batch and %d single calls, want %d and %d", gb, gs, wantBatch, wantSingle)
				}
				after := backend.Stats()
				if d := after.UniqueChunks - before.UniqueChunks; d != 3 {
					t.Errorf("backend UniqueChunks moved by %d, want 3", d)
				}
				if d := after.Gets - before.Gets; d != 3 {
					t.Errorf("backend Gets moved by %d, want 3", d)
				}

				// Trust, stated and as the verifying layer applies it.
				if got := trusted(st); got == w.untrusted {
					t.Errorf("trusted = %v, want %v", got, !w.untrusted)
				}
				// The verifier a stack already holds, else the one core.Open
				// would put on top of it.
				v, ok := store.As[*store.VerifyingStore](st)
				if !ok {
					v = store.NewVerifyingStore(st)
				}
				_, indexed := backend.(store.VerifiedIndexer)
				if got, want := v.VerifyStats().Enabled, indexed && w.witness; got != want {
					t.Errorf("witness enabled = %v, want %v", got, want)
				}
			})
		}
	}
}

// checkCap asserts As finds capability T on st exactly when backend has it,
// and that what it finds is the backend.
func checkCap[T any](t *testing.T, name string, st, backend store.Store) {
	t.Helper()
	want, has := backend.(T)
	got, found := store.As[T](st)
	if found != has {
		t.Errorf("As[%s] found = %v, backend has it = %v", name, found, has)
		return
	}
	if has && any(got) != any(want) {
		t.Errorf("As[%s] returned %T, want the backend itself", name, got)
	}
}

// TestTrustDenyByDefault: a layer that does not unwrap ends the walk, so a
// stack containing a fault injector, a wire client or a foreign Store is
// never verify-cache-trusted — and hides the capabilities beneath it —
// whatever transparent wrappers sit above.
func TestTrustDenyByDefault(t *testing.T) {
	mem := store.NewMemStore()
	opaque := map[string]store.Store{
		"flaky":   chaos.NewFlakyStore(mem),
		"remote":  server.NewRemoteStore(nil), // never dialed: discovery makes no calls
		"foreign": foreign{mem},
	}
	for name, inner := range opaque {
		for _, st := range []store.Store{
			inner,
			store.NewCountingStore(inner),
			store.WithNodeCache(store.Instrument(inner, obs.NewRegistry()), nodecache.New(1<<10)),
		} {
			if trusted(st) {
				t.Errorf("%s: %T stack is trusted", name, st)
			}
			if store.NewVerifyingStore(st).VerifyStats().Enabled {
				t.Errorf("%s: verify cache engaged over %T stack", name, st)
			}
			if _, ok := store.As[store.Collector](st); ok {
				t.Errorf("%s: Collector visible through %T stack", name, st)
			}
		}
	}
	if !trusted(store.NewCountingStore(mem)) {
		t.Error("control: counting over mem should be trusted")
	}
}
