package core

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"forkbase/internal/chunk"
	"forkbase/internal/chunker"
	"forkbase/internal/fnode"
	"forkbase/internal/hash"
	"forkbase/internal/index"
	"forkbase/internal/nodecache"
	"forkbase/internal/obs"
	"forkbase/internal/pos"
	"forkbase/internal/store"
	"forkbase/internal/value"
)

func bigMap(t *testing.T, db *DB, n int, tag string) value.Value {
	t.Helper()
	entries := make([]pos.Entry, n)
	for i := range entries {
		entries[i] = pos.Entry{
			Key: []byte(fmt.Sprintf("k-%05d", i)),
			Val: []byte(fmt.Sprintf("%s-%d", tag, i)),
		}
	}
	v, err := value.NewMap(db.Store(), db.Chunking(), entries)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func TestGCKeepsEverythingReachable(t *testing.T) {
	db := newTestDB()
	db.Put("a", "", bigMap(t, db, 500, "v1"), nil)
	db.Put("a", "", bigMap(t, db, 500, "v2"), nil)
	db.Branch("a", "dev", "")
	db.Put("b", "", value.String("primitive"), nil)

	stats, err := db.GC()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Swept != 0 {
		t.Fatalf("GC swept %d chunks that were all reachable", stats.Swept)
	}
	// Everything still readable, including history.
	hist, err := db.History("a", "master", 0)
	if err != nil || len(hist) != 2 {
		t.Fatalf("history after GC: %d %v", len(hist), err)
	}
	if _, err := db.VerifyVersion("a", hist[0].UID, true); err != nil {
		t.Fatalf("verify after GC: %v", err)
	}
}

func TestGCSweepsAfterBranchDelete(t *testing.T) {
	db := newTestDB()
	// Two independent keys; delete every branch of one of them.
	db.Put("keep", "", bigMap(t, db, 500, "keep"), nil)
	db.Put("drop", "", bigMap(t, db, 500, "drop"), nil)
	before := db.Stats().UniqueChunks

	if err := db.DeleteBranch("drop", "master"); err != nil {
		t.Fatal(err)
	}
	stats, err := db.GC()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Swept == 0 || stats.SweptBytes == 0 {
		t.Fatalf("nothing swept after branch delete: %+v", stats)
	}
	after := db.Stats().UniqueChunks
	if after >= before {
		t.Fatalf("chunk count did not shrink: %d -> %d", before, after)
	}
	// The surviving key is fully intact.
	v, err := db.Get("keep", "master")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.VerifyVersion("keep", v.UID, true); err != nil {
		t.Fatalf("survivor corrupted by GC: %v", err)
	}
}

func TestGCPreservesSharedChunks(t *testing.T) {
	db := newTestDB()
	// Two keys sharing most pages (same content); deleting one must not
	// free the shared pages.
	v1 := bigMap(t, db, 800, "shared")
	db.Put("x", "", v1, nil)
	v2 := bigMap(t, db, 800, "shared") // identical content → same chunks
	db.Put("y", "", v2, nil)

	if err := db.DeleteBranch("x", "master"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.GC(); err != nil {
		t.Fatal(err)
	}
	got, err := db.Get("y", "master")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.VerifyVersion("y", got.UID, true); err != nil {
		t.Fatalf("shared chunks swept: %v", err)
	}
}

func TestGCHistoryStaysAlive(t *testing.T) {
	db := newTestDB()
	old, err := db.Put("doc", "", bigMap(t, db, 300, "old"), nil)
	if err != nil {
		t.Fatal(err)
	}
	db.Put("doc", "", bigMap(t, db, 300, "new"), nil)
	if _, err := db.GC(); err != nil {
		t.Fatal(err)
	}
	// The old version is reachable via the head's bases chain.
	if _, err := db.GetVersion("doc", old.UID); err != nil {
		t.Fatalf("historical version swept: %v", err)
	}
}

func TestGCOnWrappedStores(t *testing.T) {
	mal := store.NewMaliciousStore(store.NewMemStore())
	db := Open(Options{Store: mal, Chunking: chunker.SmallConfig()})
	db.Put("k", "", value.String("v"), nil)
	if _, err := db.GC(); err != nil {
		t.Fatalf("GC through malicious wrapper: %v", err)
	}
	inst := store.Instrument(store.NewMemStore(), obs.NewRegistry())
	db2 := Open(Options{Store: inst, Chunking: chunker.SmallConfig()})
	db2.Put("k", "", value.String("v"), nil)
	if _, err := db2.GC(); err != nil {
		t.Fatalf("GC through instrumented wrapper: %v", err)
	}
}

// opaqueStore hides every collection capability of its backing store — the
// shape of a third-party store that implements only the base interface.
// Embedding the interface narrows the method set to exactly store.Store, and
// without Unwrap the capability walk ends here.
type opaqueStore struct{ store.Store }

func TestGCNotCollectable(t *testing.T) {
	db := Open(Options{Store: opaqueStore{store.NewMemStore()}, Chunking: chunker.SmallConfig()})
	if _, err := db.GC(); !errors.Is(err, ErrNotCollectable) {
		t.Fatalf("opaque store GC err = %v", err)
	}
}

// TestGCFileBacked is the headline capability of this change: GC on a
// file-backed DB sweeps unreachable chunks AND returns the disk space, and
// the compacted store survives a reopen.
func TestGCFileBacked(t *testing.T) {
	dir := t.TempDir()
	fs, err := store.OpenFileStoreWith(dir, store.FileStoreOptions{SegmentSize: 8 << 10})
	if err != nil {
		t.Fatal(err)
	}
	db := Open(Options{Store: fs, Chunking: chunker.SmallConfig()})
	db.Put("keep", "", bigMap(t, db, 800, "keep"), nil)
	for round := 0; round < 4; round++ {
		br := fmt.Sprintf("tmp-%d", round)
		if _, err := db.Put("churn", br, bigMap(t, db, 800, br), nil); err != nil {
			t.Fatal(err)
		}
		if err := db.DeleteBranch("churn", br); err != nil {
			t.Fatal(err)
		}
	}
	diskBefore := fs.DiskBytes()

	stats, err := db.GC()
	if err != nil {
		t.Fatalf("file-backed GC: %v", err)
	}
	if stats.Swept == 0 || stats.ReclaimedBytes <= 0 || stats.CompactedSegments == 0 {
		t.Fatalf("file-backed GC reclaimed nothing: %+v", stats)
	}
	diskAfter := fs.DiskBytes()
	if diskAfter >= diskBefore {
		t.Fatalf("disk did not shrink: %d -> %d", diskBefore, diskAfter)
	}
	v, err := db.Get("keep", "master")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.VerifyVersion("keep", v.UID, true); err != nil {
		t.Fatalf("survivor corrupted by compaction: %v", err)
	}
	fs.Close()

	// The compacted layout must round-trip a restart.
	fs2, err := store.OpenFileStoreWith(dir, store.FileStoreOptions{SegmentSize: 8 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer fs2.Close()
	db2 := Open(Options{Store: fs2, Branches: db.heads, Chunking: chunker.SmallConfig()})
	v2, err := db2.Get("keep", "master")
	if err != nil {
		t.Fatalf("reopen after GC: %v", err)
	}
	if _, err := db2.VerifyVersion("keep", v2.UID, true); err != nil {
		t.Fatalf("reopened survivor fails verification: %v", err)
	}
}

// TestGCPurgesNodeCacheFileBacked mirrors the MemStore cache-purge test on
// the file-backed path: swept ids must leave the decoded-node cache even
// though the store reclaims them via compaction rather than deletion.
func TestGCPurgesNodeCacheFileBacked(t *testing.T) {
	fs, err := store.OpenFileStoreWith(t.TempDir(), store.FileStoreOptions{SegmentSize: 8 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	db := Open(Options{Store: fs, Chunking: chunker.SmallConfig(), NodeCacheBytes: 16 << 20})
	v, err := db.Put("data", "", bigMapValue(t, db, 2000, "v1"), nil)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := pos.LoadTree(db.Store(), db.Chunking(), v.Value.Root())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tree.Get([]byte("row-00000")); err != nil {
		t.Fatal(err)
	}
	if db.NodeCache().Len() == 0 {
		t.Fatal("cache not populated")
	}
	if err := db.DeleteBranch("data", "master"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.GC(); err != nil {
		t.Fatal(err)
	}
	if n := db.NodeCache().Len(); n != 0 {
		t.Fatalf("GC left %d swept nodes in the cache", n)
	}
	if _, err := tree.Get([]byte("row-00000")); err == nil {
		t.Fatal("read of collected data succeeded via cache")
	}
	if _, err := db.GetVersion("data", v.UID); !errors.Is(err, store.ErrNotFound) {
		t.Fatalf("GetVersion of the swept version = %v, want ErrNotFound", err)
	}
}

// TestGCRacingLastBranchDelete: a key whose last branch is deleted while GC
// lists heads must not fail the pass.  DeleteBranch takes no write fence, so
// a key can vanish between the key listing and its branch lookup.
func TestGCRacingLastBranchDelete(t *testing.T) {
	db := newTestDB()
	stop := make(chan struct{})
	done := make(chan struct{})
	keys := make([]string, 50)
	for i := range keys {
		keys[i] = fmt.Sprintf("ephemeral-%02d", i)
	}
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			default:
			}
			for _, key := range keys {
				if _, err := db.Put(key, "", value.String("v"), nil); err != nil {
					t.Errorf("put %s: %v", key, err)
					return
				}
			}
			for _, key := range keys {
				if err := db.DeleteBranch(key, DefaultBranch); err != nil {
					t.Errorf("delete %s: %v", key, err)
					return
				}
			}
		}
	}()
	defer func() { close(stop); <-done }()
	passes := 0
	for deadline := time.Now().Add(time.Second); time.Now().Before(deadline); passes++ {
		if _, err := db.GC(); err != nil {
			t.Fatalf("GC pass %d: %v", passes, err)
		}
	}
	t.Logf("%d GC passes", passes)
}

// TestGCRacingWriters races GC against committing writers on a compacting
// file store.  GC holds the write fence from mark to sweep, so no writer's
// chunks can be swept between landing and the head CAS that publishes them:
// every head must still verify deep once the dust settles.
func TestGCRacingWriters(t *testing.T) {
	fs, err := store.OpenFileStoreWith(t.TempDir(), store.FileStoreOptions{SegmentSize: 16 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	db := Open(Options{Store: fs, Chunking: chunker.SmallConfig()})
	const writers = 4
	for w := 0; w < writers; w++ {
		if _, err := db.Put(fmt.Sprintf("w%d", w), "", bigMapValue(t, db, 400, "seed"), nil); err != nil {
			t.Fatal(err)
		}
	}
	edit := func(key, branch string, n int) error {
		puts := make([]pos.Entry, 8)
		for i := range puts {
			puts[i] = pos.Entry{
				Key: []byte(fmt.Sprintf("row-%05d", (n*37+i*50)%400)),
				Val: []byte(fmt.Sprintf("%s-%d-%d", branch, n, i)),
			}
		}
		_, err := db.EditMap(key, branch, puts, nil, nil)
		return err
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(key string) {
			defer wg.Done()
			for n := 0; ; n++ {
				select {
				case <-stop:
					return
				default:
				}
				if err := edit(key, DefaultBranch, n); err != nil {
					t.Errorf("edit %s: %v", key, err)
					return
				}
				if n%5 != 4 {
					continue
				}
				// A side branch edited once and deleted leaves garbage for
				// the next pass to sweep.
				err := db.Branch(key, "side", DefaultBranch)
				if err == nil {
					err = edit(key, "side", n)
				}
				if err == nil {
					err = db.DeleteBranch(key, "side")
				}
				if err != nil {
					t.Errorf("side branch of %s: %v", key, err)
					return
				}
			}
		}(fmt.Sprintf("w%d", w))
	}
	passes := 0
	for deadline := time.Now().Add(1500 * time.Millisecond); time.Now().Before(deadline); passes++ {
		if _, err := db.GC(); err != nil {
			t.Errorf("GC pass %d: %v", passes, err)
			break
		}
	}
	close(stop)
	wg.Wait()
	t.Logf("%d GC passes", passes)
	keys, err := db.ListKeys()
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range keys {
		branches, err := db.BranchTable().Branches(key)
		if err != nil {
			t.Fatal(err)
		}
		for br, head := range branches {
			if _, err := db.VerifyVersion(key, head, true); err != nil {
				t.Errorf("head of %s@%s after racing GC: %v", key, br, err)
			}
		}
	}
}

func TestEditMapIncremental(t *testing.T) {
	db := newTestDB()
	db.Put("m", "", bigMap(t, db, 1000, "base"), nil)

	v2, err := db.EditMap("m", "", []pos.Entry{
		{Key: []byte("k-00500"), Val: []byte("edited")},
		{Key: []byte("new-key"), Val: []byte("added")},
	}, [][]byte{[]byte("k-00001")}, map[string]string{"msg": "edit"})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := v2.Value.MapTree(db.Store(), db.Chunking())
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := tr.Get([]byte("k-00500")); string(v) != "edited" {
		t.Fatalf("edit lost: %q", v)
	}
	if ok, _ := tr.Has([]byte("k-00001")); ok {
		t.Fatal("delete lost")
	}
	if tr.Len() != 1000 {
		t.Fatalf("len = %d", tr.Len())
	}
	// Incremental edit equals a full re-put of the same content.
	entries, err := tr.Entries()
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := value.NewMap(db.Store(), db.Chunking(), entries)
	if err != nil {
		t.Fatal(err)
	}
	if !fresh.Equal(v2.Value) {
		t.Fatal("incremental EditMap diverges from fresh build")
	}
}

func TestEditMapOnSet(t *testing.T) {
	db := newTestDB()
	v, err := value.NewSetWith(db.Store(), db.Chunking(), index.KindPOS, [][]byte{[]byte("a"), []byte("b")})
	if err != nil {
		t.Fatal(err)
	}
	db.Put("s", "", v, nil)
	v2, err := db.EditMap("s", "", []pos.Entry{{Key: []byte("c")}}, [][]byte{[]byte("a")}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if v2.Value.Kind() != value.KindSet {
		t.Fatalf("kind changed to %s", v2.Value.Kind())
	}
	tr, _ := v2.Value.Index(db.Store(), db.Chunking())
	if ok, _ := tr.Has([]byte("c")); !ok {
		t.Fatal("set add lost")
	}
	if ok, _ := tr.Has([]byte("a")); ok {
		t.Fatal("set remove lost")
	}
}

func TestEditMapWrongKind(t *testing.T) {
	db := newTestDB()
	db.Put("str", "", value.String("x"), nil)
	if _, err := db.EditMap("str", "", nil, nil, nil); err == nil {
		t.Fatal("EditMap on string succeeded")
	}
}

func TestAppendListAndSpliceBlob(t *testing.T) {
	db := newTestDB()
	lv, err := value.NewList(db.Store(), db.Chunking(), [][]byte{[]byte("one")})
	if err != nil {
		t.Fatal(err)
	}
	db.Put("l", "", lv, nil)
	v2, err := db.AppendList("l", "", [][]byte{[]byte("two"), []byte("three")}, nil)
	if err != nil {
		t.Fatal(err)
	}
	sq, _ := v2.Value.Seq(db.Store(), db.Chunking())
	if sq.Len() != 3 {
		t.Fatalf("list len = %d", sq.Len())
	}
	it, err := sq.Get(2)
	if err != nil || string(it) != "three" {
		t.Fatalf("appended item = %q %v", it, err)
	}

	bv, err := value.NewBlob(db.Store(), db.Chunking(), []byte("hello cruel world"))
	if err != nil {
		t.Fatal(err)
	}
	db.Put("b", "", bv, nil)
	v3, err := db.SpliceBlob("b", "", 6, 5, []byte("kind"), nil)
	if err != nil {
		t.Fatal(err)
	}
	bl, _ := v3.Value.Blob(db.Store(), db.Chunking())
	got, _ := bl.Bytes()
	if string(got) != "hello kind world" {
		t.Fatalf("spliced = %q", got)
	}
}

// TestGCPurgesInjectedNodeCache covers the configuration where the caller
// attaches the decoded-node cache to the store directly (rather than via
// Options.NodeCacheBytes): GC must purge swept ids from that cache too, or
// traversals could resurrect deleted chunks.
func TestGCPurgesInjectedNodeCache(t *testing.T) {
	cache := nodecache.New(16 << 20)
	db := Open(Options{
		Store:    store.WithNodeCache(store.NewMemStore(), cache),
		Chunking: chunker.SmallConfig(),
	})
	v, err := db.Put("data", "", bigMapValue(t, db, 2000, "v1"), nil)
	if err != nil {
		t.Fatal(err)
	}
	// Warm the cache, then orphan everything.
	tree, err := pos.LoadTree(db.Store(), db.Chunking(), v.Value.Root())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tree.Get([]byte("row-00000")); err != nil {
		t.Fatal(err)
	}
	if cache.Len() == 0 {
		t.Fatal("cache not populated")
	}
	if err := db.DeleteBranch("data", "master"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.GC(); err != nil {
		t.Fatal(err)
	}
	if n := cache.Len(); n != 0 {
		t.Fatalf("GC left %d swept nodes in the injected cache", n)
	}
	if _, err := tree.Get([]byte("row-00000")); err == nil {
		t.Fatal("read of collected data succeeded via cache")
	}
	if _, err := db.GetVersion("data", v.UID); !errors.Is(err, store.ErrNotFound) {
		t.Fatalf("GetVersion of the swept version = %v, want ErrNotFound", err)
	}
}

// TestGCConcurrentReadersCannotResurrect races traversals of an orphaned
// tree against the GC sweep (under -race this also validates the locking).
// Whatever interleaving occurs, the end state must be consistent: no swept
// chunk may remain readable through the decoded-node cache.
func TestGCConcurrentReadersCannotResurrect(t *testing.T) {
	cache := nodecache.New(16 << 20)
	mem := store.NewMemStore()
	db := Open(Options{
		Store:    store.WithNodeCache(mem, cache),
		Chunking: chunker.SmallConfig(),
	})
	v, err := db.Put("data", "", bigMapValue(t, db, 3000, "v1"), nil)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := pos.LoadTree(db.Store(), db.Chunking(), v.Value.Root())
	if err != nil {
		t.Fatal(err)
	}
	ids, err := tree.ChunkIDs()
	if err != nil {
		t.Fatal(err)
	}
	if err := db.DeleteBranch("data", "master"); err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				// Errors are expected once the sweep passes under us.
				tree.Get([]byte(fmt.Sprintf("row-%05d", (g*977+i)%3000)))
			}
		}(g)
	}
	if _, err := db.GC(); err != nil {
		t.Fatal(err)
	}
	close(stop)
	wg.Wait()

	for _, id := range ids {
		has, err := mem.Has(id)
		if err != nil {
			t.Fatal(err)
		}
		if has {
			continue // still stored (nothing swept it) — cache residency fine
		}
		if _, ok := cache.Get(id); ok {
			t.Fatalf("swept chunk %s resurrected in cache", id.Short())
		}
	}
}

// TestGCMarkNamesBrokenHeads: a chunk missing under live heads fails the
// pass with every head that reaches it named by key, branch and uid, beside
// the missing chunk's id; an intact head is not named.
func TestGCMarkNamesBrokenHeads(t *testing.T) {
	mem := store.NewMemStore()
	db := Open(Options{Store: mem, Chunking: chunker.SmallConfig(), Metrics: obs.Discard})
	broken, err := db.Put("broken", "", bigMap(t, db, 400, "broken"), nil)
	if err == nil {
		err = db.Branch("broken", "dev", "")
	}
	if err == nil {
		_, err = db.Put("intact", "", bigMap(t, db, 400, "intact"), nil)
	}
	if err != nil {
		t.Fatal(err)
	}
	var leaf hash.Hash
	err = fnode.Walk([]hash.Hash{broken.UID}, map[hash.Hash]bool{}, func(ids []hash.Hash) ([]*chunk.Chunk, error) {
		cs, err := mem.GetBatch(ids)
		for _, c := range cs {
			if refs, _ := fnode.Refs(c); leaf.IsZero() && len(refs) == 0 && c.Type() != chunk.TypeFNode {
				leaf = c.ID()
			}
		}
		return cs, err
	}, nil)
	if err != nil || leaf.IsZero() {
		t.Fatalf("no leaf under the head: %v", err)
	}
	mem.Delete(leaf)

	_, err = db.GC()
	if !errors.Is(err, store.ErrNotFound) {
		t.Fatalf("GC with a leaf gone = %v, want ErrNotFound", err)
	}
	for _, want := range []string{leaf.String(), "broken@master", "broken@dev", broken.UID.String()} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("GC error %q does not name %s", err, want)
		}
	}
	if strings.Contains(err.Error(), "intact@") {
		t.Errorf("GC error %q names an intact head", err)
	}
}
