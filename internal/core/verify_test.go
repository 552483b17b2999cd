package core

import (
	"errors"
	"fmt"
	"testing"

	"forkbase/internal/chunk"
	"forkbase/internal/chunker"
	"forkbase/internal/fnode"
	"forkbase/internal/hash"
	"forkbase/internal/obs"
	"forkbase/internal/pos"
	"forkbase/internal/store"
	"forkbase/internal/value"
)

// newMaliciousDB returns a DB whose storage provider can be corrupted, plus
// the attack handle — the paper's §II-D threat model.
func newMaliciousDB() (*DB, *store.MaliciousStore) {
	mal := store.NewMaliciousStore(store.NewMemStore())
	db := Open(Options{Store: mal, Chunking: chunker.SmallConfig()})
	return db, mal
}

func bigMapValue(t *testing.T, db *DB, n int, tag string) value.Value {
	t.Helper()
	entries := make([]pos.Entry, n)
	for i := range entries {
		entries[i] = pos.Entry{
			Key: []byte(fmt.Sprintf("row-%05d", i)),
			Val: []byte(fmt.Sprintf("%s-value-%d", tag, i)),
		}
	}
	v, err := value.NewMap(db.Store(), db.Chunking(), entries)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func TestVerifyCleanVersion(t *testing.T) {
	db, _ := newMaliciousDB()
	v, err := db.Put("data", "", bigMapValue(t, db, 2000, "v1"), nil)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := db.VerifyVersion("data", v.UID, false)
	if err != nil {
		t.Fatalf("clean verify failed: %v", err)
	}
	if !rep.OK || rep.ChunksChecked < 10 || rep.VersionsChecked != 1 {
		t.Fatalf("report = %+v", rep)
	}
}

func TestVerifyDetectsValueCorruption(t *testing.T) {
	db, mal := newMaliciousDB()
	v, err := db.Put("data", "", bigMapValue(t, db, 2000, "v1"), nil)
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt one arbitrary value chunk.
	ids, err := v.Value.ChunkIDs(db.RawStore(), db.Chunking())
	if err != nil {
		t.Fatal(err)
	}
	target := ids[len(ids)/2]
	if ok, err := mal.CorruptFlip(target, 7, 2); err != nil || !ok {
		t.Fatalf("inject: %v %v", ok, err)
	}
	rep, err := db.VerifyVersion("data", v.UID, false)
	if !errors.Is(err, ErrTampered) {
		t.Fatalf("tampering not detected: %v", err)
	}
	if rep.OK || len(rep.Failures) == 0 {
		t.Fatalf("report = %+v", rep)
	}
	found := false
	for _, f := range rep.Failures {
		if f.ChunkID == target {
			found = true
		}
	}
	if !found {
		t.Fatalf("failure list %+v does not name corrupted chunk %s", rep.Failures, target.Short())
	}
}

// unavailableStore answers every read of one chunk with a transient error.
type unavailableStore struct {
	store.Store
	down hash.Hash
}

func (s *unavailableStore) Get(id hash.Hash) (*chunk.Chunk, error) {
	if id == s.down {
		return nil, store.ErrUnavailable
	}
	return s.Store.Get(id)
}

func (s *unavailableStore) GetBatch(ids []hash.Hash) ([]*chunk.Chunk, error) {
	return nil, store.ErrUnavailable // readers fall back to Get
}

// TestVerifyReportsMissingAsMissing: a chunk the store no longer holds, or
// cannot read for now, is listed as a failure but is no evidence of
// tampering: verify fails with store.ErrNotFound for a missing map chunk
// and with the transient error for an unavailable one, never ErrTampered.
func TestVerifyReportsMissingAsMissing(t *testing.T) {
	for name, want := range map[string]error{"missing": store.ErrNotFound, "unavailable": store.ErrUnavailable} {
		t.Run(name, func(t *testing.T) {
			mem := store.NewMemStore()
			st := &unavailableStore{Store: mem}
			db := Open(Options{Store: st, Chunking: chunker.SmallConfig()})
			v, err := db.Put("data", "", bigMapValue(t, db, 2000, "v1"), nil)
			if err != nil {
				t.Fatal(err)
			}
			ids, err := v.Value.ChunkIDs(db.RawStore(), db.Chunking())
			if err != nil {
				t.Fatal(err)
			}
			target := ids[len(ids)/2]
			if want == store.ErrNotFound {
				mem.Delete(target)
			} else {
				st.down = target
			}
			rep, err := db.VerifyVersion("data", v.UID, true)
			if !errors.Is(err, want) || errors.Is(err, ErrTampered) {
				t.Fatalf("verify = %v; want %v and not ErrTampered", err, want)
			}
			if rep.OK || len(rep.Failures) != 1 || rep.Failures[0].ChunkID != target || !errors.Is(rep.Failures[0].Err, want) {
				t.Fatalf("report = %+v; want one failure naming %s", rep, target.Short())
			}
		})
	}
}

func TestVerifyDetectsFNodeCorruption(t *testing.T) {
	db, mal := newMaliciousDB()
	v, err := db.Put("data", "", value.String("x"), nil)
	if err != nil {
		t.Fatal(err)
	}
	if ok, err := mal.CorruptFlip(v.UID, 0, 0); err != nil || !ok {
		t.Fatalf("inject: %v %v", ok, err)
	}
	if _, err := db.VerifyVersion("data", v.UID, false); !errors.Is(err, ErrTampered) {
		t.Fatalf("FNode tampering not detected: %v", err)
	}
	// Tampered head must also fail plain Get (reads are verified).
	if _, err := db.Get("data", "master"); err == nil {
		t.Fatal("Get returned forged version")
	}
}

func TestVerifyDeepDetectsHistoryTampering(t *testing.T) {
	db, mal := newMaliciousDB()
	v1, err := db.Put("doc", "", value.String("first"), nil)
	if err != nil {
		t.Fatal(err)
	}
	v2, err := db.Put("doc", "", value.String("second"), nil)
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt the *historical* version; a shallow verify of the head
	// passes, but a deep verify must catch it.
	if ok, err := mal.CorruptFlip(v1.UID, 1, 1); err != nil || !ok {
		t.Fatalf("inject: %v %v", ok, err)
	}
	if _, err := db.VerifyVersion("doc", v2.UID, false); err != nil {
		t.Fatalf("shallow verify should pass (head untouched): %v", err)
	}
	if _, err := db.VerifyVersion("doc", v2.UID, true); !errors.Is(err, ErrTampered) {
		t.Fatalf("deep verify missed history tampering: %v", err)
	}
}

// TestVerifyDetectsEveryChunkCorruption is the exhaustive Fig 6 property:
// corrupting ANY single reachable chunk must be detected.
func TestVerifyDetectsEveryChunkCorruption(t *testing.T) {
	db, mal := newMaliciousDB()
	v, err := db.Put("data", "", bigMapValue(t, db, 500, "v"), nil)
	if err != nil {
		t.Fatal(err)
	}
	ids, err := v.Value.ChunkIDs(db.RawStore(), db.Chunking())
	if err != nil {
		t.Fatal(err)
	}
	ids = append(ids, v.UID)
	for i, id := range ids {
		mal.Heal()
		if ok, err := mal.CorruptFlip(id, i, uint(i%8)); err != nil || !ok {
			t.Fatalf("inject %d: %v %v", i, ok, err)
		}
		if _, err := db.VerifyVersion("data", v.UID, true); !errors.Is(err, ErrTampered) {
			t.Fatalf("corruption of chunk %d (%s) went undetected", i, id.Short())
		}
	}
	mal.Heal()
	if _, err := db.VerifyVersion("data", v.UID, true); err != nil {
		t.Fatalf("verify after heal: %v", err)
	}
}

func TestUIDCoversValueAndHistory(t *testing.T) {
	// Two versions with the same value but different histories must have
	// different uids; two with same value and same history identical uids.
	db := newTestDB()
	a1, _ := db.Put("a", "", value.String("same"), nil)
	b1, _ := db.Put("b", "", value.String("same"), nil)
	if a1.UID == b1.UID {
		t.Fatal("different keys share uid")
	}
	db.Put("a", "", value.String("other"), nil)
	a3, _ := db.Put("a", "", value.String("same"), nil)
	if a3.UID == a1.UID {
		t.Fatal("same value, longer history, same uid — history not covered")
	}
}

// TestNodeCacheCannotMaskTampering enables the decoded-node cache over a
// malicious store and confirms the layering invariant: the cache sits above
// chunk verification, so a forged chunk is rejected before it can ever be
// cached, and repeated reads keep failing rather than "warming up" on
// corrupt data.  The rows are the two kinds of cached decode: index nodes,
// and the FNode a version read starts from.
func TestNodeCacheCannotMaskTampering(t *testing.T) {
	for _, tc := range []struct {
		name    string
		targets func(db *DB, v Version) ([]hash.Hash, error)
		read    func(db *DB, v Version) error
	}{{
		name: "index nodes",
		targets: func(db *DB, v Version) ([]hash.Hash, error) {
			return v.Value.ChunkIDs(db.RawStore(), db.Chunking())
		},
		read: func(db *DB, v Version) error {
			_, err := pos.LoadTree(db.Store(), db.Chunking(), v.Value.Root())
			return err
		},
	}, {
		name:    "FNode",
		targets: func(_ *DB, v Version) ([]hash.Hash, error) { return []hash.Hash{v.UID}, nil },
		read: func(db *DB, v Version) error {
			_, err := db.GetVersion("data", v.UID)
			return err
		},
	}} {
		t.Run(tc.name, func(t *testing.T) {
			mal := store.NewMaliciousStore(store.NewMemStore())
			db := Open(Options{Store: mal, Chunking: chunker.SmallConfig(), NodeCacheBytes: 16 << 20})
			v, err := db.Put("data", "", bigMapValue(t, db, 2000, "v1"), nil)
			if err != nil {
				t.Fatal(err)
			}
			ids, err := tc.targets(db, v)
			if err != nil {
				t.Fatal(err)
			}
			// Evict anything decoded during the build/put phase so the
			// attacked chunk must be re-read through the verifying layer.
			db.NodeCache().Purge()
			for _, id := range ids {
				if ok, err := mal.CorruptFlip(id, 7, 2); err != nil || !ok {
					t.Fatalf("corrupt %s: %v", id.Short(), err)
				}
			}
			for i := 0; i < 2; i++ {
				if err := tc.read(db, v); err == nil {
					t.Fatalf("read %d of corrupted chunks succeeded", i+1)
				}
			}
			if st := db.NodeCacheStats(); st.Entries != 0 {
				t.Fatalf("forged chunks entered the cache: %+v", st)
			}
		})
	}
}

// TestVerifyReadsBytesUnderCachedFNode: a cached FNode decode serves reads,
// but deep verification reads the stored bytes, so tampering with a version
// object whose decode is cached is still reported — naming that object.
func TestVerifyReadsBytesUnderCachedFNode(t *testing.T) {
	mal := store.NewMaliciousStore(store.NewMemStore())
	db := Open(Options{Store: mal, Chunking: chunker.SmallConfig(), NodeCacheBytes: 16 << 20})
	v1, err := db.Put("doc", "", value.String("first"), nil)
	if err != nil {
		t.Fatal(err)
	}
	v2, err := db.Put("doc", "", value.String("second"), nil)
	if err != nil {
		t.Fatal(err)
	}
	if ok, err := mal.CorruptFlip(v1.UID, 1, 1); err != nil || !ok {
		t.Fatalf("inject: %v %v", ok, err)
	}
	if _, err := db.GetVersion("doc", v1.UID); err != nil {
		t.Fatalf("the cached decode should serve the read: %v", err)
	}
	for _, tc := range []struct {
		uid  hash.Hash
		deep bool
	}{{v2.UID, true}, {v1.UID, false}, {v1.UID, true}} {
		rep, err := db.VerifyVersion("doc", tc.uid, tc.deep)
		if !errors.Is(err, ErrTampered) || len(rep.Failures) != 1 || rep.Failures[0].ChunkID != v1.UID {
			t.Fatalf("verify %s deep=%v over a cached, tampered FNode: err=%v report=%+v", tc.uid.Short(), tc.deep, err, rep)
		}
	}
}

// TestVerifyRejectsForeignKey: a uid proves a version of *its* key.  Asking
// whether it is a version of another key must fail the way GetVersion does,
// at the root and at any version in the history walked.
func TestVerifyRejectsForeignKey(t *testing.T) {
	db := newTestDB()
	a, err := db.Put("a", "", value.String("of a"), nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, deep := range []bool{false, true} {
		if _, err := db.VerifyVersion("a", a.UID, deep); err != nil {
			t.Fatalf("own key, deep=%v: %v", deep, err)
		}
		rep, err := db.VerifyVersion("b", a.UID, deep)
		if !errors.Is(err, ErrTampered) || rep.OK || len(rep.Failures) != 1 || rep.Failures[0].ChunkID != a.UID {
			t.Fatalf("foreign key, deep=%v: err=%v report=%+v", deep, err, rep)
		}
	}
	// Nor is a chunk that is no version object a version of anything.
	leaf := chunk.New(chunk.TypeBlobLeaf, []byte("not a version"))
	store.MustPut(db.Store(), leaf)
	if rep, err := db.VerifyVersion("a", leaf.ID(), false); !errors.Is(err, ErrTampered) || rep.VersionsChecked != 0 {
		t.Fatalf("verify of a leaf chunk's id: err=%v report=%+v", err, rep)
	}
	// A version of "b" whose base is a version of "a": the head passes a
	// shallow check, the history does not.
	f := fnode.New([]byte("b"), value.String("of b"), []hash.Hash{a.UID}, a.Seq+1, nil)
	spliced, err := f.Save(db.Store())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.VerifyVersion("b", spliced, false); err != nil {
		t.Fatalf("shallow verify of the head: %v", err)
	}
	rep, err := db.VerifyVersion("b", spliced, true)
	if !errors.Is(err, ErrTampered) || len(rep.Failures) != 1 || rep.Failures[0].ChunkID != a.UID {
		t.Fatalf("foreign version in history: err=%v report=%+v", err, rep)
	}
}

// distinctChunks is the brute-force size of uid's closure: every version of
// the history, each with the chunk ids its value enumerates for itself.
func distinctChunks(t *testing.T, db *DB, key string, uid hash.Hash) int {
	t.Helper()
	set := map[hash.Hash]bool{}
	queue := []hash.Hash{uid}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		if set[cur] {
			continue
		}
		set[cur] = true
		v, err := db.GetVersion(key, cur)
		if err != nil {
			t.Fatal(err)
		}
		queue = append(queue, v.Bases...)
		ids, err := v.Value.ChunkIDs(db.RawStore(), db.Chunking())
		if err != nil {
			t.Fatal(err)
		}
		for _, id := range ids {
			set[id] = true
		}
	}
	return len(set)
}

// TestDeepVerifyReadsEachChunkOnce is the read-once bound: a deep verify
// issues one store read per distinct reachable chunk, however many versions
// share it, so a longer history costs its new chunks and nothing else.
func TestDeepVerifyReadsEachChunkOnce(t *testing.T) {
	db := newTestDB()
	if _, err := db.Put("table", "", bigMap(t, db, 2000, "v0"), nil); err != nil {
		t.Fatal(err)
	}
	have := 1
	measure := func(versions int) (reads, distinct int) {
		t.Helper()
		var head Version
		for n := have; n < versions; n++ {
			puts := make([]pos.Entry, 8)
			for i := range puts {
				puts[i] = pos.Entry{Key: []byte(fmt.Sprintf("k-%05d", (n*37+i)%2000)), Val: []byte(fmt.Sprintf("edit-%d", n))}
			}
			var err error
			if head, err = db.EditMap("table", "", puts, nil, nil); err != nil {
				t.Fatal(err)
			}
		}
		have = versions
		distinct = distinctChunks(t, db, "table", head.UID)
		before := db.RawStore().Stats().Gets
		rep, err := db.VerifyVersion("table", head.UID, true)
		if err != nil {
			t.Fatal(err)
		}
		reads = int(db.RawStore().Stats().Gets - before)
		if rep.VersionsChecked != versions || rep.ChunksChecked != distinct || reads != distinct {
			t.Fatalf("%d versions: %d versions checked, %d chunks checked, %d store reads, %d distinct chunks reachable",
				versions, rep.VersionsChecked, rep.ChunksChecked, reads, distinct)
		}
		return reads, distinct
	}
	reads16, distinct16 := measure(16)
	reads64, distinct64 := measure(64)
	if reads64-reads16 != distinct64-distinct16 {
		t.Fatalf("48 more versions cost %d more reads for %d new chunks", reads64-reads16, distinct64-distinct16)
	}
}

// readCounter counts the reads of each id that reach it, batched or not.
type readCounter struct {
	store.Store
	reads map[hash.Hash]int
}

func (r *readCounter) Unwrap() store.Store { return r.Store }

func (r *readCounter) Get(id hash.Hash) (*chunk.Chunk, error) {
	r.reads[id]++
	return r.Store.Get(id)
}

func (r *readCounter) GetBatch(ids []hash.Hash) ([]*chunk.Chunk, error) {
	for _, id := range ids {
		r.reads[id]++
	}
	return r.Store.GetBatch(ids)
}

// TestOneRoundManyVerdicts: a walk round is one batched read with a verdict
// per chunk, so several kinds of damage in one round are each reported on
// their own — and no chunk of the round is read twice to tell them apart.
// The damage sits on leaves, so it prunes nothing and every other chunk of
// the closure is still checked.
func TestOneRoundManyVerdicts(t *testing.T) {
	// setup commits a table with history over a malicious provider counted
	// per id, and picks n leaves that one round of the deep walk reads.
	setup := func(t *testing.T, n int) (db *DB, mem *store.MemStore, mal *store.MaliciousStore, cnt *readCounter, head Version, closure []hash.Hash, leaves []hash.Hash) {
		t.Helper()
		mem = store.NewMemStore()
		mal = store.NewMaliciousStore(mem)
		cnt = &readCounter{Store: mal, reads: map[hash.Hash]int{}}
		db = Open(Options{Store: cnt, Chunking: chunker.SmallConfig()})
		var err error
		if head, err = db.Put("t", "", bigMap(t, db, 2000, "v0"), nil); err != nil {
			t.Fatal(err)
		}
		for n := 1; n <= 4; n++ {
			edit := []pos.Entry{{Key: []byte(fmt.Sprintf("k-%05d", n*400)), Val: []byte(fmt.Sprintf("edit-%d", n))}}
			if head, err = db.EditMap("t", "", edit, nil, nil); err != nil {
				t.Fatal(err)
			}
		}
		err = fnode.Walk([]hash.Hash{head.UID}, map[hash.Hash]bool{}, func(ids []hash.Hash) ([]*chunk.Chunk, error) {
			closure = append(closure, ids...)
			cs, err := mem.GetBatch(ids)
			if len(leaves) == 0 {
				var round []hash.Hash
				for _, c := range cs {
					if refs, err := fnode.Refs(c); err == nil && len(refs) == 0 && c.Type() != chunk.TypeFNode {
						round = append(round, c.ID())
					}
				}
				if len(round) > n {
					leaves = round[:n]
				}
			}
			return cs, err
		}, nil)
		if err != nil || len(leaves) != n {
			t.Fatalf("walk: %v; no round holds %d leaves", err, n)
		}
		clear(cnt.reads)
		return db, mem, mal, cnt, head, closure, leaves
	}
	readOnce := func(t *testing.T, cnt *readCounter, closure []hash.Hash) {
		t.Helper()
		for _, id := range closure {
			if cnt.reads[id] != 1 {
				t.Fatalf("%s read %d times, want once", id.Short(), cnt.reads[id])
			}
		}
		if len(cnt.reads) != len(closure) {
			t.Fatalf("%d ids read, the closure has %d", len(cnt.reads), len(closure))
		}
		clear(cnt.reads)
	}

	t.Run("verify", func(t *testing.T) {
		db, mem, mal, cnt, head, closure, leaves := setup(t, 3)
		for i, id := range leaves[:2] {
			if ok, err := mal.CorruptFlip(id, 3+i, 1); !ok || err != nil {
				t.Fatalf("inject: %v %v", ok, err)
			}
		}
		mem.Delete(leaves[2])
		rep, err := db.VerifyVersion("t", head.UID, true)
		if !errors.Is(err, ErrTampered) || len(rep.Failures) != 3 {
			t.Fatalf("want three failures: %v %+v", err, rep.Failures)
		}
		for i, f := range rep.Failures {
			want := chunk.ErrCorrupt
			if f.ChunkID == leaves[2] {
				want = store.ErrNotFound
			}
			if f.ChunkID != leaves[0] && f.ChunkID != leaves[1] && f.ChunkID != leaves[2] || i > 0 && f.ChunkID == rep.Failures[i-1].ChunkID || !errors.Is(f.Err, want) {
				t.Fatalf("failure %d names %s (%v); want each of %v once", i, f.ChunkID.Short(), f.Err, leaves)
			}
		}
		if rep.ChunksChecked != len(closure)-3 {
			t.Fatalf("checked %d chunks, want the closure's %d less the 3 damaged", rep.ChunksChecked, len(closure))
		}
		readOnce(t, cnt, closure)
	})

	t.Run("heal", func(t *testing.T) {
		db, mem, mal, cnt, head, closure, leaves := setup(t, 2)
		replica := store.NewMemStore()
		for _, id := range mem.IDs() {
			c, _ := mem.Get(id)
			if _, err := replica.Put(c); err != nil {
				t.Fatal(err)
			}
		}
		if ok, err := mal.CorruptFlip(leaves[0], 3, 1); !ok || err != nil {
			t.Fatalf("inject: %v %v", ok, err)
		}
		mem.Delete(leaves[1])
		hs, err := db.Heal(testChunkSource{replica})
		if err != nil || hs.Checked != len(closure) || hs.Missing != 1 || hs.Corrupt != 1 || hs.Repaired != 2 || len(hs.Failed) != 0 {
			t.Fatalf("heal: %v %+v; want one missing and one corrupt, both repaired, of %d", err, hs, len(closure))
		}
		readOnce(t, cnt, closure)
		if ok, _ := mem.Has(leaves[1]); !ok {
			t.Fatal("the missing chunk was not restored")
		}
		// The provider stops forging: a second pass finds nothing to do.
		mal.Heal()
		if hs, err = db.Heal(testChunkSource{replica}); err != nil || hs.Missing+hs.Corrupt+hs.Repaired != 0 {
			t.Fatalf("second pass: %v %+v", err, hs)
		}
		readOnce(t, cnt, closure)
		if _, err := db.VerifyVersion("t", head.UID, true); err != nil {
			t.Fatal(err)
		}
	})
}

// BenchmarkVerifyDeep times a deep validation over a FileStore, whose reads
// pay the rehash, in two shapes: a small map with a long history, where a
// verify is many tiny walk rounds, and a large table with a short history,
// where rounds are full.
func BenchmarkVerifyDeep(b *testing.B) {
	shapes := []struct {
		name           string
		rows, versions int
	}{
		{"map32x64", 32, 64},
		{"table40k-16edits", 40000, 17},
	}
	for _, sh := range shapes {
		b.Run(sh.name, func(b *testing.B) {
			fs, err := store.OpenFileStore(b.TempDir())
			if err != nil {
				b.Fatal(err)
			}
			defer fs.Close()
			db := Open(Options{Store: fs, Metrics: obs.Discard})
			entries := make([]pos.Entry, sh.rows)
			for i := range entries {
				entries[i] = pos.Entry{Key: []byte(fmt.Sprintf("row-%05d", i)), Val: []byte(fmt.Sprintf("value-%d", i))}
			}
			v, err := value.NewMap(db.Store(), db.Chunking(), entries)
			if err != nil {
				b.Fatal(err)
			}
			head, err := db.Put("t", "", v, nil)
			for n := 1; err == nil && n < sh.versions; n++ {
				edit := []pos.Entry{{Key: entries[n*7919%sh.rows].Key, Val: []byte(fmt.Sprintf("edit-%d", n))}}
				head, err = db.EditMap("t", "", edit, nil, nil)
			}
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := db.VerifyVersion("t", head.UID, true); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
