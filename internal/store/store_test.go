package store

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"

	"forkbase/internal/chunk"
	"forkbase/internal/hash"
)

// openAppend opens the first log segment for raw appends, to simulate a
// crash that tore the final record.
func openAppend(dir string) (*os.File, error) {
	return os.OpenFile(filepath.Join(dir, "seg-000000.log"), os.O_WRONLY|os.O_APPEND, 0o644)
}

func mkChunk(i int) *chunk.Chunk {
	return chunk.New(chunk.TypeBlobLeaf, []byte(fmt.Sprintf("chunk-%d-%s", i, bytes.Repeat([]byte{byte(i)}, i%64))))
}

func testStorePutGet(t *testing.T, s Store) {
	t.Helper()
	c := mkChunk(1)
	fresh, err := s.Put(c)
	if err != nil || !fresh {
		t.Fatalf("first Put: fresh=%v err=%v", fresh, err)
	}
	fresh, err = s.Put(c)
	if err != nil || fresh {
		t.Fatalf("duplicate Put: fresh=%v err=%v", fresh, err)
	}
	got, err := s.Get(c.ID())
	if err != nil {
		t.Fatalf("Get: %v", err)
	}
	if got.Type() != c.Type() || !bytes.Equal(got.Data(), c.Data()) {
		t.Fatal("Get returned different chunk")
	}
	ok, err := s.Has(c.ID())
	if err != nil || !ok {
		t.Fatalf("Has: %v %v", ok, err)
	}
	if _, err := s.Get(hash.Of([]byte("missing"))); !errors.Is(err, ErrNotFound) {
		t.Fatalf("missing Get err = %v", err)
	}
	ok, err = s.Has(hash.Of([]byte("missing")))
	if err != nil || ok {
		t.Fatalf("missing Has = %v %v", ok, err)
	}
}

func TestMemStoreBasics(t *testing.T) { testStorePutGet(t, NewMemStore()) }

func TestMemStoreStats(t *testing.T) {
	s := NewMemStore()
	c1, c2 := mkChunk(1), mkChunk(2)
	s.Put(c1)
	s.Put(c1)
	s.Put(c2)
	st := s.Stats()
	if st.UniqueChunks != 2 {
		t.Fatalf("unique = %d", st.UniqueChunks)
	}
	if st.DedupHits != 1 {
		t.Fatalf("hits = %d", st.DedupHits)
	}
	wantPhys := int64(c1.Size() + c2.Size())
	if st.PhysicalBytes != wantPhys {
		t.Fatalf("physical = %d want %d", st.PhysicalBytes, wantPhys)
	}
	if st.LogicalBytes != wantPhys+int64(c1.Size()) {
		t.Fatalf("logical = %d", st.LogicalBytes)
	}
	if st.DedupRatio() <= 1.0 {
		t.Fatalf("dedup ratio %f", st.DedupRatio())
	}
	if saved := st.LogicalBytes - st.PhysicalBytes; saved != int64(c1.Size()) {
		t.Fatalf("saved = %d", saved)
	}
	if st.String() == "" {
		t.Fatal("empty Stats string")
	}
}

func TestMemStoreConcurrent(t *testing.T) {
	s := NewMemStore()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				c := mkChunk(i % 50)
				if _, err := s.Put(c); err != nil {
					t.Errorf("put: %v", err)
					return
				}
				if _, err := s.Get(c.ID()); err != nil {
					t.Errorf("get: %v", err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if s.Len() != 50 {
		t.Fatalf("len = %d, want 50", s.Len())
	}
}

func TestMemStoreDeleteAndIDs(t *testing.T) {
	s := NewMemStore()
	c := mkChunk(3)
	s.Put(c)
	if len(s.IDs()) != 1 {
		t.Fatal("IDs missing chunk")
	}
	s.Delete(c.ID())
	if ok, _ := s.Has(c.ID()); ok {
		t.Fatal("delete did not remove chunk")
	}
	if s.Stats().UniqueChunks != 0 || s.Stats().PhysicalBytes != 0 {
		t.Fatalf("stats after delete: %+v", s.Stats())
	}
	s.Delete(c.ID()) // idempotent
}

func TestFileStoreBasics(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	testStorePutGet(t, s)
}

func TestFileStoreReopenRecovers(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	var ids []hash.Hash
	for i := 0; i < 100; i++ {
		c := mkChunk(i)
		if _, err := s.Put(c); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, c.ID())
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := OpenFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	for i, id := range ids {
		c, err := s2.Get(id)
		if err != nil {
			t.Fatalf("chunk %d lost after reopen: %v", i, err)
		}
		if err := c.Verify(id); err != nil {
			t.Fatalf("chunk %d corrupt after reopen: %v", i, err)
		}
	}
	if s2.Stats().UniqueChunks != 100 {
		t.Fatalf("recovered %d chunks", s2.Stats().UniqueChunks)
	}
	// Dedup persists across reopen.
	fresh, err := s2.Put(mkChunk(7))
	if err != nil || fresh {
		t.Fatalf("chunk re-added after reopen: fresh=%v err=%v", fresh, err)
	}
}

func TestFileStoreSegmentRotation(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenFileStoreWith(dir, FileStoreOptions{SegmentSize: 2048}) // tiny segments
	if err != nil {
		t.Fatal(err)
	}
	var ids []hash.Hash
	for i := 0; i < 200; i++ {
		c := chunk.New(chunk.TypeBlobLeaf, bytes.Repeat([]byte{byte(i)}, 100))
		if _, err := s.Put(c); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, c.ID())
	}
	if s.actSeg.Load() == 0 {
		t.Fatal("no segment rotation happened")
	}
	for _, id := range ids {
		if _, err := s.Get(id); err != nil {
			t.Fatalf("get across segments: %v", err)
		}
	}
	s.Close()
	s2, err := OpenFileStoreWith(dir, FileStoreOptions{SegmentSize: 2048})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	for _, id := range ids {
		if _, err := s2.Get(id); err != nil {
			t.Fatalf("get after multi-segment reopen: %v", err)
		}
	}
}

func TestFileStoreTornTailRecovery(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	good := mkChunk(1)
	s.Put(good)
	s.Close()

	// Simulate a crash mid-append: append garbage half-record.
	f, err := openAppend(dir)
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte("torn-record-garbage"))
	f.Close()

	s2, err := OpenFileStore(dir)
	if err != nil {
		t.Fatalf("reopen after torn tail: %v", err)
	}
	defer s2.Close()
	if _, err := s2.Get(good.ID()); err != nil {
		t.Fatalf("good chunk lost: %v", err)
	}
	// The store must still accept writes after truncation.
	if _, err := s2.Put(mkChunk(2)); err != nil {
		t.Fatal(err)
	}
}

// TestFileStoreHostileLengthBoundedAlloc pins that open bounds a record's
// length by the bytes left in its segment before allocating: a damaged
// header claiming ~2 GiB takes the torn-tail branch, the records before it
// stay readable, and reopening allocates less than the segment holds.
func TestFileStoreHostileLengthBoundedAlloc(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	// Small records first, then one big enough that the fixed cost of an
	// open (two 1 MiB buffers) stays well under the segment size.
	good := []*chunk.Chunk{mkChunk(1), mkChunk(2), mkChunk(3)}
	big := chunk.New(chunk.TypeBlobLeaf, bytes.Repeat([]byte{7}, 8<<20))
	for _, c := range append(good, big) {
		if _, err := s.Put(c); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(dir, "seg-000000.log")
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(path, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	lenAt := fi.Size() - int64(recordHeader+len(big.Data())) + hash.Size
	if _, err := f.WriteAt([]byte{0xF0, 0xFF, 0xFF, 0x7F}, lenAt); err != nil { // 0x7FFFFFF0
		t.Fatal(err)
	}
	f.Close()

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	s2, err := OpenFileStore(dir)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatalf("reopen over a hostile length: %v", err)
	}
	defer s2.Close()
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= uint64(fi.Size()) {
		t.Fatalf("reopen allocated %d bytes, segment holds %d", grew, fi.Size())
	}
	for _, c := range good {
		if _, err := s2.Get(c.ID()); err != nil {
			t.Fatalf("record before the damaged header lost: %v", err)
		}
	}
	if _, err := s2.Get(big.ID()); !errors.Is(err, ErrNotFound) {
		t.Fatalf("record behind the damaged header: %v, want ErrNotFound", err)
	}
}

func TestMemStorePutBatch(t *testing.T) {
	s := NewMemStore()
	c1, c2 := mkChunk(1), mkChunk(2)
	fresh, err := s.PutBatch([]*chunk.Chunk{c1, c2, c1}) // intra-batch dup
	if err != nil {
		t.Fatal(err)
	}
	if !fresh[0] || !fresh[1] || fresh[2] {
		t.Fatalf("fresh = %v", fresh)
	}
	// Stats must match what three per-chunk Puts would have produced.
	ref := NewMemStore()
	ref.Put(c1)
	ref.Put(c2)
	ref.Put(c1)
	if s.Stats() != ref.Stats() {
		t.Fatalf("batch stats %+v != per-chunk stats %+v", s.Stats(), ref.Stats())
	}
}

func TestPutBatchFallback(t *testing.T) {
	// A store without the BatchStore capability still works through the
	// generic helper.
	type plain struct{ Store }
	s := plain{NewMemStore()}
	c := mkChunk(3)
	fresh, err := s.PutBatch([]*chunk.Chunk{c, c})
	if err != nil {
		t.Fatal(err)
	}
	if !fresh[0] || fresh[1] {
		t.Fatalf("fresh = %v", fresh)
	}
}

func TestFileStorePutBatchGroupCommit(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	var cs []*chunk.Chunk
	for i := 0; i < 50; i++ {
		cs = append(cs, mkChunk(i))
	}
	fresh, err := s.PutBatch(cs)
	if err != nil {
		t.Fatal(err)
	}
	for i, f := range fresh {
		if !f {
			t.Fatalf("chunk %d not fresh", i)
		}
	}
	// Group commit flushed the batch: the records are on disk even before
	// Close, so a reopen from a copy taken now would see them.  Verify via
	// reopen after Close and via duplicate suppression.
	fresh, err = s.PutBatch(cs[:5])
	if err != nil {
		t.Fatal(err)
	}
	for i, f := range fresh {
		if f {
			t.Fatalf("chunk %d re-added", i)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := OpenFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	for i, c := range cs {
		if _, err := s2.Get(c.ID()); err != nil {
			t.Fatalf("chunk %d lost after reopen: %v", i, err)
		}
	}
}

// TestFileStorePutBatchTornTailRecovery simulates a crash that tears the
// tail of a group-committed batch: the segment ends mid-record.  Reopen must
// truncate the torn record cleanly and recover every fully-written one.
func TestFileStorePutBatchTornTailRecovery(t *testing.T) {
	for name, chop := range map[string]int{
		"torn-payload": 5,  // cut inside the last record's payload
		"torn-header":  70, // 64B payload + part of the 37B header gone
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			s, err := OpenFileStore(dir)
			if err != nil {
				t.Fatal(err)
			}
			var cs []*chunk.Chunk
			for i := 0; i < 10; i++ {
				cs = append(cs, chunk.New(chunk.TypeBlobLeaf, bytes.Repeat([]byte{byte(i + 1)}, 64)))
			}
			if _, err := s.PutBatch(cs); err != nil {
				t.Fatal(err)
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}

			// Tear the batch: drop the last `chop` bytes of the segment, so
			// the final record (and for torn-header, part of its header) is
			// incomplete — exactly what an OS crash mid-batch leaves behind.
			path := filepath.Join(dir, "seg-000000.log")
			fi, err := os.Stat(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.Truncate(path, fi.Size()-int64(chop)); err != nil {
				t.Fatal(err)
			}

			s2, err := OpenFileStore(dir)
			if err != nil {
				t.Fatalf("reopen after torn batch: %v", err)
			}
			defer s2.Close()
			// Every fully-written record survives; the torn one is gone.
			for i, c := range cs[:9] {
				got, err := s2.Get(c.ID())
				if err != nil {
					t.Fatalf("fully-written chunk %d lost: %v", i, err)
				}
				if err := got.Verify(c.ID()); err != nil {
					t.Fatalf("chunk %d corrupt after recovery: %v", i, err)
				}
			}
			if _, err := s2.Get(cs[9].ID()); !errors.Is(err, ErrNotFound) {
				t.Fatalf("torn chunk resurrected: err=%v", err)
			}
			// The truncated store accepts and persists fresh batches.
			if _, err := s2.PutBatch([]*chunk.Chunk{cs[9], mkChunk(99)}); err != nil {
				t.Fatal(err)
			}
			if _, err := s2.Get(cs[9].ID()); err != nil {
				t.Fatalf("re-ingest after truncation: %v", err)
			}
		})
	}
}

// TestVerifyingStorePutBatchRejectsForged: a chunk whose claimed id does not
// match its content — a malicious peer slipping a forgery into a batch —
// rejects the whole batch at the verifying layer; nothing lands below.
func TestVerifyingStorePutBatchRejectsForged(t *testing.T) {
	inner := NewMemStore()
	v := NewVerifyingStore(inner)
	honest := mkChunk(1)
	forged := chunk.NewClaimed(chunk.TypeBlobLeaf, []byte("evil payload"), mkChunk(2).ID())
	_, err := v.PutBatch([]*chunk.Chunk{honest, forged})
	if !errors.Is(err, chunk.ErrCorrupt) {
		t.Fatalf("forged batch err = %v, want ErrCorrupt", err)
	}
	if inner.Len() != 0 {
		t.Fatalf("forged batch landed %d chunks below the verifier", inner.Len())
	}
	// Per-chunk writes reject the same way.
	if _, err := v.Put(forged); !errors.Is(err, chunk.ErrCorrupt) {
		t.Fatalf("forged put err = %v", err)
	}
	// An honestly-claimed chunk (id matches) passes.
	claimed := chunk.NewClaimed(honest.Type(), honest.Data(), honest.ID())
	if _, err := v.Put(claimed); err != nil {
		t.Fatal(err)
	}
}

func TestFileStoreConcurrent(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < 100; i++ {
				c := mkChunk(rng.Intn(40))
				if _, err := s.Put(c); err != nil {
					t.Errorf("put: %v", err)
					return
				}
				if _, err := s.Get(c.ID()); err != nil {
					t.Errorf("get: %v", err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestMemStoreStatsDeltas: the storage accounting Fig 4 subtracts — a
// duplicate put adds no physical bytes and no chunk but counts a dedup hit,
// and dedup shows as logical bytes above physical ones.
func TestMemStoreStatsDeltas(t *testing.T) {
	ms := NewMemStore()
	start := ms.Stats()
	c1 := mkChunk(1)
	ms.Put(c1)
	phase1 := ms.Stats()
	ms.Put(c1) // duplicate: physical increment must be zero
	ms.Put(mkChunk(2))
	phase2 := ms.Stats()

	if d := phase1.PhysicalBytes - start.PhysicalBytes; d != int64(c1.Size()) || phase1.UniqueChunks-start.UniqueChunks != 1 {
		t.Fatalf("phase1: +%d bytes, +%d chunks", d, phase1.UniqueChunks-start.UniqueChunks)
	}
	if hits, fresh := phase2.DedupHits-phase1.DedupHits, phase2.UniqueChunks-phase1.UniqueChunks; hits != 1 || fresh != 1 {
		t.Fatalf("phase2: %d dedup hits, %d new chunks", hits, fresh)
	}
	if phys, logical := phase2.PhysicalBytes-phase1.PhysicalBytes, phase2.LogicalBytes-phase1.LogicalBytes; phys >= logical {
		t.Fatalf("phase2 dedup not visible: +%d physical, +%d logical", phys, logical)
	}
}

func TestMaliciousStoreCorruption(t *testing.T) {
	inner := NewMemStore()
	m := NewMaliciousStore(inner)
	c := mkChunk(5)
	m.Put(c)

	// Honest until attacked.
	got, err := m.Get(c.ID())
	if err != nil || got.ID() != c.ID() {
		t.Fatalf("honest get: %v", err)
	}

	ok, err := m.CorruptFlip(c.ID(), 3, 1)
	if err != nil || !ok {
		t.Fatalf("CorruptFlip: %v %v", ok, err)
	}
	if m.AttackCount() != 1 {
		t.Fatalf("attacks = %d", m.AttackCount())
	}
	got, err = m.Get(c.ID())
	if err != nil {
		t.Fatalf("malicious get returned error: %v", err)
	}
	// The forged chunk must NOT verify against the requested id.
	if got.Verify(c.ID()) == nil {
		t.Fatal("corruption was not detectable")
	}

	m.Heal()
	got, _ = m.Get(c.ID())
	if got.Verify(c.ID()) != nil {
		t.Fatal("heal did not restore honesty")
	}
}

func TestMaliciousStoreForge(t *testing.T) {
	m := NewMaliciousStore(NewMemStore())
	c := mkChunk(9)
	m.Put(c)
	m.Forge(c.ID(), chunk.TypeBlobLeaf, []byte("evil payload"))
	got, err := m.Get(c.ID())
	if err != nil {
		t.Fatal(err)
	}
	if got.Verify(c.ID()) == nil {
		t.Fatal("forged chunk verified")
	}
}

func TestMaliciousCorruptUnknownID(t *testing.T) {
	m := NewMaliciousStore(NewMemStore())
	ok, err := m.CorruptFlip(hash.Of([]byte("nothing")), 0, 0)
	if err != nil || ok {
		t.Fatalf("corrupting unknown id: ok=%v err=%v", ok, err)
	}
}

func TestVerifyingStoreDetectsTampering(t *testing.T) {
	inner := NewMemStore()
	mal := NewMaliciousStore(inner)
	v := NewVerifyingStore(mal)

	c := mkChunk(11)
	v.Put(c)
	if _, err := v.Get(c.ID()); err != nil {
		t.Fatalf("clean get: %v", err)
	}
	mal.CorruptFlip(c.ID(), 0, 0)
	if _, err := v.Get(c.ID()); !errors.Is(err, chunk.ErrCorrupt) {
		t.Fatalf("verifying store let corruption through: %v", err)
	}
}

func TestMustPutPanicsOnClosedStore(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	s.Close()
	defer func() {
		if recover() == nil {
			t.Fatal("MustPut on closed store did not panic")
		}
	}()
	MustPut(s, mkChunk(1))
}

func TestFileStoreReadHandleBoundAndClose(t *testing.T) {
	// Every read stays on the positioned-read path, which is what the handle
	// table serves.
	s := openFileStoreMode(t, t.TempDir(), FileStoreOptions{SegmentSize: 256}, true)
	var ids []hash.Hash
	for i := 0; i < 400; i++ {
		c := chunk.New(chunk.TypeBlobLeaf, bytes.Repeat([]byte{byte(i), byte(i >> 8)}, 100))
		if _, err := s.Put(c); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, c.ID())
	}
	if s.actSeg.Load() <= maxReadHandles {
		t.Fatalf("want more segments than the handle bound, got %d", s.actSeg.Load())
	}
	// Reading every chunk cycles far more segments than the handle table
	// admits; eviction must keep it bounded while reads stay correct.
	for _, id := range ids {
		if _, err := s.Get(id); err != nil {
			t.Fatalf("get: %v", err)
		}
	}
	if got := len(s.readers); got > maxReadHandles {
		t.Fatalf("read handles unbounded: %d > %d", got, maxReadHandles)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get(ids[0]); err == nil {
		t.Fatal("Get after Close succeeded")
	}
	if s.readers != nil {
		t.Fatal("Close left read handles behind")
	}
	if err := s.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}
