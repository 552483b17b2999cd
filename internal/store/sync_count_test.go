package store

import (
	"bytes"
	"errors"
	"testing"

	"forkbase/internal/chunk"
)

// TestSyncPolicyFsyncCounts pins what an acknowledged write costs in
// fsyncs: none.  An ack means the write is in the OS; a commit, batched or
// not, and a dedup-only commit sync neither the tail nor the directory.
func TestSyncPolicyFsyncCounts(t *testing.T) {
	const n = 5
	for _, tc := range []struct {
		name    string
		batched bool
	}{
		{"none/Put", false},
		{"none/PutBatch", true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f, err := OpenFileStore(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			put := func(c *chunk.Chunk) error {
				if tc.batched {
					_, err := f.PutBatch([]*chunk.Chunk{c, fileChunk(1 << 20)})
					return err
				}
				_, err := f.Put(c)
				return err
			}
			tail, dir := f.syncs.tail.Load(), f.syncs.dir.Load()
			for i := 0; i < n; i++ {
				if err := put(fileChunk(i)); err != nil {
					t.Fatal(err)
				}
			}
			if err := put(fileChunk(0)); err != nil { // nothing new: no sync
				t.Fatal(err)
			}
			if got := f.syncs.tail.Load() - tail; got != 0 {
				t.Errorf("%d commits made %d tail fsyncs, want 0", n, got)
			}
			if got := f.syncs.dir.Load() - dir; got != 0 {
				t.Errorf("%d commits made %d directory fsyncs, want 0", n, got)
			}
		})
	}
}

// TestRotationFsyncCounts pins a seal: the segment it seals is fsynced once
// and the directory naming the new one once.
func TestRotationFsyncCounts(t *testing.T) {
	f, err := OpenFileStoreWith(t.TempDir(), FileStoreOptions{SegmentSize: 1024})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	seg := f.actSeg.Load()
	tail, dir := f.syncs.tail.Load(), f.syncs.dir.Load()
	for i := 0; f.actSeg.Load() == seg; i++ {
		if _, err := f.Put(fileChunk(i)); err != nil {
			t.Fatal(err)
		}
	}
	if got := f.actSeg.Load() - seg; got != 1 {
		t.Fatalf("sealed %d segments, want 1", got)
	}
	if got := f.syncs.tail.Load() - tail; got != 1 {
		t.Errorf("a seal made %d segment fsyncs, want 1", got)
	}
	if got := f.syncs.dir.Load() - dir; got != 1 {
		t.Errorf("a seal made %d directory fsyncs, want 1", got)
	}
}

// TestCloseFsyncsTheTail pins Close as the store's durability point: after
// N acknowledged writes, none of which fsynced, Close makes exactly one fsync
// of the active segment, so a cleanly closed store has every ack on disk.
func TestCloseFsyncsTheTail(t *testing.T) {
	f, err := OpenFileStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	tail, dir := f.syncs.tail.Load(), f.syncs.dir.Load()
	for i := 0; i < 10; i++ {
		if _, err := f.Put(fileChunk(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if got := f.syncs.tail.Load() - tail; got != 1 {
		t.Errorf("10 acked writes and a Close made %d tail fsyncs, want 1", got)
	}
	if got := f.syncs.dir.Load() - dir; got != 0 {
		t.Errorf("10 acked writes and a Close made %d directory fsyncs, want 0", got)
	}
	closed := f.syncs.tail.Load()
	if err := f.Close(); err != nil || f.syncs.tail.Load() != closed {
		t.Errorf("a second Close = %v and made %d tail fsyncs, want nil and 0", err, f.syncs.tail.Load()-closed)
	}
}

// TestPutRefusesOversizedChunk: a chunk over chunk.MaxSize is refused with
// ErrTooLarge by Put and by PutBatch, which then stores nothing of its
// batch, so no store acknowledges a chunk the wire cannot carry.  A
// FileStore still reads such a record written before the bound existed.
func TestPutRefusesOversizedChunk(t *testing.T) {
	big := chunk.New(chunk.TypeCellar, bytes.Repeat([]byte{7}, chunk.MaxSize+1))
	small := fileChunk(1)
	fs, err := OpenFileStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	for name, st := range map[string]Store{"MemStore": NewMemStore(), "FileStore": fs} {
		if _, err := st.Put(big); !errors.Is(err, ErrTooLarge) {
			t.Errorf("%s: Put of a %d-byte chunk = %v, want ErrTooLarge", name, len(big.Data()), err)
		}
		if _, err := st.PutBatch([]*chunk.Chunk{small, big}); !errors.Is(err, ErrTooLarge) {
			t.Errorf("%s: PutBatch with a %d-byte chunk = %v, want ErrTooLarge", name, len(big.Data()), err)
		}
		for _, c := range []*chunk.Chunk{small, big} {
			if ok, err := st.Has(c.ID()); err != nil || ok {
				t.Errorf("%s: Has(%s) after the refusals = %v, %v; want false", name, c.ID().Short(), ok, err)
			}
		}
	}

	// A legacy record over the bound, appended past the check, is read
	// back after a reopen.
	dir := t.TempDir()
	legacy, err := OpenFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	legacy.mu.Lock()
	err = legacy.appendLocked([]*chunk.Chunk{big}, make([]bool, 1))
	legacy.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	legacy.Close()
	reopened, err := OpenFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	c, err := reopened.Get(big.ID())
	if err != nil || len(c.Data()) != len(big.Data()) || c.Recheck() != nil {
		t.Fatalf("legacy oversized record after reopen = %v; want its %d bytes intact", err, len(big.Data()))
	}
}
