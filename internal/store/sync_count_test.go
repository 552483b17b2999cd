package store

import (
	"bytes"
	"errors"
	"testing"

	"forkbase/internal/chunk"
)

// TestSyncPolicyFsyncCounts pins what each sync policy costs in fsyncs:
// under SyncAlways every one of N sequential commits makes one tail sync,
// under SyncNone a commit makes none, and a dedup-only commit never syncs.
func TestSyncPolicyFsyncCounts(t *testing.T) {
	const n = 5
	for _, tc := range []struct {
		name    string
		policy  SyncPolicy
		perPut  int64
		batched bool
	}{
		{"always/Put", SyncAlways, 1, false},
		{"always/PutBatch", SyncAlways, 1, true},
		{"none/Put", SyncNone, 0, false},
		{"none/PutBatch", SyncNone, 0, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f, err := OpenFileStoreWith(t.TempDir(), FileStoreOptions{SyncPolicy: tc.policy})
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
			if got, want := f.syncs.tail.Load()-tail, n*tc.perPut; got != want {
				t.Errorf("%d commits made %d tail fsyncs, want %d", n, got, want)
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
