package repl

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"forkbase/internal/core"
	"forkbase/internal/hash"
	"forkbase/internal/store"
	"forkbase/internal/value"
)

// TestFollowerNeverShowsPartOfABatch: a primary commits 4-key batches in a
// loop while a follower runs rounds with a page limit smaller than a batch.
// Polled between rounds, and before every Apply that reaches the replica's
// table, the replica shows every batch whole or not at all — each of the
// keys at the same batch, or none of them yet — over an in-memory and a
// file-backed replica table.  A snapshot, which lists the primary's heads
// key by key, shows a batch that lands between two keys' listings whole.
func TestFollowerNeverShowsPartOfABatch(t *testing.T) {
	tables := map[string]func(t *testing.T) core.BranchTable{
		"mem": func(*testing.T) core.BranchTable { return core.NewMemBranchTable() },
		"file": func(t *testing.T) core.BranchTable {
			bt, err := core.OpenFileBranchTable(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { bt.Close() })
			return bt
		},
	}
	for name, open := range tables {
		t.Run(name, func(t *testing.T) {
			const keys, batches = 4, 60
			primary := core.Open(core.Options{})
			table := &checkedTable{BranchTable: open(t)}
			replica := core.Open(core.Options{Store: store.NewMemStore(), Branches: table})
			f := NewFollower(NewLocalSource(primary), replica.Store(), replica.BranchTable(), Options{BatchLimit: keys - 1, Poll: 10 * time.Millisecond})
			cursor, err := f.snapshot()
			if err != nil {
				t.Fatal(err)
			}

			done := make(chan struct{})
			go func() { // batch i writes the value i to every key
				defer close(done)
				for i := 0; i < batches; i++ {
					ops := make([]core.WriteOp, keys)
					for k := range ops {
						ops[k] = core.WriteOp{Key: fmt.Sprintf("k%d", k), Value: value.String(fmt.Sprint(i))}
					}
					if _, err := primary.WriteBatch(ops); err != nil {
						t.Errorf("batch %d: %v", i, err)
						return
					}
				}
			}()

			poll := func() {
				t.Helper()
				seen := map[string]int{} // value → keys showing it
				for k := 0; k < keys; k++ {
					v, err := replica.Get(fmt.Sprintf("k%d", k), "")
					switch {
					case errors.Is(err, core.ErrBranchNotFound):
						seen["none"]++
					case err != nil:
						t.Fatal(err)
					default:
						seen[v.Value.Display()]++
					}
				}
				if len(seen) != 1 {
					t.Fatalf("replica shows part of a batch: keys per batch %v", seen)
				}
			}
			table.check = poll // also inside a round, before each Apply
			rounds := 0
		loop:
			for ; ; rounds++ {
				select {
				case <-done:
					if cursor.Seq == primary.Feed().Seq() {
						break loop
					}
				default:
				}
				next, truncated, err := f.tailOnce(cursor)
				if err != nil || truncated {
					t.Fatalf("round %d: truncated=%v err=%v", rounds, truncated, err)
				}
				cursor = next
				poll()
			}
			if v, err := replica.Get("k0", ""); err != nil || v.Value.Display() != fmt.Sprint(batches-1) {
				t.Fatalf("replica ended at k0=%v (%v), want the last batch", v.Value.Display(), err)
			}
			t.Logf("%d rounds", rounds)
		})
	}
	t.Run("snapshot", func(t *testing.T) {
		table := &listingTable{BranchTable: core.NewMemBranchTable()}
		primary := core.Open(core.Options{Branches: table})
		batch := func(v string) error {
			_, err := primary.WriteBatch([]core.WriteOp{{Key: "a", Value: value.String(v)}, {Key: "b", Value: value.String(v)}})
			return err
		}
		if err := batch("old"); err != nil {
			t.Fatal(err)
		}
		table.listed = func(key string) { // a's old head is listed; b's is not yet
			if key == "a" {
				table.listed = nil
				if err := batch("new"); err != nil {
					t.Error(err)
				}
			}
		}
		replica := core.Open(core.Options{})
		f := NewFollower(NewLocalSource(primary), replica.Store(), replica.BranchTable(), Options{})
		cursor, err := f.snapshot()
		if err != nil {
			t.Fatal(err)
		}
		for _, key := range []string{"a", "b"} {
			if v, err := replica.Get(key, ""); err != nil || v.Value.Display() != "new" {
				t.Fatalf("replica %s = %s (%v) after a snapshot the batch landed in, want both keys at the batch", key, v.Value.Display(), err)
			}
		}
		if tip := primary.Feed().Seq(); cursor.Seq != tip {
			t.Fatalf("snapshot anchored at %d, want the tip %d", cursor.Seq, tip)
		}
	})
}

// checkedTable runs check, when set, before every Apply reaches the table.
type checkedTable struct {
	core.BranchTable
	check func()
}

func (c *checkedTable) Apply(ops []core.HeadOp) (bool, error) {
	if c.check != nil {
		c.check()
	}
	return c.BranchTable.Apply(ops)
}

// listingTable runs listed, when set, after each Branches answer.
type listingTable struct {
	core.BranchTable
	listed func(key string)
}

func (l *listingTable) Branches(key string) (map[string]hash.Hash, error) {
	m, err := l.BranchTable.Branches(key)
	if l.listed != nil {
		l.listed(key)
	}
	return m, err
}
