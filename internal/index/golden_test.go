// Golden roots: the stored bytes of every structure are pinned, not only
// their self-consistency.  A root hash commits to every node encoding and
// every chunk boundary beneath it, so one table of hex roots states "no
// stored byte changed" for map, trie, list and blob builds and for an
// incremental edit, at the default chunking.
// The POS values were regenerated when leaves and index levels took the
// two-region (normalized) cut; the trie's dates from before the sink stopped
// hashing on a worker pool.  A change that moves one changes the format.
package index_test

import (
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"testing"

	"forkbase/internal/chunker"
	"forkbase/internal/hash"
	"forkbase/internal/index"
	"forkbase/internal/mpt"
	"forkbase/internal/pos"
	"forkbase/internal/store"
)

// goldenStream is a fixed splitmix64 generator: the inputs below must not
// drift with the standard library's math/rand.
type goldenStream uint64

func (s *goldenStream) next() uint64 {
	*s += 0x9e3779b97f4a7c15
	z := uint64(*s)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (s *goldenStream) bytes(n int) []byte {
	out := make([]byte, 0, n+8)
	for len(out) < n {
		out = binary.LittleEndian.AppendUint64(out, s.next())
	}
	return out[:n]
}

// goldenRows are n rows keyed row-%08d with 24–87 byte values.
func goldenRows(n int) []index.Entry {
	s := goldenStream(1)
	rows := make([]index.Entry, n)
	for i := range rows {
		rows[i] = index.Entry{
			Key: []byte(fmt.Sprintf("row-%08d", i)),
			Val: s.bytes(24 + int(s.next()%64)),
		}
	}
	return rows
}

func goldenItems(n int) [][]byte {
	s := goldenStream(2)
	items := make([][]byte, n)
	for i := range items {
		items[i] = s.bytes(8 + int(s.next()%40))
	}
	return items
}

// rooted is any built structure; rootOf unwraps a constructor's result.
type rooted interface{ Root() hash.Hash }

func rootOf[T rooted](v T, err error) (hash.Hash, error) {
	if err != nil {
		return hash.Hash{}, err
	}
	return v.Root(), nil
}

func goldenMap(cfg chunker.Config, edit bool) func(store.Store) (hash.Hash, error) {
	return func(st store.Store) (hash.Hash, error) {
		t, err := pos.BuildMap(st, cfg, goldenRows(10000))
		if err != nil || !edit {
			return rootOf(t, err)
		}
		// One 8-row commit: six overwrites scattered over the key space,
		// one insert between existing keys, one delete.
		s := goldenStream(3)
		var ops []index.Op
		for _, i := range []int{17, 1500, 1501, 4999, 7321, 9998} {
			ops = append(ops, index.Put([]byte(fmt.Sprintf("row-%08d", i)), s.bytes(40)))
		}
		ops = append(ops, index.Put([]byte("row-00002500-b"), s.bytes(40)), index.Del([]byte("row-00006000")))
		return rootOf(t.Edit(ops))
	}
}

func goldenTrie() func(store.Store) (hash.Hash, error) {
	return func(st store.Store) (hash.Hash, error) {
		return rootOf(mpt.Build(st, goldenRows(10000)))
	}
}

func goldenList(cfg chunker.Config) func(store.Store) (hash.Hash, error) {
	return func(st store.Store) (hash.Hash, error) {
		return rootOf(pos.BuildSeq(st, cfg, goldenItems(50000)))
	}
}

func goldenBlob(cfg chunker.Config) func(store.Store) (hash.Hash, error) {
	return func(st store.Store) (hash.Hash, error) {
		s := goldenStream(4)
		return rootOf(pos.BuildBlob(st, cfg, s.bytes(1<<20)))
	}
}

func TestGoldenRoots(t *testing.T) {
	def := chunker.DefaultConfig()
	for _, tc := range []struct {
		name    string
		build   func(store.Store) (hash.Hash, error)
		wantHex string
	}{
		{"pos-map-10k/default", goldenMap(def, false), "7ef2d61e7e1ad06c090f585d0a32a0b35dfdfb6da33b7deb49756eb1ceae1674"},
		{"pos-map-10k+edit8/default", goldenMap(def, true), "cf9904a0de88d48bcebe35f70ba7c461eae0a220ece1f155a787238ed24d167e"},
		{"list-50k/default", goldenList(def), "1c726135c44470dbf0b72dd13d75a53049d6a798839bd53f28f384a6ce2bdc36"},
		{"blob-1MiB/default", goldenBlob(def), "c131c09ca8f7f185841f0deda9a7daf2856c242ece3d45f5eb28e6228ae74793"},
		{"mpt-10k/default", goldenTrie(), "4ba47d55282bf799b77d8faa1029227a8ecff078b420d2724ac2dee6f211dfa0"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			root, err := tc.build(store.NewMemStore())
			if err != nil {
				t.Fatal(err)
			}
			if got := hex.EncodeToString(root[:]); got != tc.wantHex {
				t.Errorf("root = %s, want %s", got, tc.wantHex)
			}
		})
	}
}
