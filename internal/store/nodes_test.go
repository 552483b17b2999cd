package store_test

import (
	"errors"
	"fmt"
	"testing"

	"forkbase/internal/chunk"
	"forkbase/internal/chunker"
	"forkbase/internal/fnode"
	"forkbase/internal/hash"
	"forkbase/internal/index"
	"forkbase/internal/nodecache"
	"forkbase/internal/store"
	"forkbase/internal/value"
)

// racer is the store beneath the decoded-node cache in TestNodesGCRules.  A
// GC sweep deletes an id from the store and then purges it from the cache;
// racer runs one at the moment a row names: right after a Get returns, or
// inside a put.  It records every id written through it.
type racer struct {
	*store.MemStore
	cache    *nodecache.Cache
	afterGet bool                          // sweep each id a Get returns
	put      func(cs []*chunk.Chunk) error // lands a write; nil: the MemStore's
	ids      []hash.Hash
}

func (r *racer) sweep(id hash.Hash) {
	r.MemStore.Delete(id)
	r.cache.Remove(id)
}

func (r *racer) Get(id hash.Hash) (*chunk.Chunk, error) {
	c, err := r.MemStore.Get(id)
	if err == nil && r.afterGet {
		r.sweep(id)
	}
	return c, err
}

func (r *racer) Put(c *chunk.Chunk) (bool, error) {
	fresh, err := r.PutBatch([]*chunk.Chunk{c})
	if err != nil {
		return false, err
	}
	return fresh[0], nil
}

func (r *racer) PutBatch(cs []*chunk.Chunk) ([]bool, error) {
	for _, c := range cs {
		r.ids = append(r.ids, c.ID())
	}
	if r.put == nil {
		return r.MemStore.PutBatch(cs)
	}
	if err := r.put(cs); err != nil {
		return nil, err
	}
	return make([]bool, len(cs)), nil
}

// nodeKind drives one user of the store.Nodes gateway through its public
// operations: seed writes an object, read loads it back, write lands a new one.
type nodeKind struct {
	name  string
	seed  func(st store.Store) (hash.Hash, error)
	read  func(st store.Store, id hash.Hash) error
	write func(st store.Store, id hash.Hash) error
}

func indexKind(k index.Kind) nodeKind {
	cfg := chunker.SmallConfig()
	key := []byte("key-0000000123")
	return nodeKind{
		name: k.String(),
		seed: func(st store.Store) (hash.Hash, error) {
			entries := make([]index.Entry, 2000)
			for i := range entries {
				entries[i] = index.Entry{Key: []byte(fmt.Sprintf("key-%010d", i)), Val: []byte("v")}
			}
			v, err := value.NewMapWith(st, cfg, k, entries)
			if err != nil {
				return hash.Hash{}, err
			}
			return v.Root(), nil
		},
		read: func(st store.Store, root hash.Hash) error {
			ix, err := value.LoadIndex(st, cfg, root, k)
			if err != nil {
				return err
			}
			_, err = ix.Get(key)
			return err
		},
		write: func(st store.Store, root hash.Hash) error {
			ix, err := value.LoadIndex(st, cfg, root, k)
			if err != nil {
				return err
			}
			_, err = ix.Apply([]index.Op{index.Put(key, []byte("edited"))})
			return err
		},
	}
}

var fnodeKind = nodeKind{
	name: "fnode",
	seed: func(st store.Store) (hash.Hash, error) {
		return fnode.New([]byte("k"), value.String("v1"), nil, 1, nil).Save(st)
	},
	read: func(st store.Store, uid hash.Hash) error {
		_, err := fnode.Load(st, uid)
		return err
	},
	// Save (a one-FNode SaveAll) and a two-FNode SaveAll, both held to the
	// write rule.
	write: func(st store.Store, base hash.Hash) error {
		_, saveErr := fnode.New([]byte("k"), value.String("v2"), []hash.Hash{base}, 2, nil).Save(st)
		_, batchErr := fnode.SaveAll(st, []*fnode.FNode{
			fnode.New([]byte("k"), value.String("v3"), []hash.Hash{base}, 2, nil),
			fnode.New([]byte("j"), value.String("v1"), nil, 1, nil),
		})
		return errors.Join(saveErr, batchErr)
	},
}

// TestNodesGCRules holds every user of the decoded-node gateway — POS-Tree
// and MPT nodes, FNodes — to the rules that keep the cache coherent with a GC
// sweep (store delete first, cache purge second): whatever the interleaving,
// no id the store no longer holds stays resident, and a cached decode of
// another kind is never served in place of the one asked for.
func TestNodesGCRules(t *testing.T) {
	kinds := []nodeKind{indexKind(index.KindPOS), indexKind(index.KindMPT), fnodeKind}
	for i, k := range kinds {
		foreign := kinds[(i+1)%len(kinds)]
		for _, row := range []struct {
			name string
			run  func(t *testing.T, r *racer, st store.Store)
		}{{
			name: "read swept after its Get",
			run: func(t *testing.T, r *racer, st store.Store) {
				id, err := k.seed(r.MemStore)
				if err != nil {
					t.Fatal(err)
				}
				r.afterGet = true
				k.read(st, id) // fails once the sweep has passed under it
				if n := r.cache.Len(); n != 0 {
					t.Fatalf("%d swept nodes resident", n)
				}
			},
		}, {
			name: "failed put",
			run: func(t *testing.T, r *racer, st store.Store) {
				id, err := k.seed(r.MemStore)
				if err != nil {
					t.Fatal(err)
				}
				r.put = func([]*chunk.Chunk) error { return errors.New("disk full") }
				if err := k.write(st, id); err == nil {
					t.Fatal("the write succeeded over a failing put")
				}
				assertNoneResident(t, r)
			},
		}, {
			name: "swept during put",
			run: func(t *testing.T, r *racer, st store.Store) {
				id, err := k.seed(r.MemStore)
				if err != nil {
					t.Fatal(err)
				}
				r.put = func(cs []*chunk.Chunk) error {
					if _, err := r.MemStore.PutBatch(cs); err != nil {
						return err
					}
					for _, c := range cs {
						r.sweep(c.ID())
					}
					return nil
				}
				k.write(st, id)
				assertNoneResident(t, r)
			},
		}, {
			name: "hit of another kind",
			run: func(t *testing.T, r *racer, st store.Store) {
				id, err := foreign.seed(st)
				if err != nil {
					t.Fatal(err)
				}
				if err := foreign.read(st, id); err != nil {
					t.Fatal(err)
				}
				if !r.cache.Contains(id) {
					t.Fatalf("the %s under %s is not resident", foreign.name, id.Short())
				}
				if err := k.read(st, id); err == nil {
					t.Fatalf("a %s read of a cached %s succeeded", k.name, foreign.name)
				}
			},
		}} {
			t.Run(k.name+"/"+row.name, func(t *testing.T) {
				cache := nodecache.New(64 << 20)
				r := &racer{MemStore: store.NewMemStore(), cache: cache}
				row.run(t, r, store.WithNodeCache(r, cache))
			})
		}
	}
}

func assertNoneResident(t *testing.T, r *racer) {
	t.Helper()
	if len(r.ids) == 0 {
		t.Fatal("the write put nothing")
	}
	for _, id := range r.ids {
		if r.cache.Contains(id) {
			t.Fatalf("%s is resident after its put failed or was swept", id.Short())
		}
	}
}
