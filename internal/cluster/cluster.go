// Package cluster shards a ForkBase chunk store across several servers.
//
// Chunks are placed by hash prefix (consistent by construction: a chunk's id
// never changes), so every node holds an even share of unique chunks and
// deduplication keeps working globally — a chunk written via any client is
// found by all.  Branch metadata, which needs linearizable compare-and-set,
// lives on the first node (the metadata master).
package cluster

import (
	"errors"
	"fmt"
	"sync"

	"forkbase/internal/chunk"
	"forkbase/internal/core"
	"forkbase/internal/hash"
	"forkbase/internal/server"
	"forkbase/internal/store"
)

// Cluster is a client-side view of a sharded ForkBase deployment.
type Cluster struct {
	addrs   []string
	clients []*server.Client
	stores  []*server.RemoteStore
	heads   *server.RemoteBranchTable
}

// ShardError names the shard behind a failed cluster operation, so a
// partial failure reads "shard 2 (10.0.0.3:7200) is down", not an anonymous
// transport error.  errors.Is/As reach through to the cause.
type ShardError struct {
	Shard int
	Addr  string
	Err   error
}

func (e *ShardError) Error() string {
	return fmt.Sprintf("cluster: shard %d (%s): %v", e.Shard, e.Addr, e.Err)
}

func (e *ShardError) Unwrap() error { return e.Err }

// shardErr tags err with its shard (nil stays nil).
func (c *Cluster) shardErr(n int, err error) error {
	if err == nil {
		return nil
	}
	return &ShardError{Shard: n, Addr: c.addrs[n], Err: err}
}

// Connect dials every node with default client options; addrs[0] is the
// metadata master.
func Connect(addrs []string) (*Cluster, error) {
	return ConnectWithOptions(addrs, server.ClientOptions{})
}

// ConnectWithOptions dials every node with explicit timeouts and retry
// policy.  Each shard's client retries independently (reconnect + backoff
// on transport faults), so one flaky node slows only its own share of a
// scatter — the per-shard retry the gather paths build on.
func ConnectWithOptions(addrs []string, opts server.ClientOptions) (*Cluster, error) {
	if len(addrs) == 0 {
		return nil, fmt.Errorf("cluster: no addresses")
	}
	c := &Cluster{addrs: addrs}
	for i, a := range addrs {
		cl, err := server.DialWithOptions(a, opts)
		if err != nil {
			c.Close()
			return nil, c.shardErr(i, err)
		}
		c.clients = append(c.clients, cl)
		c.stores = append(c.stores, server.NewRemoteStore(cl))
	}
	c.heads = server.NewRemoteBranchTable(c.clients[0])
	return c, nil
}

// Close disconnects from all nodes.
func (c *Cluster) Close() error {
	var first error
	for _, cl := range c.clients {
		if err := cl.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// shardIndex is the placement function: every read and write path must
// derive placement from it, or batched writes could land where reads do not
// look.
func (c *Cluster) shardIndex(id hash.Hash) int {
	return int(id[0]) % len(c.stores)
}

// shard maps a chunk id to a node.
func (c *Cluster) shard(id hash.Hash) *server.RemoteStore {
	return c.stores[c.shardIndex(id)]
}

// Store returns a store.Store view of the cluster.
func (c *Cluster) Store() store.Store { return (*shardedStore)(c) }

// BranchTable returns the cluster's branch table (on the master).
func (c *Cluster) BranchTable() core.BranchTable { return c.heads }

// shardedStore implements store.Store over the shards.
type shardedStore Cluster

var _ store.Store = (*shardedStore)(nil)

func (s *shardedStore) cluster() *Cluster { return (*Cluster)(s) }

// Put implements store.Store.
func (s *shardedStore) Put(ch *chunk.Chunk) (bool, error) {
	c := s.cluster()
	n := c.shardIndex(ch.ID())
	fresh, err := c.stores[n].Put(ch)
	return fresh, c.shardErr(n, err)
}

// PutBatch implements store.Store through scatter: each node receives its
// share as one OpPutChunks request.
func (s *shardedStore) PutBatch(cs []*chunk.Chunk) ([]bool, error) {
	return scatter(s.cluster(), cs, (*chunk.Chunk).ID, (*server.RemoteStore).PutBatch)
}

// Get implements store.Store.
func (s *shardedStore) Get(id hash.Hash) (*chunk.Chunk, error) {
	c := s.cluster()
	n := c.shardIndex(id)
	ch, err := c.stores[n].Get(id)
	if err != nil {
		if errors.Is(err, store.ErrNotFound) {
			return nil, err // a clean miss is not a shard failure
		}
		return nil, c.shardErr(n, err)
	}
	return ch, nil
}

// Has implements store.Store.
func (s *shardedStore) Has(id hash.Hash) (bool, error) {
	c := s.cluster()
	n := c.shardIndex(id)
	ok, err := c.stores[n].Has(id)
	return ok, c.shardErr(n, err)
}

// scatter splits a batch by placement and hands each involved node its
// share as one batch call, all nodes in parallel, writing each node's
// results back to the positions its share came from — a B-item batch over N
// nodes costs one round-trip time instead of B.
func scatter[T, R any](c *Cluster, in []T, id func(T) hash.Hash, batch func(*server.RemoteStore, []T) ([]R, error)) ([]R, error) {
	groups := make(map[int][]int) // node index -> positions in the batch
	for i, x := range in {
		n := c.shardIndex(id(x))
		groups[n] = append(groups[n], i)
	}
	out := make([]R, len(in))
	errs := make([]error, len(c.stores))
	var wg sync.WaitGroup
	for n, idxs := range groups {
		part := make([]T, len(idxs))
		for j, i := range idxs {
			part[j] = in[i]
		}
		wg.Add(1)
		go func(n int, idxs []int, part []T) {
			defer wg.Done()
			res, err := batch(c.stores[n], part)
			if err != nil {
				errs[n] = c.shardErr(n, err)
				return
			}
			for j, i := range idxs {
				out[i] = res[j]
			}
		}(n, idxs, part)
	}
	wg.Wait()
	// One slow-or-dead shard must not masquerade as total failure: name
	// every shard that failed and let errors.Is/As find the causes.
	return out, errors.Join(errs...)
}

// itself is an id list's placement key.
func itself(id hash.Hash) hash.Hash { return id }

// GetBatch implements store.Store through scatter: one OpGetChunks round
// trip per node, so a whole sync-frontier level costs one RTT regardless of
// size.
func (s *shardedStore) GetBatch(ids []hash.Hash) ([]*chunk.Chunk, error) {
	return scatter(s.cluster(), ids, itself, (*server.RemoteStore).GetBatch)
}

// HasBatch implements store.Store through scatter.
func (s *shardedStore) HasBatch(ids []hash.Hash) ([]bool, error) {
	return scatter(s.cluster(), ids, itself, (*server.RemoteStore).HasBatch)
}

// Stats implements store.Store by aggregating all shards.
func (s *shardedStore) Stats() store.Stats {
	var total store.Stats
	for _, rs := range s.cluster().stores {
		st := rs.Stats()
		total.UniqueChunks += st.UniqueChunks
		total.PhysicalBytes += st.PhysicalBytes
		total.LogicalBytes += st.LogicalBytes
		total.DedupHits += st.DedupHits
		total.Gets += st.Gets
	}
	return total
}

// ShardStats reports per-node stats (for balance inspection).
func (c *Cluster) ShardStats() []store.Stats {
	out := make([]store.Stats, len(c.stores))
	for i, rs := range c.stores {
		out[i] = rs.Stats()
	}
	return out
}
