package repl

import (
	"errors"
	"fmt"
	"sync/atomic"

	"forkbase/internal/chunk"
	"forkbase/internal/fnode"
	"forkbase/internal/hash"
	"forkbase/internal/retry"
	"forkbase/internal/store"
)

// ErrChunkVanished is returned when the source no longer has a chunk the
// walk needs — the head being pulled was superseded and collected on the
// primary (a pin lease expired, or the head predates the feed's pin
// window).  The follower treats it as retriable: it re-reads the feed,
// where a newer entry for the branch supersedes the vanished head.
var ErrChunkVanished = errors.New("repl: chunk vanished from source mid-sync")

// syncer pulls Merkle graphs from a Source into a local store.  It is the
// mechanism under both catch-up modes: snapshot (walk every head) and
// incremental (walk one new head, pruning everything shared).
type syncer struct {
	src   Source
	local store.Store // replica store (verifying wrapper: claimed chunks recheck on Put)

	// retry wraps each remote fetch batch, making the walk resumable at
	// batch granularity: a transient source failure re-fetches one batch
	// instead of abandoning (and later restarting) the whole graph walk.
	// stop aborts in-flight backoffs on follower shutdown.
	retry retry.Policy
	stop  <-chan struct{}

	chunksFetched atomic.Uint64
	bytesFetched  atomic.Uint64
	chunksSkipped atomic.Uint64
}

// fetch pulls one batch of ids from the source under the retry policy.  A
// vanished chunk (nil slot) is permanent at this layer — only a newer feed
// entry or a snapshot resolves it, not a re-fetch.
func (s *syncer) fetch(ids []hash.Hash) ([]*chunk.Chunk, error) {
	var out []*chunk.Chunk
	err := s.retry.Do(s.stop, func(retry.Attempt) error {
		part, err := s.src.GetChunks(ids)
		if err != nil {
			return err
		}
		if len(part) != len(ids) {
			return retry.Permanent(fmt.Errorf("repl: source returned %d chunks for %d ids", len(part), len(ids)))
		}
		for j, c := range part {
			if c == nil {
				return retry.Permanent(fmt.Errorf("%w: %s", ErrChunkVanished, ids[j].Short()))
			}
		}
		out = part
		return nil
	})
	return out, err
}

// syncRoot makes every chunk reachable from root present in the local
// store, fetching only what is missing.
//
// The walk (fnode.Walk) is top-down and level-batched: each batch of ids is
// first pruned against the local store with one HasBatch (a present chunk
// implies its whole subtree is present — the Merkle prune invariant), then
// the missing chunks are fetched with one GetChunks and their children join
// the next level.  Chunks land in reverse fetch order (children before
// parents), which is what *maintains* the prune invariant across crashes: a
// torn sync can leave orphaned subtrees (harmless; unreferenced) but never a
// parent whose descendants are absent.
//
// Memory holds the missing byte volume of one root until the landing pass —
// small for incremental syncs (the delta), but a cold snapshot of a huge
// object buffers that object's full graph.  Streaming this (e.g. a batched
// post-order walk landing subtrees as they complete) is future work; the
// buffering is the price of the child-first landing order that keeps
// pruning safe across torn syncs.
func (s *syncer) syncRoot(root hash.Hash) error {
	var fetched [][]*chunk.Chunk
	err := fnode.Walk([]hash.Hash{root}, map[hash.Hash]bool{}, func(ids []hash.Hash) ([]*chunk.Chunk, error) {
		present, err := s.local.HasBatch(ids)
		if err != nil {
			return nil, err
		}
		out := make([]*chunk.Chunk, len(ids))
		var missing []hash.Hash
		var slot []int // missing[j] is ids[slot[j]]
		for i, id := range ids {
			if present[i] {
				s.chunksSkipped.Add(1)
			} else {
				missing, slot = append(missing, id), append(slot, i)
			}
		}
		if len(missing) == 0 {
			return out, nil
		}
		part, err := s.fetch(missing)
		if err != nil {
			return nil, err
		}
		fetched = append(fetched, part)
		for j, c := range part {
			out[slot[j]] = c
			s.chunksFetched.Add(1)
			s.bytesFetched.Add(uint64(c.Size()))
		}
		return out, nil
	})
	if err != nil {
		return err
	}
	// Land children before parents.
	for i := len(fetched) - 1; i >= 0; i-- {
		if _, err := s.local.PutBatch(fetched[i]); err != nil {
			return err
		}
	}
	return nil
}
