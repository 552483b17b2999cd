package repl

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"forkbase/internal/chunk"
	"forkbase/internal/core"
	"forkbase/internal/fnode"
	"forkbase/internal/hash"
	"forkbase/internal/store"
)

// ErrChunkVanished is returned when the source no longer has a chunk the
// walk needs — the head being pulled was superseded and collected on the
// primary (a pin lease expired, or the head predates the feed's pin
// window).  The follower treats it as retriable: it re-reads the feed,
// where a newer entry for the branch supersedes the vanished head.
var ErrChunkVanished = errors.New("repl: chunk vanished from source mid-sync")

// errClosed ends a pull that Close interrupted.
var errClosed = errors.New("repl: follower closed mid-sync")

// repinAfter is how long a pull runs before it refreshes its roots' pins.
var repinAfter = core.DefaultPinLease / 2

// syncer pulls Merkle graphs from a Source into a local store.  It is the
// mechanism under both catch-up modes: snapshot (every head) and
// incremental (the heads of one feed page, pruning everything shared).
type syncer struct {
	src   Source
	local store.Store     // replica store (verifying wrapper: claimed chunks recheck on Put)
	stop  <-chan struct{} // closed by Close: the walk stops between batches

	chunksFetched atomic.Uint64
	bytesFetched  atomic.Uint64
	chunksSkipped atomic.Uint64
}

// fetch pulls one batch of ids from the source.  It does not retry: a failed
// fetch fails the round, the follower backs off, and the next pull prunes
// everything this one landed.  A vanished chunk (nil slot) is resolved only
// by a newer feed entry or a snapshot, not by a re-fetch.
func (s *syncer) fetch(ids []hash.Hash) ([]*chunk.Chunk, error) {
	out, err := s.src.GetChunks(ids)
	if err == nil && len(out) != len(ids) {
		err = fmt.Errorf("repl: source returned %d chunks for %d ids", len(out), len(ids))
	}
	if err != nil {
		return nil, err
	}
	var bytes uint64
	for j, c := range out {
		if c == nil {
			return nil, fmt.Errorf("%w: %s", ErrChunkVanished, ids[j].Short())
		}
		bytes += uint64(c.Size())
	}
	s.chunksFetched.Add(uint64(len(out)))
	s.bytesFetched.Add(bytes)
	return out, nil
}

// pull makes every chunk reachable from roots present in the local store,
// fetching only what is missing, in one fnode.Walk over all of them.  Each
// batch is pruned against the local store with one HasBatch (a present chunk
// implies its whole subgraph is present — the Merkle prune invariant), the
// rest is fetched with one GetChunks, and chunks land in the order the walk
// finishes them, one PutBatch a batch: children strictly before parents, so
// a torn pull leaves orphans (harmless) but never a chunk whose descendants
// are absent.  The roots stay pinned on the source for the whole walk, the
// pins refreshed every repinAfter.
func (s *syncer) pull(roots []hash.Hash) error {
	var pinned []hash.Hash
	defer func() {
		for _, r := range pinned {
			_ = s.src.Unpin(r)
		}
	}()
	for _, r := range roots {
		if err := s.src.Pin(r); err != nil {
			return err
		}
		pinned = append(pinned, r)
	}
	leased := time.Now()
	var run []*chunk.Chunk // finished by the walk, not landed yet
	land := func() (err error) {
		if len(run) > 0 {
			_, err = s.local.PutBatch(run)
			run = nil
		}
		return err
	}
	err := fnode.Walk(roots, map[hash.Hash]bool{}, func(ids []hash.Hash) ([]*chunk.Chunk, error) {
		select {
		case <-s.stop:
			return nil, errClosed
		default:
		}
		if time.Since(leased) > repinAfter {
			leased = time.Now()
			for _, r := range pinned { // the count stays, the deadline moves
				if s.src.Pin(r) == nil {
					_ = s.src.Unpin(r)
				}
			}
		}
		// Land what the last batch finished before fetching the next: the
		// walk decodes a batch's refs while its bytes are still in cache.
		if err := land(); err != nil {
			return nil, err
		}
		present, err := s.local.HasBatch(ids)
		if err != nil {
			return nil, err
		}
		for _, p := range present {
			if p {
				s.chunksSkipped.Add(1)
			}
		}
		return fnode.FetchMissing(ids, present, make([]*chunk.Chunk, len(ids)), s.fetch)
	}, func(c *chunk.Chunk) error {
		run = append(run, c)
		return nil
	})
	if err == nil {
		err = land()
	}
	return err
}
