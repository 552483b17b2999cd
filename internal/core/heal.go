package core

import (
	"errors"
	"fmt"
	"slices"
	"time"

	"forkbase/internal/chunk"
	"forkbase/internal/fnode"
	"forkbase/internal/hash"
	"forkbase/internal/store"
)

// ChunkSource is the repair-source capability Heal pulls from: batched chunk
// retrieval by id, with nil slots for ids the source does not have.  It is
// the read half of repl.Source, declared structurally here (repl imports
// core, so core cannot name repl's type) — a repl.LocalSource, RemoteSource
// or shard peer all satisfy it unmodified.
type ChunkSource interface {
	GetChunks(ids []hash.Hash) ([]*chunk.Chunk, error)
}

// HealStats reports one anti-entropy pass.
type HealStats struct {
	// Branches is the number of branch heads the walk started from.
	Branches int
	// Checked counts reachable chunks read (and thereby re-verified).
	Checked int
	// Missing counts chunks absent locally (lost to quarantine, or never
	// landed).
	Missing int
	// Corrupt counts chunks present but failing verification.
	Corrupt int
	// Repaired counts chunks refetched, verified and re-stored.
	Repaired int
	// BytesFetched is the encoded volume pulled from the source.
	BytesFetched int64
	// Failed lists damaged ids the source could not supply an intact copy
	// of; non-empty Failed makes Heal return an error wrapping ErrCorrupt.
	Failed []hash.Hash
}

// Heal walks the live Merkle graph from every branch head, re-verifying each
// chunk with one batched read of the verifying store per walk round, and
// repairs every missing-or-corrupt chunk from src: refetched in batches,
// rehashed against the requested id, and written back through the store's
// Repair capability, or, when the store lacks it, put children first once
// the walk ends.  Children of repaired chunks rejoin the walk, so damage
// deep inside a subtree hidden behind a damaged parent is still found.
//
// This is anti-entropy, not a write: it restores bytes the store already
// acknowledged, so it is permitted on read-only replicas — a follower can
// heal itself from its primary, and a primary from any caught-up follower.
// Concurrent engine writes are safe (new heads reference new chunks; the
// walk reads a consistent set from its snapshot of the branch table), but
// the pass holds the GC fence shared, so a collection cannot sweep
// chunks out from under it.
func (db *DB) Heal(src ChunkSource) (HealStats, error) {
	start := time.Now()
	hs, err := db.healInner(src)
	db.met.healDone(start, hs, err)
	return hs, err
}

func (db *DB) healInner(src ChunkSource) (HealStats, error) {
	var hs HealStats
	if src == nil {
		return hs, errors.New("core: heal requires a source")
	}
	db.heads.fence.RLock()
	defer db.heads.fence.RUnlock()

	rep, _ := store.As[store.Repairer](db.raw)
	_, heads, err := db.branchHeads()
	if err != nil {
		return hs, err
	}
	hs.Branches = len(heads)
	var land []*chunk.Chunk // repairs for a store without Repair, in walk order
	repaired := func(c *chunk.Chunk) {
		// A cached decode may alias storage of the damaged copy.
		db.ncache.Remove(c.ID())
		hs.Repaired++
		hs.BytesFetched += int64(c.Size())
	}

	err = fnode.Walk(heads, map[hash.Hash]bool{}, func(ids []hash.Hash) ([]*chunk.Chunk, error) {
		out, errs, have := make([]*chunk.Chunk, len(ids)), make([]error, len(ids)), make([]bool, len(ids))
		// Heal's contract is to re-verify what is actually on disk, so
		// every read must pay the rehash: the batched read is fresh (the
		// read stamps afresh on success).
		db.verifier.GetEach(ids, out, errs, true)
		for i, err := range errs {
			hs.Checked++
			switch {
			case err == nil:
				have[i] = true
			case errors.Is(err, store.ErrNotFound):
				hs.Missing++
			case errors.Is(err, chunk.ErrCorrupt):
				hs.Corrupt++
			default:
				return nil, fmt.Errorf("core: heal read %s: %w", ids[i].Short(), err)
			}
		}
		out, err := fnode.FetchMissing(ids, have, out, src.GetChunks)
		if err != nil {
			return nil, fmt.Errorf("core: heal fetch: %w", err)
		}
		for i, c := range out {
			if have[i] {
				continue
			}
			want := ids[i]
			out[i] = nil // an id left unrepaired prunes the walk
			// The source is untrusted: rehash the bytes, and pin them to
			// the id *requested* — a self-consistent chunk under the
			// wrong id must not land either.
			if c == nil || c.Recheck() != nil || c.Verify(want) != nil {
				hs.Failed = append(hs.Failed, want)
				continue
			}
			if rep == nil {
				land = append(land, c)
			} else if err := rep.Repair(c); err != nil {
				return nil, fmt.Errorf("core: heal repair %s: %w", want.Short(), err)
			} else {
				repaired(c)
			}
			// The repaired chunk's children rejoin the walk.
			out[i] = c
		}
		return out, nil
	}, nil)
	if err != nil {
		return hs, err
	}
	// A store without Repair (a Remote) gets the repairs in one PutBatch,
	// children first: the walk reaches a chunk's children a round after
	// it, and a remote landing that names a chunk the server lacks is
	// refused.  Put covers the missing case; a corrupt-but-resident copy
	// that Put dedup-hits against stays broken, so re-read to find out.
	if slices.Reverse(land); len(land) > 0 {
		if _, err := db.st.PutBatch(land); err != nil {
			return hs, fmt.Errorf("core: heal put: %w", err)
		}
	}
	for _, c := range land {
		if _, err := db.st.Get(c.ID()); err != nil {
			hs.Failed = append(hs.Failed, c.ID())
		} else {
			repaired(c)
		}
	}
	if len(hs.Failed) > 0 {
		return hs, fmt.Errorf("core: heal left %d chunk(s) unrepaired: %w", len(hs.Failed), chunk.ErrCorrupt)
	}
	return hs, nil
}
