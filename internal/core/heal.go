package core

import (
	"errors"
	"fmt"
	"time"

	"forkbase/internal/chunk"
	"forkbase/internal/fnode"
	"forkbase/internal/hash"
	"forkbase/internal/index"
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

// healFetchBatch bounds how many damaged ids travel in one GetChunks call.
const healFetchBatch = 512

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
// chunk through the verifying read path, and repairs every missing-or-corrupt
// chunk from src: refetched in batches, rehashed against the requested id,
// and written back through the store's Repair capability (plain Put when the
// store lacks it).  Children of repaired chunks rejoin the walk, so damage
// deep inside a subtree hidden behind a damaged parent is still found.
//
// This is anti-entropy, not a write: it restores bytes the store already
// acknowledged, so it is permitted on read-only replicas — a follower can
// heal itself from its primary, and a primary from any caught-up follower.
// Concurrent engine writes are safe (new heads reference new chunks; the
// walk reads a consistent set from its snapshot of the branch table), but
// the pass holds the GC fence shared, so a full collection cannot sweep
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
	db.writeMu.RLock()
	defer db.writeMu.RUnlock()

	rep, _ := store.As[store.Repairer](db.raw)

	keys, err := db.heads.Keys()
	if err != nil {
		return hs, err
	}
	visited := make(map[hash.Hash]bool)
	var frontier []hash.Hash
	for _, key := range keys {
		branches, err := db.heads.Branches(key)
		if err != nil {
			return hs, err
		}
		for _, head := range branches {
			hs.Branches++
			if head.IsZero() || visited[head] {
				continue
			}
			visited[head] = true
			frontier = append(frontier, head)
		}
	}

	for len(frontier) > 0 {
		var next, damaged []hash.Hash
		for _, id := range frontier {
			hs.Checked++
			// Heal's contract is to re-verify what is actually on disk, so
			// every read must pay the rehash: drop any verified-id entry
			// before the Get (the read re-adds a fresh one on success).
			db.verifier.Invalidate(id)
			c, err := db.st.Get(id)
			switch {
			case err == nil:
				kids, err := chunkChildren(c)
				if err != nil {
					return hs, err
				}
				for _, k := range kids {
					if k.IsZero() || visited[k] {
						continue
					}
					visited[k] = true
					next = append(next, k)
				}
			case errors.Is(err, store.ErrNotFound):
				hs.Missing++
				damaged = append(damaged, id)
			case errors.Is(err, chunk.ErrCorrupt):
				hs.Corrupt++
				damaged = append(damaged, id)
			default:
				return hs, fmt.Errorf("core: heal read %s: %w", id.Short(), err)
			}
		}
		for off := 0; off < len(damaged); off += healFetchBatch {
			end := off + healFetchBatch
			if end > len(damaged) {
				end = len(damaged)
			}
			batch := damaged[off:end]
			got, err := src.GetChunks(batch)
			if err != nil {
				return hs, fmt.Errorf("core: heal fetch: %w", err)
			}
			for i, c := range got {
				want := batch[i]
				// The source is untrusted: rehash the bytes, and pin them to
				// the id *requested* — a self-consistent chunk under the
				// wrong id must not land either.
				if c == nil || c.Recheck() != nil || c.Verify(want) != nil {
					hs.Failed = append(hs.Failed, want)
					continue
				}
				if rep != nil {
					if err := rep.Repair(c); err != nil {
						return hs, fmt.Errorf("core: heal repair %s: %w", want.Short(), err)
					}
				} else {
					// No repair capability: Put covers the missing case; a
					// corrupt-but-resident copy that Put dedup-hits against
					// stays broken, so re-read to find out.
					if _, err := db.st.Put(c); err != nil {
						return hs, fmt.Errorf("core: heal put %s: %w", want.Short(), err)
					}
					if _, err := db.st.Get(want); err != nil {
						hs.Failed = append(hs.Failed, want)
						continue
					}
				}
				// A cached decode may alias storage of the damaged copy, and a
				// verified-id entry still describes the bytes repair replaced.
				db.ncache.Remove(want)
				db.verifier.Invalidate(want)
				hs.Repaired++
				hs.BytesFetched += int64(c.Size())
				kids, err := chunkChildren(c)
				if err != nil {
					return hs, err
				}
				for _, k := range kids {
					if k.IsZero() || visited[k] {
						continue
					}
					visited[k] = true
					next = append(next, k)
				}
			}
		}
		frontier = next
	}
	if len(hs.Failed) > 0 {
		return hs, fmt.Errorf("core: heal left %d chunk(s) unrepaired: %w", len(hs.Failed), chunk.ErrCorrupt)
	}
	return hs, nil
}

// chunkChildren returns the chunk ids a chunk references: FNodes link their
// base versions and value root; index nodes link their child pages via the
// node-type registry; leaves link nothing.  (The repl package keeps an
// identical helper for its pull walk; both must follow every edge GC's mark
// follows, or heal/replication would strand subtrees GC keeps alive.)
func chunkChildren(c *chunk.Chunk) ([]hash.Hash, error) {
	if c.Type() == chunk.TypeFNode {
		f, err := fnode.Decode(c.Data())
		if err != nil {
			return nil, fmt.Errorf("core: decoding fnode %s: %w", c.ID().Short(), err)
		}
		out := append([]hash.Hash(nil), f.Bases...)
		v, err := f.DecodedValue()
		if err != nil {
			return nil, err
		}
		if v.Kind().Composite() && !v.Root().IsZero() {
			out = append(out, v.Root())
		}
		return out, nil
	}
	return index.Children(c)
}
