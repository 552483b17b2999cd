package core

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"forkbase/internal/chunk"
	"forkbase/internal/fnode"
	"forkbase/internal/hash"
	"forkbase/internal/store"
)

// GCStats reports a collection run.
type GCStats struct {
	// Live is the number of chunks reachable from any branch head.
	Live int
	// Swept is the number of unreachable chunks deleted.
	Swept int
	// SweptBytes is the encoded size of the chunks deleted.
	SweptBytes int64
	// ReclaimedBytes is the physical storage returned: equal to SweptBytes
	// for memory stores, and the on-disk footprint of compacted-away log
	// segments (net of rewritten live records) for file stores.
	ReclaimedBytes int64
	// CompactedSegments counts log segments the sweep rewrote and unlinked
	// (file stores only).
	CompactedSegments int
	// Relocated counts live chunks compaction physically moved.
	Relocated int
}

// ErrNotCollectable is returned when no reachable layer of the backing store
// stack implements store.Collector, so unreachable chunks cannot be
// enumerated and deleted.
var ErrNotCollectable = fmt.Errorf("core: store does not support garbage collection")

// GC removes every chunk not reachable from any branch head of any key and
// reclaims the underlying storage — on file-backed stores this compacts the
// log, so the on-disk footprint shrinks to the live set.
//
// Immutability makes this safe and simple: the reachable set is the closure
// of {branch heads} over FNode bases and POS-Tree child pointers.  Note that
// ForkBase semantics keep *all history reachable from a head* alive —
// history is only collected when the branches referencing it are deleted.
//
// Readers concurrent with GC that hold roots of *collected* objects may
// observe ErrNotFound mid-traversal (as before this cache existed); they can
// never permanently resurrect swept data through the decoded-node cache —
// the cache purge below follows the store sweep, and store.Nodes, the one
// gateway to the cache, revalidates a read's insert against the store and
// inserts a write's nodes before the put that lands them.
//
// Completed passes, durations and swept/reclaimed totals land in the metrics
// registry.
func (db *DB) GC() (GCStats, error) {
	start := time.Now()
	gs, err := db.gcInner()
	db.met.gcDone(start, gs, err)
	return gs, err
}

func (db *DB) gcInner() (GCStats, error) {
	if err := db.writeGuard(); err != nil {
		return GCStats{}, err
	}
	col, ok := store.As[store.Collector](db.raw)
	if !ok {
		return GCStats{}, ErrNotCollectable
	}
	// The head table fences out every Apply and remote Commit from listing
	// the heads to the clock tick, so an engine commit (chunks stored, head
	// not yet moved) is never collected; readers proceed.  Chunks stored
	// outside the fence (a value built now and Put later, a TCP client's
	// put outside a write) may be swept, but the op publishing them carries
	// an epoch the tick passes: its Apply fails with ErrCollected, and a
	// Commit does when a chunk it names is gone, and nothing is published.
	var res store.SweepStats
	var live map[hash.Hash]bool
	var err error
	db.heads.collect(func() bool {
		if live, err = db.mark(); err != nil {
			return false
		}
		res, err = col.Sweep(func(id hash.Hash) bool { return live[id] })
		return res.Swept > 0 || err != nil // a failed sweep may have deleted some
	})
	if err != nil {
		return GCStats{}, err
	}
	// Purge swept ids from the decoded-node cache the read path uses (core's
	// own or one the caller attached; nil-safe).  Relocated chunks are
	// purged too: their content is unchanged, but a cached decode may alias
	// storage the compaction retired.  Their verified stamps are the store's
	// to retire, and it has: a swept id left the index, and compaction moved
	// the placement epoch before it repointed anything.
	for _, id := range res.SweptIDs {
		db.ncache.Remove(id)
	}
	for _, id := range res.MovedIDs {
		db.ncache.Remove(id)
	}
	return GCStats{
		Live:              len(live),
		Swept:             res.Swept,
		SweptBytes:        res.SweptBytes,
		ReclaimedBytes:    res.ReclaimedBytes,
		CompactedSegments: res.CompactedSegments,
		Relocated:         len(res.MovedIDs),
	}, nil
}

// mark computes the live set: the closure of every branch head, and of the
// heads leased followers may still be pulling (Feed.leasedRoots), under
// fnode.Walk.  The walk's seen set is the live set.  A chunk missing under
// a head fails the pass with every head that lacks a chunk named.
func (db *DB) mark() (map[hash.Hash]bool, error) {
	all, heads, err := db.branchHeads()
	if err != nil {
		return nil, err
	}
	// Leased roots keep a follower's in-flight pull whole even after the
	// branch moved away from the head it pulls.  They may legitimately be
	// gone already (an Old an earlier pass collected before any lease
	// held it), so under them a missing chunk prunes the walk — and is not
	// live — instead of failing the pass.  The heads are read first: a head
	// that moves after that is an Old by the time the roots are read.
	live := make(map[hash.Hash]bool)
	leased := false
	var missing hash.Hash
	fetch := func(ids []hash.Hash) ([]*chunk.Chunk, error) {
		chunks, err := db.st.GetBatch(ids)
		if err != nil {
			return nil, fmt.Errorf("core: gc mark: %w", err)
		}
		for i, c := range chunks {
			if c != nil {
				continue
			}
			if !leased {
				missing = ids[i]
				return nil, store.ErrNotFound
			}
			delete(live, ids[i])
		}
		return chunks, nil
	}
	if err := fnode.Walk(heads, live, fetch, nil); err != nil {
		if missing.IsZero() {
			return nil, err
		}
		// Name every head whose closure lacks a chunk, walking each alone.
		gone, names := missing, []string(nil)
		for key, branches := range all {
			for branch, head := range branches {
				if fnode.Walk([]hash.Hash{head}, map[hash.Hash]bool{}, fetch, nil) != nil {
					names = append(names, fmt.Sprintf("%s@%s (uid %s)", key, branch, head))
				}
			}
		}
		sort.Strings(names)
		return nil, fmt.Errorf("core: gc mark: chunk %s missing under %s: %w", gone, strings.Join(names, ", "), store.ErrNotFound)
	}
	leased = true
	if err := fnode.Walk(db.feed.leasedRoots(), live, fetch, nil); err != nil {
		return nil, err
	}
	return live, nil
}

// branchHeads lists every head of every branch (ListHeads), and the same
// heads as one list: the roots of everything the store must keep.
func (db *DB) branchHeads() (map[string]map[string]hash.Hash, []hash.Hash, error) {
	all, err := ListHeads(db.heads)
	var heads []hash.Hash
	for _, branches := range all {
		for _, head := range branches {
			heads = append(heads, head)
		}
	}
	return all, heads, err
}
