package core

import (
	"fmt"
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
	// Writers are fenced from mark to sweep so a version mid-commit (chunks
	// stored, head not yet advanced) can never be collected; readers proceed
	// throughout.  Chunks staged outside the fence (a value built now, Put
	// much later) may be swept, but the value carries the epoch it was built
	// or read under, and a sweep that deletes anything moves the engine past
	// it: the late Put fails with ErrCollected and publishes nothing.
	db.writeMu.Lock()
	defer db.writeMu.Unlock()
	live, err := db.mark()
	if err != nil {
		return GCStats{}, err
	}
	res, err := col.Sweep(func(id hash.Hash) bool { return live[id] })
	if res.Swept > 0 || err != nil { // a failed sweep may have deleted some
		db.collected = gcClock.Add(1)
	}
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
// fnode.Walk.  The walk's seen set is the live set.
func (db *DB) mark() (map[hash.Hash]bool, error) {
	live := make(map[hash.Hash]bool)
	heads, err := db.branchHeads()
	if err != nil {
		return nil, err
	}
	// Leased roots keep a follower's in-flight pull whole even after the
	// branch moved away from the head it pulls.  They may legitimately be
	// gone already (an Old an earlier pass collected before any lease
	// held it), so under them a missing chunk prunes the walk — and is not
	// live — instead of failing the pass.  The heads are read first: a head
	// that moves after that is an Old by the time the roots are read.
	leased := false
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
				return nil, fmt.Errorf("core: gc mark %s: %w", ids[i].Short(), store.ErrNotFound)
			}
			delete(live, ids[i])
		}
		return chunks, nil
	}
	if err := fnode.Walk(heads, live, fetch, nil); err != nil {
		return nil, err
	}
	leased = true
	if err := fnode.Walk(db.feed.leasedRoots(), live, fetch, nil); err != nil {
		return nil, err
	}
	return live, nil
}

// branchHeads returns the head of every branch of every key: the roots of
// everything the store must keep.
func (db *DB) branchHeads() ([]hash.Hash, error) {
	all, err := ListHeads(db.heads)
	var heads []hash.Hash
	for _, branches := range all {
		for _, head := range branches {
			heads = append(heads, head)
		}
	}
	return heads, err
}
