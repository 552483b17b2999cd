package core

import (
	"errors"
	"fmt"
	"time"

	"forkbase/internal/fnode"
	"forkbase/internal/hash"
	"forkbase/internal/index"
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
// the cache purge below follows the store sweep, and the read path
// revalidates cache inserts against the store (nodeSource.load).
func (db *DB) GC() (GCStats, error) { return db.gc(0) }

// Compact is the online variant of GC: the same mark and sweep, but segment
// rewriting is gated by the configured compaction ratio (CompactRatio), so
// lightly-fragmented segments are left alone.  The background compactor
// (Options.CompactEvery) runs exactly this.
func (db *DB) Compact() (GCStats, error) { return db.gc(db.compactRatio) }

// gc wraps gcInner with run accounting: completed passes, durations, and
// swept/reclaimed totals land in the metrics registry.
func (db *DB) gc(minDeadRatio float64) (GCStats, error) {
	start := time.Now()
	gs, err := db.gcInner(minDeadRatio)
	db.met.gcDone(start, gs, err)
	return gs, err
}

func (db *DB) gcInner(minDeadRatio float64) (GCStats, error) {
	if err := db.writeGuard(); err != nil {
		return GCStats{}, err
	}
	col, ok := store.As[store.Collector](db.raw)
	if !ok {
		return GCStats{}, ErrNotCollectable
	}
	// Writers must be fenced so a version mid-commit (chunks stored, head
	// not yet advanced) can never be collected; readers proceed throughout.
	// An online pass (ratio > 0) on a store with generational grace can
	// mark *without* the fence — anything staged while the mark runs is
	// younger than the previous sweep and therefore exempt — and exclude
	// writers only for the sweep itself.  A full pass (explicit GC, or a
	// store without grace) fences mark and sweep both.  Chunks staged
	// outside the engine's fenced operations (a value built now, Put much
	// later) are likewise protected only by grace: commit staged values
	// promptly (or use the BuildAnd* helpers), and run full GC at quiesced
	// moments.
	_, hasGrace := col.(store.GenerationalCollector)
	fenceMark := !(minDeadRatio > 0 && hasGrace)
	if fenceMark {
		db.writeMu.Lock()
		defer db.writeMu.Unlock()
	}
	live, err := db.mark()
	if err != nil {
		return GCStats{}, err
	}
	if !fenceMark {
		db.writeMu.Lock()
		defer db.writeMu.Unlock()
	}
	res, err := col.Sweep(func(id hash.Hash) bool { return live[id] }, minDeadRatio)
	if err != nil {
		return GCStats{}, err
	}
	// Purge swept ids from the decoded-node cache the read path uses (core's
	// own or one the caller attached; nil-safe).  Relocated chunks are
	// purged too: their content is unchanged, but a cached decode may alias
	// storage the compaction retired.
	for _, id := range res.SweptIDs {
		db.ncache.Remove(id)
	}
	for _, id := range res.MovedIDs {
		db.ncache.Remove(id)
	}
	// Swept ids no longer resolve, and moved ids live in relocated records;
	// neither may keep skipping the rehash on a stale entry.  (FileStore's
	// placement epoch also retires the moved set — this is the explicit half
	// of the belt-and-braces pair.)
	db.verifier.Invalidate(res.SweptIDs...)
	db.verifier.Invalidate(res.MovedIDs...)
	return GCStats{
		Live:              len(live),
		Swept:             res.Swept,
		SweptBytes:        res.SweptBytes,
		ReclaimedBytes:    res.ReclaimedBytes,
		CompactedSegments: res.CompactedSegments,
		Relocated:         len(res.MovedIDs),
	}, nil
}

// mark computes the live set: the closure of every branch head over FNode
// bases and POS-Tree child pointers.
func (db *DB) mark() (map[hash.Hash]bool, error) {
	live := make(map[hash.Hash]bool)
	keys, err := db.heads.Keys()
	if err != nil {
		return nil, err
	}
	for _, key := range keys {
		branches, err := db.heads.Branches(key)
		if err != nil {
			return nil, err
		}
		for _, head := range branches {
			if err := db.markFrom(head, live); err != nil {
				return nil, err
			}
		}
	}
	// Feed pins: heads replicas are actively pulling stay fully reachable,
	// so a concurrent collection can never break an in-flight sync — the
	// replication analogue of the segment-generation sweep grace.  Pinned
	// roots may legitimately be gone already (a replica pinned a head it
	// learned just before the branch was deleted and an earlier pass
	// collected it between lease refreshes), so this walk tolerates missing
	// chunks instead of failing the pass.
	if db.feed != nil {
		for _, head := range db.feed.PinnedHeads() {
			if err := db.markFromTolerant(head, live); err != nil {
				return nil, err
			}
		}
	}
	return live, nil
}

// markFrom adds every chunk reachable from a version uid to live: the FNode
// chain (all bases, transitively) and each version's value tree.
func (db *DB) markFrom(uid hash.Hash, live map[hash.Hash]bool) error {
	return db.markFromOpt(uid, live, false)
}

// markFromTolerant is markFrom for advisory roots (feed pins): a missing
// chunk prunes the walk instead of failing it.
func (db *DB) markFromTolerant(uid hash.Hash, live map[hash.Hash]bool) error {
	return db.markFromOpt(uid, live, true)
}

func (db *DB) markFromOpt(uid hash.Hash, live map[hash.Hash]bool, tolerant bool) error {
	queue := []hash.Hash{uid}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		if cur.IsZero() || live[cur] {
			continue
		}
		f, err := fnode.Load(db.st, cur)
		if err != nil {
			if tolerant && errors.Is(err, store.ErrNotFound) {
				continue
			}
			return fmt.Errorf("core: gc mark %s: %w", cur.Short(), err)
		}
		live[cur] = true
		queue = append(queue, f.Bases...)
		v, err := f.DecodedValue()
		if err != nil {
			return err
		}
		if v.Kind().Composite() && !v.Root().IsZero() {
			if err := db.markValue(v.Root(), live, tolerant); err != nil {
				return err
			}
		}
	}
	return nil
}

func (db *DB) markValue(root hash.Hash, live map[hash.Hash]bool, tolerant bool) error {
	if live[root] {
		return nil
	}
	c, err := db.st.Get(root)
	if err != nil {
		if tolerant && errors.Is(err, store.ErrNotFound) {
			return nil
		}
		return fmt.Errorf("core: gc mark value %s: %w", root.Short(), err)
	}
	live[root] = true
	// Dispatch through the index layer's node-type registry: the walk
	// follows child pointers of whatever structure the value uses without
	// naming one.
	children, err := index.Children(c)
	if err != nil {
		return err
	}
	for _, child := range children {
		if err := db.markValue(child, live, tolerant); err != nil {
			return err
		}
	}
	return nil
}
