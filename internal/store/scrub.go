package store

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"forkbase/internal/chunk"
	"forkbase/internal/hash"
)

// This file is the disk-fault half of the store's failure model: a scrubber
// that audits every segment byte-for-byte against the content addresses in
// the index, and the quarantine/repair primitives built on top of it.
//
// Detection: content addressing makes rot self-evident — rehash the record,
// compare against the 32-byte id in its header.  Classification is
// recovery's, over the same record walk (walkRecords): ok (rehash matches),
// corrupt (mismatch), torn (a span the walk cannot parse, resynced past or
// the tail), unreadable (the bytes cannot be fetched).
//
// Quarantine: a segment holding any bad record is *renamed* to
// seg-NNNNNN.quarantine — never unlinked, so a forensic copy (and any data a
// smarter tool could still extract) survives.  Before the rename, every
// record the index places in the segment is re-verified individually and the
// intact ones are rewritten into the active tail (the index has exact
// offsets, so records beyond a tear are still reachable); records with no
// intact copy are dropped from the index and remembered as lost.
//
// Repair: lost or corrupt chunks come back through Repair (store.Repairer) —
// typically driven by core.DB.Heal refetching from a replica.  Health turns
// nil again once every lost id is re-indexed.

var _ Scrubber = (*FileStore)(nil)
var _ Repairer = (*FileStore)(nil)

func (f *FileStore) quarantinePath(n int) string {
	return filepath.Join(f.dir, fmt.Sprintf("seg-%06d.quarantine", n))
}

// Scrub audits every segment (sealed and active tail alike), quarantines the
// damaged ones, and records the pass in the store's health state.  It is a
// maintenance operation: writers and compaction are excluded for the
// duration (readers proceed, and zero-copy slices already handed out of a
// quarantined segment stay valid — its mapping is parked, exactly as
// compaction parks victims).
func (f *FileStore) Scrub() (ScrubStats, error) {
	start := time.Now()
	var st ScrubStats
	f.mu.Lock()
	defer f.mu.Unlock()
	if err := f.writable(); err != nil {
		return st, err
	}
	segs, err := f.listSegments()
	if err != nil {
		return st, err
	}
	for _, seg := range segs {
		if f.scrubSegment(seg, &st) {
			if err := f.quarantine(seg, &st); err != nil {
				return st, err
			}
		}
	}
	st.ElapsedNs = time.Since(start).Nanoseconds()
	f.noteScrub(st)
	return st, nil
}

// scrubSegment classifies every record of one segment into st and reports
// whether the segment needs quarantine.  Callers hold f.mu.
func (f *FileStore) scrubSegment(seg int, st *ScrubStats) bool {
	st.Segments++
	data, release, err := f.segmentBytes(seg)
	if err != nil {
		st.Unreadable++
		return true
	}
	defer release()
	st.ScannedBytes += int64(len(data))
	bad := false
	torn, _, _ := walkRecords(data, func(_ int64, id hash.Hash, typ chunk.Type, payload []byte) {
		if chunk.New(typ, payload).ID() != id {
			st.Corrupt++
			bad = true
		} else {
			st.Ok++
		}
	})
	st.Torn += torn
	return bad || torn > 0
}

// quarantine rescues what it can out of a damaged segment, then renames the
// file aside.  Callers hold f.mu.
func (f *FileStore) quarantine(seg int, st *ScrubStats) error {
	// The segment's records are about to be rescued elsewhere or dropped;
	// stale verified stamps must not outlive the move.
	f.placeEpoch.Add(1)
	// A damaged active tail must rotate out of the way first, both so the
	// rescue below has somewhere sound to append and so the quarantine
	// machinery only ever handles sealed segments.
	if int64(seg) == f.actSeg.Load() {
		if err := f.rotate(); err != nil {
			return err
		}
	}
	data, release, err := f.segmentBytes(seg)
	if err != nil {
		data, release = nil, func() {} // unreadable: nothing to rescue
	}

	// Index-driven rescue: re-verify every record the index places in this
	// segment at its exact offset — parsing damage elsewhere in the segment
	// cannot hide an intact record.  The intact ones are rewritten into the
	// tail; the rest leave the index and are reported lost.
	var intact []segEntry
	for _, e := range f.gather(seg) {
		end := e.loc.offset + e.loc.diskBytes()
		if end <= int64(len(data)) && chunk.New(e.loc.typ, data[e.loc.offset+recordHeader:end]).ID() == e.id {
			intact = append(intact, e)
			continue
		}
		sh := f.shard(e.id)
		sh.mu.Lock()
		delete(sh.m, e.id)
		sh.mu.Unlock()
		f.stats.UniqueChunks--
		f.stats.PhysicalBytes -= int64(1 + e.loc.length)
		st.Lost = append(st.Lost, e.id)
	}
	err = f.relocateLocked(data, intact)
	release()
	if err != nil {
		return err
	}
	st.Rescued += len(intact)

	// Durability barrier: every rescued record is on disk before the only
	// other copy is set aside.
	if err := f.syncTail(); err != nil {
		return err
	}
	if err := os.Rename(f.segmentPath(seg), f.quarantinePath(seg)); err != nil {
		return fmt.Errorf("filestore: quarantining seg %d: %w", seg, err)
	}
	f.syncDir()
	f.dropReader(seg)
	f.segMu.Lock()
	if m := f.maps[seg]; m != nil {
		delete(f.maps, seg)
		// Park the mapping so zero-copy slices handed out earlier stay valid
		// (the rename does not invalidate an established mapping).
		f.retired = append(f.retired, m)
	}
	f.segMu.Unlock()
	delete(f.segUse, seg)
	f.scrubMu.Lock()
	delete(f.damaged, seg)
	f.scrubMu.Unlock()
	st.QuarantinedSegments++
	return nil
}

// noteScrub folds one pass into the health state.  Callers may hold f.mu
// (lock order: f.mu → scrubMu → shard locks).
func (f *FileStore) noteScrub(st ScrubStats) {
	f.scrubMu.Lock()
	defer f.scrubMu.Unlock()
	cp := st
	cp.Lost = append([]hash.Hash(nil), st.Lost...)
	f.lastScrub = &cp
	f.lastScrubAt = time.Now()
	for _, id := range st.Lost {
		if f.lost == nil {
			f.lost = make(map[hash.Hash]struct{})
		}
		f.lost[id] = struct{}{}
	}
}

// Health implements Scrubber: nil while no scrub (or recovery) has found
// chunks lost to corruption, or once every lost chunk has been re-stored
// (Repair / Put re-indexes it, and this check notices).  Otherwise an error
// wrapping ErrCorrupt, which serving layers surface as not-ready.
func (f *FileStore) Health() error {
	f.scrubMu.Lock()
	defer f.scrubMu.Unlock()
	for id := range f.lost {
		if _, ok := f.lookup(id); ok {
			delete(f.lost, id) // repaired since it was reported lost
		}
	}
	if n := len(f.lost); n > 0 {
		return fmt.Errorf("filestore: %d chunk(s) lost to corruption await repair: %w", n, ErrCorrupt)
	}
	if n := len(f.damaged); n > 0 {
		return fmt.Errorf("filestore: %d segment(s) holding a rotted or unparseable record await scrub: %w", n, ErrCorrupt)
	}
	return nil
}

// LastScrub returns the most recent pass (scrub or open-time recovery
// classification) and when it ran; ok is false when none has.
func (f *FileStore) LastScrub() (ScrubStats, time.Time, bool) {
	f.scrubMu.Lock()
	defer f.scrubMu.Unlock()
	if f.lastScrub == nil {
		return ScrubStats{}, time.Time{}, false
	}
	return *f.lastScrub, f.lastScrubAt, true
}

// Repair implements Repairer: write a fresh verified copy of c and repoint
// the index at it, whether the previous copy is corrupt, quarantined away,
// or absent entirely.  The old record (if any) is accounted dead so a later
// compaction reclaims it.
func (f *FileStore) Repair(c *chunk.Chunk) error {
	if err := c.Recheck(); err != nil {
		return err
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if err := f.writable(); err != nil {
		return err
	}
	id := c.ID()
	if loc, ok := f.lookup(id); ok {
		sh := f.shard(id)
		sh.mu.Lock()
		delete(sh.m, id)
		sh.mu.Unlock()
		f.stats.UniqueChunks--
		f.stats.PhysicalBytes -= int64(1 + loc.length)
		if u, ok := f.segUse[loc.segment]; ok {
			u.dead += loc.diskBytes()
		}
	}
	return f.appendLocked([]*chunk.Chunk{c}, make([]bool, 1))
}
