package core

import (
	"errors"
	"log/slog"
	"time"

	"forkbase/internal/obs"
	"forkbase/internal/store"
)

// dbObs bundles the engine's observability wiring: one obs.Op per metered
// entry point (count, failures, sampled latency and the threshold-gated
// slow-op record carrying the trace ID minted at the serving edge),
// GC/heal/scrub run accounting, and the merge walk's ancestry counter.  Every
// handle is resolved once at Open; under obs.Discard the Ops are nil.
type dbObs struct {
	reg *obs.Registry

	opPut, opWriteBatch, opEdit, opGet, opMerge *obs.Op
	mergeAncestry                               *obs.Counter

	gcRuns, gcErrors, gcSwept, gcReclaimed, gcCompacted *obs.Counter
	gcSeconds                                           *obs.Histogram
	healRuns, healRepaired, healFetchedBytes            *obs.Counter
	healSeconds                                         *obs.Histogram
	scrubRuns, scrubQuarantined, scrubLost              *obs.Counter
	scrubSeconds                                        *obs.Histogram
}

func newDBObs(reg *obs.Registry, logger *slog.Logger, slowOp time.Duration) *dbObs {
	o := &dbObs{reg: reg}
	total := reg.CounterVec("forkbase_engine_ops_total",
		"Engine operations by entry point.", "op")
	errsV := reg.CounterVec("forkbase_engine_errors_total",
		"Engine operations that failed (not-found and stale-head excluded), by entry point.", "op")
	lat := reg.HistogramVec("forkbase_engine_op_seconds",
		"Engine operation latency by entry point.", "op")
	if total != nil {
		mk := func(op string) *obs.Op {
			return &obs.Op{Name: op, Count: total.With(op), Fails: errsV.With(op), Lat: lat.With(op),
				Benign: benignOpErr, Slow: obs.SlowLog{Logger: logger, Threshold: slowOp}, Msg: "slow op"}
		}
		o.opPut, o.opWriteBatch, o.opEdit, o.opGet, o.opMerge =
			mk("put"), mk("write_batch"), mk("edit"), mk("get"), mk("merge")
	}
	o.mergeAncestry = reg.Counter("forkbase_engine_merge_ancestry_nodes_total",
		"FNodes loaded by merges' base-finding walks.")
	o.gcRuns = reg.Counter("forkbase_gc_runs_total", "Completed GC/compaction passes.")
	o.gcErrors = reg.Counter("forkbase_gc_errors_total", "GC passes that failed.")
	o.gcSwept = reg.Counter("forkbase_gc_swept_chunks_total", "Unreachable chunks deleted by GC.")
	o.gcReclaimed = reg.Counter("forkbase_gc_reclaimed_bytes_total", "Physical bytes returned by GC/compaction.")
	o.gcCompacted = reg.Counter("forkbase_gc_compacted_segments_total", "Log segments rewritten by compaction.")
	o.gcSeconds = reg.Histogram("forkbase_gc_seconds", "GC/compaction pass duration.")
	o.healRuns = reg.Counter("forkbase_heal_runs_total", "Completed anti-entropy heal passes.")
	o.healRepaired = reg.Counter("forkbase_heal_repaired_chunks_total", "Chunks refetched, verified and restored by heal.")
	o.healFetchedBytes = reg.Counter("forkbase_heal_fetched_bytes_total", "Encoded bytes pulled from the heal source.")
	o.healSeconds = reg.Histogram("forkbase_heal_seconds", "Heal pass duration.")
	o.scrubRuns = reg.Counter("forkbase_scrub_runs_total", "Completed media scrub passes.")
	o.scrubQuarantined = reg.Counter("forkbase_scrub_quarantined_segments_total", "Storage units quarantined by scrub.")
	o.scrubLost = reg.Counter("forkbase_scrub_lost_chunks_total", "Chunk records detected as lost by scrub.")
	o.scrubSeconds = reg.Histogram("forkbase_scrub_seconds", "Scrub pass duration.")
	return o
}

// benignOpErr reports errors that are normal protocol outcomes — absent
// keys/branches, lost CAS races — and must not count as engine failures.
func benignOpErr(err error) bool {
	return errors.Is(err, ErrBranchNotFound) || errors.Is(err, ErrKeyNotFound) ||
		errors.Is(err, ErrStaleHead) || errors.Is(err, store.ErrNotFound)
}

func (o *dbObs) gcDone(start time.Time, gs GCStats, err error) {
	if o == nil {
		return
	}
	if err != nil {
		if !errors.Is(err, ErrNotCollectable) && !errors.Is(err, ErrReadOnly) {
			o.gcErrors.Inc()
		}
		return
	}
	o.gcRuns.Inc()
	o.gcSeconds.Since(start)
	o.gcSwept.Add(int64(gs.Swept))
	o.gcReclaimed.Add(gs.ReclaimedBytes)
	o.gcCompacted.Add(int64(gs.CompactedSegments))
}

func (o *dbObs) healDone(start time.Time, hs HealStats, err error) {
	if o == nil {
		return
	}
	o.healRepaired.Add(int64(hs.Repaired))
	o.healFetchedBytes.Add(hs.BytesFetched)
	if err == nil {
		o.healRuns.Inc()
		o.healSeconds.Since(start)
	}
}

func (o *dbObs) scrubDone(start time.Time, ss store.ScrubStats, err error) {
	if o == nil {
		return
	}
	if err != nil {
		return
	}
	o.scrubRuns.Inc()
	o.scrubSeconds.Since(start)
	o.scrubQuarantined.Add(int64(ss.QuarantinedSegments))
	o.scrubLost.Add(int64(len(ss.Lost)))
}

// registerGauges publishes scrape-time views of the store's dedup
// accounting and the decoded-node cache.  Remote/cluster stores are
// excluded — their Stats() is a network round trip, too expensive for a
// scrape — and re-registration replaces the callback, so when a test
// process opens engines serially the latest engine's gauges win.
func (db *DB) registerGauges() {
	reg := db.met.reg
	kind := store.KindOf(db.raw)
	if kind == "mem" || kind == "file" {
		labels, vals := []string{"kind"}, []string{kind}
		raw := db.raw
		reg.GaugeFuncVec("forkbase_store_chunks", "Distinct chunks physically stored, by backend kind.",
			labels, vals, func() float64 { return float64(raw.Stats().UniqueChunks) })
		reg.GaugeFuncVec("forkbase_store_physical_bytes", "Encoded bytes occupying storage, by backend kind.",
			labels, vals, func() float64 { return float64(raw.Stats().PhysicalBytes) })
		reg.GaugeFuncVec("forkbase_store_logical_bytes", "Encoded bytes before deduplication, by backend kind.",
			labels, vals, func() float64 { return float64(raw.Stats().LogicalBytes) })
		reg.CounterFuncVec("forkbase_store_dedup_hits_total", "Put calls that found the chunk already present, by backend kind.",
			labels, vals, func() float64 { return float64(raw.Stats().DedupHits) })
	}
	vs := db.verifier
	reg.CounterFunc("forkbase_verify_cache_hits_total", "Reads served on the store's verified stamp (rehash skipped).",
		func() float64 { return float64(vs.VerifyStats().Hits) })
	reg.CounterFunc("forkbase_verify_cache_misses_total", "Claimed reads without a current verified stamp (rehash paid, stamp written).",
		func() float64 { return float64(vs.VerifyStats().Misses) })
	reg.CounterFunc("forkbase_verify_cache_invalidations_total", "Verified stamps retired by GC, scrub, heal or repair (ids, plus one per wholesale retirement).",
		func() float64 { return float64(vs.VerifyStats().Invalidations) })
	reg.CounterFunc("forkbase_verify_skipped_hashes_total", "Rehashes amortized away (verified-stamp hits plus provenance-trusted writes).",
		func() float64 { return float64(vs.VerifyStats().SkippedHashes) })
	if db.ncache != nil {
		c := db.ncache
		reg.CounterFunc("forkbase_cache_hits_total", "Decoded-node cache hits.",
			func() float64 { return float64(c.Stats().Hits) })
		reg.CounterFunc("forkbase_cache_misses_total", "Decoded-node cache misses.",
			func() float64 { return float64(c.Stats().Misses) })
		reg.CounterFunc("forkbase_cache_evictions_total", "Decoded-node cache evictions.",
			func() float64 { return float64(c.Stats().Evictions) })
		reg.GaugeFunc("forkbase_cache_bytes", "Decoded-node cache resident bytes.",
			func() float64 { return float64(c.Stats().Bytes) })
		reg.GaugeFunc("forkbase_cache_entries", "Decoded-node cache resident entries.",
			func() float64 { return float64(c.Stats().Entries) })
	}
}

// VerifyStats snapshots the verifying layer's amortization counters: hits,
// misses and invalidations of the store's verified stamp plus the total
// rehashes skipped (stamp hits and provenance-trusted writes).
func (db *DB) VerifyStats() store.VerifyStats { return db.verifier.VerifyStats() }

// Metrics returns the registry this engine reports into (obs.Discard when
// observability is disabled; never nil).
func (db *DB) Metrics() *obs.Registry {
	if db.met == nil || db.met.reg == nil {
		return obs.Discard
	}
	return db.met.reg
}

// ErrNotScrubbable is returned by Scrub when no layer of the store stack
// can audit its own media (pure in-memory stores have nothing to scrub).
var ErrNotScrubbable = errors.New("core: store does not support scrubbing")

// Scrub audits the backing store's physical media (see store.Scrubber),
// recording pass duration and quarantine/loss totals.  Returns
// ErrNotScrubbable when no layer has media to audit.
func (db *DB) Scrub() (store.ScrubStats, error) {
	scr, ok := store.As[store.Scrubber](db.raw)
	if !ok {
		return store.ScrubStats{}, ErrNotScrubbable
	}
	start := time.Now()
	ss, err := scr.Scrub()
	db.met.scrubDone(start, ss, err)
	// Scrub itself never consults a verified stamp (it reads segment files
	// directly), but its findings do invalidate: lost ids must not be
	// vouched for, and a quarantine pass rescues records into new homes —
	// drop everything rather than reason about which survived.  (FileStore's
	// placement epoch bump covers direct store.Scrub() callers; this is the
	// engine-level half of the pair.)
	db.verifier.Invalidate(ss.Lost...)
	if ss.QuarantinedSegments > 0 {
		db.verifier.InvalidateAll()
	}
	return ss, err
}

// LastScrub reports the most recent scrub (or open-time recovery)
// classification; ok is false when none has run or no file store is in the
// engine's stack.
func (db *DB) LastScrub() (store.ScrubStats, time.Time, bool) {
	fs, ok := store.As[*store.FileStore](db.raw)
	if !ok {
		return store.ScrubStats{}, time.Time{}, false
	}
	return fs.LastScrub()
}

// StoreHealth reports the backing store's media health: nil while every
// acknowledged chunk is readable and intact (or the store has no media to
// audit), an error wrapping store.ErrCorrupt while lost chunks await
// repair.
func (db *DB) StoreHealth() error {
	scr, ok := store.As[store.Scrubber](db.raw)
	if !ok {
		return nil
	}
	return scr.Health()
}
