package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"time"

	"forkbase/internal/core"
	"forkbase/internal/hash"
	"forkbase/internal/obs"
	"forkbase/internal/repl"
	"forkbase/internal/store"
)

// A run replays its script several times over, every pass on a set-up of its
// own, and keeps for each timed unit the shortest time any pass took for it.
//
// This host runs at one of two speeds a quarter apart and changes between
// them every few milliseconds; the share of a second spent at the faster one
// wanders between none and nearly all of it.  A median over rounds follows
// that share: the same code and seed gave figures 8-16 % apart from one run
// to the next.  The disturbance only ever adds time, though, and the script
// is fixed: a unit does the same work in every pass (the passes' counters
// are compared, and must be equal), so the shortest of its times is the one
// least disturbed.  Taken over those, the same runs are 2-7 % apart; README.md
// (Noise) has the measurements.

// passCfg shapes one replay of a script.
type passCfg struct {
	syncReps int
	plays    int // times a read-only unit is played, the shortest kept; 0 is once
	traced   bool
	perOp    bool // time batched ops one by one, for the edge percentiles
	tmp      string
}

// counters are the figures a fixed script must reproduce exactly, run after
// run and traced or not.
type counters struct {
	UserBytes     int64 `json:"user_bytes"`
	PhysicalBytes int64 `json:"physical_bytes"`
	UniqueChunks  int64 `json:"unique_chunks"`
	LogicalBytes  int64 `json:"logical_bytes"`
	DedupHits     int64 `json:"dedup_hits"`
	StoreGets     int64 `json:"store_gets"`
	CacheHits     int64 `json:"nodecache_hits"`
	CacheMisses   int64 `json:"nodecache_misses"`
	VerifyHits    int64 `json:"verify_hits"`
	VerifyMisses  int64 `json:"verify_misses"`
	VerifySkipped int64 `json:"verify_skipped"`
}

type roundStats struct {
	lat         [nKinds][]float64 // µs per op; one sample per clock pair
	per         [nKinds]int       // ops under one clock pair: batchSize for batched kinds, else 1
	ops         int
	verifyBytes float64 // chunk bytes the verify block read
	calibMBs    float64
	alloc       uint64
	gc          time.Duration // spent in collections between units
}

// busy is the time spent inside timed ops of kind k.
func (rs *roundStats) busy(k opKind) time.Duration {
	var us float64
	for _, v := range rs.lat[k] {
		us += v * float64(rs.per[k])
	}
	return time.Duration(us * 1e3)
}

// elapsed is what the round cost: every timed op and the collections the
// harness ran between them.
func (rs *roundStats) elapsed() time.Duration {
	d := rs.gc
	for k := opKind(0); k < nKinds; k++ {
		d += rs.busy(k)
	}
	return d
}

type passResult struct {
	setupS  []float64 // one per pass folded in
	rounds  []roundStats
	syncMBs []float64 // one per follower
	// What each pass folded in found on its own: its end-to-end figures,
	// the time inside its measured rounds, and the calibration loop's
	// speed before each of its rounds.
	single    []map[string]float64
	measuredS []float64
	calibMBs  []float64

	base     counters // as the set-up left them
	counters counters // after the measured rounds
	duBytes  int64
	segments int
	cache    struct{ evictions, bytes int64 }

	attempted, failed int
	failures          []string

	peakHeap  uint64
	syncFetch uint64             // bytes the last follower fetched
	probes    map[string]float64 // direct layer measurements (traced pass)
	t         *tracer
}

type pass struct {
	sp   spec
	sc   *script
	cfg  passCfg
	t    *tracer
	rig  *rig
	uids []hash.Hash
	res  []result
	out  *passResult

	lastGC uint64 // bytes allocated when the collector last ran
}

func (p *pass) fail(format string, args ...any) {
	p.out.failed++
	if len(p.out.failures) < 10 {
		p.out.failures = append(p.out.failures, fmt.Sprintf(format, args...))
	}
}

// check compares one op's result with what the script's model expects and
// records the uid of any version the op made.
func (p *pass) check(o *op, r *result) {
	p.out.attempted++
	if r.err != nil {
		p.fail("%s obj %d: %v", o.kind, o.obj, r.err)
		return
	}
	sc, x := p.sc, o.ext()
	switch o.kind {
	case opGet:
		if p.sp.edge == "rest" {
			if r.uid != p.uids[o.wantHead] || r.n != p.sp.rows {
				p.fail("get obj %d@%s: head %s count %d", o.obj, sc.branches[o.branch], r.uid.Short(), r.n)
			}
		} else if !bytes.Equal(r.val, sc.val(o.wantVal)) {
			p.fail("get obj %d row %d ver %d: wrong value", o.obj, o.row, o.ver)
		}
	case opScan:
		if len(r.vals) != len(x.wantVals) {
			p.fail("scan from %d: %d rows, want %d", o.row, len(r.vals), len(x.wantVals))
			return
		}
		for i, id := range x.wantVals {
			if !bytes.Equal(r.keys[i], sc.rowKeys[int(o.row)+i]) || !bytes.Equal(r.vals[i], sc.val(id)) {
				p.fail("scan from %d: row %d differs", o.row, int(o.row)+i)
				return
			}
		}
	case opCommit, opMerge:
		if r.n != int(o.wantN) {
			p.fail("%s obj %d@%s: seq %d, want %d", o.kind, o.obj, sc.branches[o.branch], r.n, o.wantN)
		}
		p.uids[o.newVer] = r.uid
	case opDiff:
		if len(r.deltas) != len(x.wantDelta) {
			p.fail("diff obj %d: %d deltas, want %d", o.obj, len(r.deltas), len(x.wantDelta))
			return
		}
		for i, c := range x.wantDelta {
			d := r.deltas[i]
			if !bytes.Equal(d.Key, sc.rowKeys[c.row]) || !bytes.Equal(d.From, sc.val(c.from)) || !bytes.Equal(d.To, sc.val(c.to)) {
				p.fail("diff obj %d: delta %d differs", o.obj, i)
				return
			}
		}
	case opHistory:
		if len(r.uids) != len(x.wantVers) {
			p.fail("history obj %d@%s: %d versions, want %d", o.obj, sc.branches[o.branch], len(r.uids), len(x.wantVers))
			return
		}
		for i, v := range x.wantVers {
			if r.uids[i] != p.uids[v] {
				p.fail("history obj %d@%s: version %d differs", o.obj, sc.branches[o.branch], i)
				return
			}
		}
	case opVerify:
		if r.n != int(o.wantN) {
			p.fail("verify obj %d: %d versions checked, want %d", o.obj, r.n, o.wantN)
		}
	}
}

// timed runs ops[lo:hi] under one clock pair and one root span.
func (p *pass) timed(ops []op, res []result) time.Duration {
	root := p.t.beginOp(ops[0].kind.String())
	t0 := time.Now()
	for i := range ops {
		p.rig.edge.do(&ops[i], p.uids, &res[i])
	}
	el := time.Since(t0)
	p.t.endOp(root)
	return el
}

// gcEvery is how much the process may allocate between two collections.
const gcEvery = 48 << 20

var allocSample = []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}

// collect runs the garbage collector once gcEvery bytes have been allocated
// since it last ran.  The collector is otherwise off (main pins the GC
// percent to -1): whether a concurrent mark phase happened to overlap a
// timed op was the largest single source of run-to-run disagreement, so
// collections happen here, between timed units, and their cost is reported
// on its own (runtime.gc_ms_per_kop).
func (p *pass) collect(rs *roundStats) {
	metrics.Read(allocSample)
	if allocSample[0].Value.Uint64()-p.lastGC >= gcEvery {
		t0 := time.Now()
		p.gc()
		rs.gc += time.Since(t0)
	}
}

func (p *pass) gc() {
	runtime.GC()
	metrics.Read(allocSample)
	p.lastGC = allocSample[0].Value.Uint64()
}

// replayable reports whether u may be played more than once in a pass: its
// ops change nothing in the store.  A deep verify is not, because the engine
// remembers what it verified and a second one would skip the hashing.
func (u *unit) replayable() bool {
	for i := range u.ops {
		switch u.ops[i].kind {
		case opGet, opScan, opDiff, opHistory:
		default:
			return false
		}
	}
	return true
}

func (p *pass) runUnit(u *unit, rs *roundStats) {
	p.collect(rs)
	res := p.res[:len(u.ops)]
	step := 1
	if u.batch && !p.cfg.perOp {
		step = len(u.ops)
	}
	plays := 1
	if p.cfg.plays > 1 && u.replayable() {
		plays = p.cfg.plays
	}
	for lo := 0; lo < len(u.ops); lo += step {
		o := &u.ops[lo]
		var before float64
		if o.kind == opVerify {
			before = p.rig.reg.Sum("forkbase_store_read_bytes_total")
		}
		var el time.Duration
		for i := 0; i < plays; i++ {
			for j := lo; j < lo+step; j++ {
				res[j].reset()
			}
			if d := p.timed(u.ops[lo:lo+step], res[lo:lo+step]); i == 0 || d < el {
				el = d
			}
		}
		rs.lat[o.kind] = append(rs.lat[o.kind], float64(el.Nanoseconds())/1e3/float64(step))
		rs.per[o.kind] = step
		rs.ops += step
		if o.kind == opVerify {
			rs.verifyBytes += p.rig.reg.Sum("forkbase_store_read_bytes_total") - before
		}
	}
	for i := range u.ops {
		o := &u.ops[i]
		p.check(o, &res[i])
		for j := range o.ext().after {
			var r result
			p.rig.edge.do(&o.x.after[j], p.uids, &r)
			p.check(&o.x.after[j], &r)
		}
	}
}

// calibrate times a fixed SHA-256 loop: a round the host disturbed shows a
// low figure here as well as in its own numbers.
func calibrate() float64 {
	buf := make([]byte, 1<<20)
	t0 := time.Now()
	for i := 0; i < 16; i++ {
		s := sha256.Sum256(buf)
		buf[0] = s[0]
	}
	return 16 / time.Since(t0).Seconds() * float64(len(buf)) / 1e6
}

// setup opens the deployment in dir, loads it through its own edge, seeds
// the history and plays the warm-up round.
func (p *pass) setup(dir string) error {
	rg, err := buildRig(p.sp, p.sc, dir, p.t)
	if err != nil {
		return err
	}
	p.rig = rg
	p.uids = make([]hash.Hash, len(p.sc.vers))
	loaded, err := rg.edge.load()
	if err != nil {
		return fmt.Errorf("load: %w", err)
	}
	p.out.attempted += len(loaded)
	copy(p.uids, loaded)
	var warm roundStats
	for _, ops := range [][]op{p.sc.forks, p.sc.history} {
		for i := range ops {
			p.runUnit(&unit{ops: ops[i : i+1]}, &warm)
		}
	}
	for i := range p.sc.warm {
		p.runUnit(&p.sc.warm[i], &warm)
	}
	return nil
}

// runPass replays sc once on a fresh set-up: set-up, measured rounds, sync.
func runPass(sp spec, sc *script, cfg passCfg) (*passResult, error) {
	p := &pass{sp: sp, sc: sc, cfg: cfg, res: make([]result, batchSize), out: &passResult{}}
	if cfg.traced {
		p.t = newTracer()
		p.out.t = p.t
	}
	dir, err := os.MkdirTemp(cfg.tmp, "data-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	p.gc()
	t0 := time.Now()
	err = p.setup(dir)
	if p.rig != nil {
		defer p.rig.close()
	}
	if err != nil {
		return nil, err
	}
	p.out.setupS = []float64{time.Since(t0).Seconds()}
	p.out.base = p.readCounters()
	if p.t != nil {
		// Layer figures describe the measured rounds, not the bulk load.
		p.t.reset()
		eng := p.rig.eng
		p.t.watch("nodecache.lookups", func() int64 {
			s := eng.NodeCacheStats()
			return s.Hits + s.Misses
		})
	}

	var ms runtime.MemStats
	for i := range sc.rounds {
		rs := roundStats{calibMBs: calibrate()}
		p.gc()
		runtime.ReadMemStats(&ms)
		alloc := ms.TotalAlloc
		for j := range sc.rounds[i] {
			p.runUnit(&sc.rounds[i][j], &rs)
		}
		runtime.ReadMemStats(&ms)
		rs.alloc = ms.TotalAlloc - alloc
		if ms.HeapInuse > p.out.peakHeap {
			p.out.peakHeap = ms.HeapInuse
		}
		p.out.rounds = append(p.out.rounds, rs)
	}

	if err := p.snapshot(); err != nil {
		return nil, err
	}
	for i := 0; i < cfg.syncReps; i++ {
		if err := p.syncRep(); err != nil {
			return nil, err
		}
	}
	if p.t != nil {
		p.out.probes = p.probeLayers()
	}
	var measured time.Duration
	for i := range p.out.rounds {
		measured += p.out.rounds[i].elapsed()
		p.out.calibMBs = append(p.out.calibMBs, p.out.rounds[i].calibMBs)
	}
	p.out.measuredS = []float64{measured.Seconds()}
	p.out.single = []map[string]float64{endToEndOf(p.out)}
	return p.out, nil
}

// fold takes the pass r into best, which keeps the shortest time seen for
// every timed unit.  Both replayed the same script, so their samples line up
// one to one; counters that differ mean the two did different work and are
// a failure.
func (best *passResult) fold(r *passResult) {
	best.attempted += r.attempted + 1
	best.failed += r.failed
	best.failures = append(best.failures, r.failures...)
	if r.counters != best.counters {
		best.failed++
		best.failures = append(best.failures, fmt.Sprintf("a pass left counters %+v, an earlier one %+v", r.counters, best.counters))
	}
	best.setupS = append(best.setupS, r.setupS...)
	best.syncMBs = append(best.syncMBs, r.syncMBs...)
	best.single = append(best.single, r.single...)
	best.measuredS = append(best.measuredS, r.measuredS...)
	best.calibMBs = append(best.calibMBs, r.calibMBs...)
	if r.peakHeap > best.peakHeap {
		best.peakHeap = r.peakHeap
	}
	for i := range best.rounds {
		b, o := &best.rounds[i], &r.rounds[i]
		for k := range b.lat {
			for j, v := range o.lat[k] {
				if v < b.lat[k][j] {
					b.lat[k][j] = v
				}
			}
		}
		if o.gc < b.gc {
			b.gc = o.gc
		}
	}
}

// runPasses replays sc n times and returns the fold of the passes.
func runPasses(sp spec, sc *script, cfg passCfg, n int) (*passResult, error) {
	var best *passResult
	for i := 0; i < n; i++ {
		r, err := runPass(sp, sc, cfg)
		if err != nil {
			return nil, err
		}
		if best == nil {
			best = r
		} else {
			best.fold(r)
		}
	}
	return best, nil
}

func (p *pass) readCounters() counters {
	st := p.rig.fs.Stats()
	cs, vs := p.rig.eng.NodeCacheStats(), p.rig.eng.VerifyStats()
	return counters{
		UserBytes: p.sc.userBytes, PhysicalBytes: st.PhysicalBytes, UniqueChunks: st.UniqueChunks,
		LogicalBytes: st.LogicalBytes, DedupHits: st.DedupHits, StoreGets: st.Gets,
		CacheHits: cs.Hits, CacheMisses: cs.Misses,
		VerifyHits: vs.Hits, VerifyMisses: vs.Misses, VerifySkipped: vs.SkippedHashes,
	}
}

// snapshot reads the deterministic counters and the space figures once the
// measured rounds are done.
func (p *pass) snapshot() error {
	fs := p.rig.fs
	if err := fs.Flush(); err != nil {
		return err
	}
	st := fs.Stats()
	cs := p.rig.eng.NodeCacheStats()
	p.out.counters = p.readCounters()
	p.out.cache.evictions, p.out.cache.bytes = cs.Evictions, cs.Bytes
	// du of the data directory, heads file aside: every stored byte is on
	// disk, and record framing is all that may come on top.
	entries, err := os.ReadDir(p.rig.dir)
	if err != nil {
		return err
	}
	for _, e := range entries {
		fi, err := e.Info()
		if err != nil || filepath.Ext(e.Name()) == ".json" || filepath.Ext(e.Name()) == ".tmp" {
			continue
		}
		p.out.duBytes += fi.Size()
		p.out.segments++
	}
	p.out.attempted++
	if max := st.PhysicalBytes + 64*st.UniqueChunks + 1<<16; p.out.duBytes < st.PhysicalBytes || p.out.duBytes > max {
		p.fail("du of the data dir is %d bytes for %d physical bytes", p.out.duBytes, st.PhysicalBytes)
	}
	return nil
}

// syncRep converges one fresh in-memory follower on the primary's whole
// history and records the rate.
func (p *pass) syncRep() error {
	p.gc()
	src, closeSrc, err := p.rig.source()
	if err != nil {
		return err
	}
	if p.t != nil {
		src = p.t.wrapSource(src)
	}
	ms := store.NewMemStore()
	rdb := core.Open(core.Options{Store: ms, Metrics: obs.NewRegistry(), Logger: quietLogger()})
	// Poll only paces the idle tail after convergence; a short one lets
	// Close return promptly.
	fo := repl.NewFollower(src, rdb.Store(), rdb.BranchTable(), repl.Options{Poll: 20 * time.Millisecond})
	root := p.t.beginOp("sync")
	t0 := time.Now()
	fo.Start()
	err = fo.WaitCaughtUp(time.Minute)
	el := time.Since(t0)
	p.t.endOp(root)
	st := fo.Stats()
	fo.Close()
	closeSrc()
	rdb.Close()
	p.out.attempted++
	if err != nil {
		p.fail("sync: %v", err)
		return nil
	}
	p.checkFollower(ms, rdb)
	p.out.syncFetch = st.BytesFetched
	p.out.syncMBs = append(p.out.syncMBs, float64(st.BytesFetched)/1e6/el.Seconds())
	return nil
}

// checkFollower requires the follower's heads to equal the primary's and
// every head's root chunk to have landed.
func (p *pass) checkFollower(ms *store.MemStore, rdb *core.DB) {
	keys, err := p.rig.heads.Keys()
	if err != nil {
		p.fail("sync: listing primary keys: %v", err)
		return
	}
	for _, k := range keys {
		branches, err := p.rig.heads.Branches(k)
		if err != nil {
			p.fail("sync: %v", err)
			return
		}
		for b, uid := range branches {
			got, ok, _ := rdb.BranchTable().Head(k, b)
			has, _ := ms.Has(uid)
			if !ok || got != uid || !has {
				p.fail("sync: follower head of %s@%s is %s, primary has %s", k, b, got.Short(), uid.Short())
				return
			}
		}
	}
}
