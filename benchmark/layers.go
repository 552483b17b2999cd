package main

import (
	"time"

	"forkbase/internal/chunker"
	"forkbase/internal/hash"
	"forkbase/internal/index"
)

// metricDef declares one reported metric.  BENCHMARK.json lists the same
// names, units and directions; the determinism test holds the two together.
type metricDef struct {
	name, unit, better string
}

var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"ops_s", "1/s", "higher"},
	{"get_p50_us", "us", "lower"},
	{"commit_p50_us", "us", "lower"},
	{"diff_p50_us", "us", "lower"},
	{"merge_p50_us", "us", "lower"},
	{"verify_mb_s", "MB/s", "higher"},
	{"sync_mb_s", "MB/s", "higher"},
	{"space_amp", "ratio", "lower"},
}

var perLayer = []metricDef{
	{"rest.handler_us_per_req", "us", "lower"},
	{"rest.client_overhead_us_per_req", "us", "lower"},
	{"rest.req_bytes_per_op", "B", "lower"},
	{"rest.resp_bytes_per_op", "B", "lower"},
	{"rest.non2xx", "count", "lower"},
	{"server.rtt_us_p50", "us", "lower"},
	{"server.wire_self_us_per_rt", "us", "lower"},
	{"server.roundtrips_per_get", "count", "lower"},
	{"server.roundtrips_per_commit", "count", "lower"},
	{"server.chunks_per_roundtrip", "count", "higher"},
	{"server.bytes_per_commit", "B", "lower"},
	{"core.head_get_us", "us", "lower"},
	{"core.put_us", "us", "lower"},
	{"core.branch_us", "us", "lower"},
	{"core.history_us_per_version", "us", "lower"},
	{"core.heads_cas_us", "us", "lower"},
	{"core.heads_bytes_per_commit", "B", "lower"},
	{"index.get_us", "us", "lower"},
	{"index.scan_us_per_row", "us", "lower"},
	{"index.apply_us_per_commit", "us", "lower"},
	{"index.diff_us", "us", "lower"},
	{"index.merge_us", "us", "lower"},
	{"index.nodes_read_per_get", "count", "lower"},
	{"index.chunks_written_per_commit", "count", "lower"},
	{"index.bytes_rechunked_per_commit", "B", "lower"},
	{"index.rewrite_waste_ratio", "ratio", "lower"},
	{"chunker.scan_mb_s", "MB/s", "higher"},
	{"hash.sum_mb_s", "MB/s", "higher"},
	{"nodecache.hit_ratio", "ratio", "higher"},
	{"nodecache.evictions_per_op", "count", "lower"},
	{"nodecache.resident_mb", "MB", "lower"},
	{"store.get_us_p50", "us", "lower"},
	{"store.put_us_p50", "us", "lower"},
	{"store.gets_per_op", "count", "lower"},
	{"store.puts_per_commit", "count", "lower"},
	{"store.put_bytes_per_commit", "B", "lower"},
	{"store.dedup_hit_ratio", "ratio", "lower"},
	{"store.verify_skipped_ratio", "ratio", "higher"},
	{"store.verify_misses", "count", "lower"},
	{"store.disk_bytes", "B", "lower"},
	{"store.segments", "count", "lower"},
	{"repl.fetch_us_p50", "us", "lower"},
	{"repl.chunks_per_fetch", "count", "higher"},
	{"repl.fetch_rounds", "count", "lower"},
	{"repl.apply_self_us", "us", "lower"},
	{"repl.bytes_fetched_per_byte_missing", "ratio", "lower"},
	{"edge.get_p99_us", "us", "lower"},
	{"edge.commit_p99_us", "us", "lower"},
	{"edge.diff_p90_us", "us", "lower"},
	{"edge.merge_p90_us", "us", "lower"},
	{"edge.scan_p50_us", "us", "lower"},
	{"runtime.alloc_kb_per_op", "KiB", "lower"},
	{"runtime.gc_ms_per_kop", "ms", "lower"},
	{"runtime.peak_heap_mb", "MB", "lower"},
	{"host.calib_mb_s", "MB/s", "higher"},
	{"trace.overhead_frac", "ratio", "lower"},
	{"trace.unattributed_frac", "ratio", "lower"},
}

func div(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// probeLayers measures, by direct calls after the replay, the layers no
// script op reaches on its own: the chunker and the hash over the
// workload's own encoded nodes, and the index's three-way merge.
func (p *pass) probeLayers() map[string]float64 {
	out := map[string]float64{}
	eng := p.rig.eng
	head, err := eng.Get(p.sc.objKeys[0], p.sc.branches[master])
	if err != nil {
		return out
	}
	ix, err := eng.IndexOf(head)
	if err != nil {
		return out
	}
	ids, err := ix.ChunkIDs()
	if err != nil {
		return out
	}
	type node struct {
		tag  byte
		data []byte
	}
	var nodes []node
	var all []byte
	for _, id := range ids {
		c, err := eng.Store().Get(id)
		if err != nil || len(all) > 8<<20 {
			break
		}
		nodes = append(nodes, node{byte(c.Type()), c.Data()})
		all = append(all, c.Data()...)
	}
	// Nodes are small next to the clock; a few passes make a window of
	// milliseconds even on the 32-row objects.
	passes := 1 + (32<<20)/(len(all)+1)
	var scan, sum []float64
	var sink hash.Hash
	for rep := 0; rep < 3; rep++ {
		st := p.t.start()
		for i := 0; i < passes; i++ {
			chunker.NewByteChunker(eng.Chunking()).Write(all)
		}
		p.t.end("chunker.scan", "chunker", st)
		scan = append(scan, div(float64(len(all)*passes)/1e6, time.Since(st).Seconds()))
		st = p.t.start()
		for i := 0; i < passes; i++ {
			for _, n := range nodes {
				sink = hash.SumTagged(n.tag, n.data)
			}
		}
		p.t.end("hash.sum", "hash", st)
		sum = append(sum, div(float64(len(all)*passes)/1e6, time.Since(st).Seconds()))
	}
	_ = sink
	out["chunker.scan_mb_s"], out["hash.sum_mb_s"] = median(scan), median(sum)

	// index.Merge3 on the last round's merges, reloaded from their uids.
	if p.sp.edge == "rest" || len(p.sc.rounds) == 0 {
		return out
	}
	var merges []float64
	last := p.sc.rounds[len(p.sc.rounds)-1]
	for i := range last {
		for j := range last[i].ops {
			o := &last[i].ops[j]
			if o.kind != opMerge || len(merges) >= 8 {
				continue
			}
			v := p.sc.vers[o.newVer]
			base := v.parents[0]
			for k := 0; k < p.sp.mergeSide; k++ {
				base = p.sc.vers[base].parents[0]
			}
			var ixs [3]index.VersionedIndex
			ok := true
			for k, ver := range []int32{base, v.parents[0], v.parents[1]} {
				cv, err := eng.GetVersion(p.sc.objKeys[o.obj], p.uids[ver])
				if err == nil {
					ixs[k], err = eng.IndexOf(cv)
				}
				ok = ok && err == nil
			}
			if !ok {
				continue
			}
			st := p.t.start()
			_, _, err := index.Merge3(ixs[0], ixs[1], ixs[2], nil)
			p.t.end("index.merge", "index", st)
			if err == nil {
				merges = append(merges, float64(time.Since(st).Nanoseconds())/1e3)
			}
		}
	}
	out["index.merge_us"] = median(merges)
	return out
}

// opCount totals the measured rounds' ops of one kind in a pass that timed
// every op singly.
func (r *passResult) opCount(k opKind) float64 {
	return float64(len(r.samples(k)))
}

func (r *passResult) allOps() float64 {
	n := 0
	for _, rs := range r.rounds {
		n += rs.ops
	}
	return float64(n)
}

func (r *passResult) samples(k opKind) []float64 {
	var all []float64
	for _, rs := range r.rounds {
		all = append(all, rs.lat[k]...)
	}
	return all
}

// layerMetrics derives every per-layer metric from a traced pass `tr` and
// the untraced pass `un` of the same script.  A layer that is not on a
// workload's path reports 0.
func layerMetrics(sp spec, sc *script, un, tr *passResult) map[string]float64 {
	t := tr.t
	m := map[string]float64{}
	gets, commits, ops := tr.opCount(opGet), tr.opCount(opCommit), tr.allOps()
	// The chunk store the client's engine writes to: the TCP client sees
	// round trips, everything else the store itself.
	pfx := "store"
	if sp.edge == "tcp" {
		pfx = "server.rt"
	}

	reqs := float64(t.count("rest.reqs"))
	var scriptNs int64
	for k := opKind(0); k < nKinds; k++ {
		scriptNs += t.kindNs[k.String()]
	}
	if reqs > 0 {
		h := t.stat("rest.handler")
		m["rest.handler_us_per_req"] = t.meanUs("rest.handler")
		m["rest.client_overhead_us_per_req"] = float64(scriptNs-h.durNs) / 1e3 / reqs
		m["rest.req_bytes_per_op"] = float64(t.count("rest.req_bytes")) / reqs
		m["rest.resp_bytes_per_op"] = float64(t.count("rest.resp_bytes")) / reqs
		m["rest.non2xx"] = float64(t.count("rest.non2xx"))
	}

	rtNames := []string{"server.rt.get", "server.rt.put", "server.rt.has", "server.rt.put_batch", "server.rt.get_batch", "server.rt.has_batch"}
	all := append([]string{"server.rt.head", "server.rt.cas", "server.rt.branches"}, rtNames...)
	var rts, rtSelf, chunkRts float64
	for _, n := range all {
		s := t.stat(n)
		rts += float64(s.count)
		rtSelf += float64(s.selfNs)
	}
	for _, n := range rtNames {
		chunkRts += float64(t.stat(n).count)
	}
	m["server.rtt_us_p50"] = t.p50Us(all...)
	m["server.wire_self_us_per_rt"] = div(rtSelf/1e3, rts)
	m["server.roundtrips_per_get"] = div(t.spansDuring("get", "server"), gets)
	m["server.roundtrips_per_commit"] = div(t.spansDuring("commit", "server"), commits)
	m["server.chunks_per_roundtrip"] = div(float64(t.count("server.rt.chunks")), chunkRts)
	m["server.bytes_per_commit"] = div(t.during("commit", "server.rt.put_bytes"), commits)

	m["core.head_get_us"] = t.meanUs("core.head_get")
	m["core.put_us"] = t.meanUs("core.put")
	m["core.branch_us"] = t.meanUs("core.branch")
	var versions float64
	for _, rnd := range sc.rounds {
		for _, u := range rnd {
			for i := range u.ops {
				versions += float64(len(u.ops[i].ext().wantVers))
			}
		}
	}
	m["core.history_us_per_version"] = div(float64(t.stat("core.history").durNs)/1e3, versions)
	m["core.heads_cas_us"] = t.meanUs("heads.cas")
	m["core.heads_bytes_per_commit"] = div(t.during("commit", "heads.cas_bytes"), commits)

	m["index.get_us"] = t.meanUs("index.get")
	m["index.scan_us_per_row"] = div(t.meanUs("index.scan"), float64(sp.scanRows))
	m["index.apply_us_per_commit"] = t.meanUs("index.apply")
	m["index.diff_us"] = t.meanUs("index.diff")
	m["index.merge_us"] = tr.probes["index.merge_us"]
	if sp.cacheBytes > 0 {
		m["index.nodes_read_per_get"] = div(t.during("get", "nodecache.lookups"), gets)
	} else {
		m["index.nodes_read_per_get"] = div(t.during("get", pfx+".gets"), gets)
	}
	puts, dedup := t.during("commit", pfx+".puts"), t.during("commit", pfx+".dedup")
	has, hasHits := t.during("commit", pfx+".has"), t.during("commit", pfx+".has_hits")
	m["index.chunks_written_per_commit"] = div(puts-dedup, commits)
	m["index.bytes_rechunked_per_commit"] = div(t.during("commit", pfx+".put_bytes"), commits)
	// A chunk the edit emitted although the store already held it: turned
	// away by the sink's presence check, or landed as a dedup hit.
	if emitted := has; emitted > 0 {
		m["index.rewrite_waste_ratio"] = (hasHits + dedup) / emitted
	} else {
		m["index.rewrite_waste_ratio"] = div(dedup, puts)
	}

	m["chunker.scan_mb_s"], m["hash.sum_mb_s"] = tr.probes["chunker.scan_mb_s"], tr.probes["hash.sum_mb_s"]

	c, b := tr.counters, tr.base
	m["nodecache.hit_ratio"] = div(float64(c.CacheHits-b.CacheHits), float64(c.CacheHits-b.CacheHits+c.CacheMisses-b.CacheMisses))
	m["nodecache.evictions_per_op"] = div(float64(tr.cache.evictions), ops)
	m["nodecache.resident_mb"] = float64(tr.cache.bytes) / 1e6

	m["store.get_us_p50"] = t.p50Us("store.get")
	m["store.put_us_p50"] = t.p50Us("store.put", "store.put_batch")
	m["store.gets_per_op"] = div(float64(c.StoreGets-b.StoreGets), ops)
	m["store.puts_per_commit"] = div(t.during("commit", "store.puts"), commits)
	m["store.put_bytes_per_commit"] = div(t.during("commit", "store.put_bytes"), commits)
	m["store.dedup_hit_ratio"] = div(float64(t.count("store.dedup")), float64(t.count("store.puts")))
	skipped, missed := float64(c.VerifySkipped-b.VerifySkipped), float64(c.VerifyMisses-b.VerifyMisses)
	m["store.verify_skipped_ratio"] = div(skipped, skipped+missed)
	m["store.verify_misses"] = missed
	m["store.disk_bytes"] = float64(tr.duBytes)
	m["store.segments"] = float64(tr.segments)

	syncs := float64(t.stat("op.sync").count)
	m["repl.fetch_us_p50"] = t.p50Us("repl.fetch")
	m["repl.chunks_per_fetch"] = div(float64(t.count("repl.chunks")), float64(t.count("repl.fetches")))
	m["repl.fetch_rounds"] = div(float64(t.count("repl.fetches")), syncs)
	m["repl.apply_self_us"] = div(float64(t.byKind["sync"]["unattributed"])/1e3, syncs)
	m["repl.bytes_fetched_per_byte_missing"] = div(float64(tr.syncFetch), float64(c.PhysicalBytes))

	m["edge.get_p99_us"] = quantile(un.samples(opGet), 0.99)
	m["edge.commit_p99_us"] = quantile(un.samples(opCommit), 0.99)
	m["edge.diff_p90_us"] = quantile(un.samples(opDiff), 0.90)
	m["edge.merge_p90_us"] = quantile(un.samples(opMerge), 0.90)
	m["edge.scan_p50_us"] = median(un.samples(opScan))

	var alloc, calib, gc []float64
	for _, rs := range un.rounds {
		alloc = append(alloc, float64(rs.alloc)/1024/float64(rs.ops))
		calib = append(calib, rs.calibMBs)
		gc = append(gc, rs.gc.Seconds()*1e3/(float64(rs.ops)/1e3))
	}
	m["runtime.alloc_kb_per_op"] = median(alloc)
	m["runtime.gc_ms_per_kop"] = median(gc)
	m["runtime.peak_heap_mb"] = float64(un.peakHeap) / 1e6
	m["host.calib_mb_s"] = median(calib)
	m["trace.overhead_frac"] = 1 - div(tr.opsPerSec(), un.opsPerSec())
	var unattributed int64
	for k := opKind(0); k < nKinds; k++ {
		unattributed += t.byKind[k.String()]["unattributed"]
	}
	m["trace.unattributed_frac"] = div(float64(unattributed), float64(scriptNs))
	return m
}

// opsPerSec is the pass's ops_s.
func (r *passResult) opsPerSec() float64 { return endToEndOf(r)["ops_s"] }
