package main

import (
	"crypto/sha256"
	"encoding/base64"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"sort"
)

// The script is the whole run decided ahead of the clock: every op, every
// input value and — because the generator keeps a shadow model of the store
// (object → branch → rows) while it plans — every expected result.  The
// system under test only ever sees the generated inputs; at run time the
// harness compares what comes back against the expectations recorded here.
//
// What --seed decides is what is read: the rows of gets and scans, the
// historical version a get goes to and, where there are many objects, the
// object and branch a get or a history goes to.  Everything written — the
// data set, the seeded history, every commit's and merge's rows and bytes —
// the versions diffed and verified (what those cost depends on how far the
// chosen object's branches have diverged and how long its history is) and
// the order of ops in a round are the workload's definition and come from
// shapeSeed.
// Content-defined chunking turns written bytes into node sizes and the
// version graph's shape sets what a merge's ancestor search costs, so with
// writes seeded every per-op cost and the stored bytes moved by a tenth from
// one seed to the next; as it is, the store's contents, and with them
// space_amp and every write-side counter, are the same for every seed.
const shapeSeed = 20200420

// picker is one source of choices: the workload's own (writes, op order) or
// the seed's (reads).  The two never share a generator, so what the seed
// draws cannot shift what is written.
type picker struct {
	rng   *rand.Rand
	zipfO *rand.Zipf // object popularity
}

type opKind uint8

const (
	opGet opKind = iota
	opScan
	opCommit
	opDiff
	opBranch
	opMerge
	opHistory
	opVerify
	nKinds
)

var kindNames = [nKinds]string{"get", "scan", "commit", "diff", "branch", "merge", "history", "verify"}

func (k opKind) String() string { return kindNames[k] }

// Branch ids: 0 is master, 1..collab the collaborator branches, anything
// above a merge's short-lived branch.  script.branches maps ids to names.
const master = 0

// change is one row moving from one value to another; values are ids into
// the script's value arena.
type change struct {
	row      int32
	from, to uint32
}

// op is one scripted operation with its expectation.  A run holds a few
// hundred thousand of them, and what the harness keeps alive the garbage
// collector has to mark during the measured ops, so the common fields are
// plain numbers and everything an op kind needs beyond them hangs off x.
type op struct {
	kind     opKind
	branch   uint16 // get/scan/commit/history: target; branch: new branch; merge: destination; diff: from-branch
	src      uint16 // branch: origin; merge: source; diff: to-branch
	obj      int32
	row      int32  // get: row; scan: first row
	ver      int32  // get: historical version (-1 = branch head); diff: from-version (-1 = by branch); verify: version
	ver2     int32  // diff: to-version
	newVer   int32  // commit/merge: id of the version this op creates
	wantVal  uint32 // get
	wantHead int32  // get over REST: version expected at the head
	wantN    int32  // verify: versions reachable; commit/merge: sequence number
	x        *opExtra
}

type opExtra struct {
	rows      []int32
	vals      []uint32
	body      []byte   // rest: rendered PUT body (the whole object)
	wantVals  []uint32 // scan: the rows read
	wantDelta []change // diff: sorted by row
	wantVers  []int32  // history: newest first
	// after holds untimed reads that check what the op left behind (a
	// merge's result).
	after []op
}

var noExtra opExtra

func (o *op) ext() *opExtra {
	if o.x == nil {
		return &noExtra
	}
	return o.x
}

// unit is what one clock pair covers: a batch of µs-scale ops, or a single
// op (merge units hold the untimed-for-merge branch and side commits too,
// each timed on its own).
type unit struct {
	ops   []op
	batch bool
}

type verInfo struct {
	obj     int32
	parents [2]int32 // first parent, merged-in parent; -1 = none
	seq     int32
	changes []change // against the first parent
}

// histWrite is a write to one row by the seeded commit at chain position pos.
type histWrite struct {
	pos int
	val uint32
}

type branchModel struct {
	rows  []uint32 // value id per row
	chain []int32  // first-parent chain of version ids, oldest first
}

func (b *branchModel) head() int32 { return b.chain[len(b.chain)-1] }

func (b *branchModel) fork() *branchModel {
	return &branchModel{
		rows:  append([]uint32(nil), b.rows...),
		chain: append([]int32(nil), b.chain...),
	}
}

type script struct {
	sp       spec
	objKeys  []string
	rowKeys  [][]byte
	branches []string  // branch id → name
	arena    []byte    // every value, valLen bytes each
	vers     []verInfo // every version the script creates, by id

	load    [][]uint32 // initial rows per object (version id == object index)
	forks   []op       // collaborator branches created after the load
	history []op       // seeded commits
	warm    []unit
	rounds  [][]unit

	userBytes int64 // key+value bytes the whole script writes
	digest    string
}

func (sc *script) val(id uint32) []byte {
	n := sc.sp.valLen
	return sc.arena[int(id)*n : int(id+1)*n : int(id+1)*n]
}

type gen struct {
	*script
	wr     picker     // the workload's definition; the same for every seed
	rd     picker     // the seed's choices
	zipfR  *rand.Zipf // row popularity of gets (seed), through perm
	perm   []int32    // zipf rank → row, so hot rows are spread over the table
	models []map[uint16]*branchModel
	// histLog[row] lists the seeded-history writes to a row, oldest first;
	// a historical get resolves against it.
	histLog  map[int32][]histWrite
	baseRows []uint32
	merges   int
}

func rowKey(sp spec, i int) []byte {
	if sp.objects == 1 {
		return []byte(fmt.Sprintf("row%013d", i)) // 16 bytes
	}
	return []byte(fmt.Sprintf("f%02d", i))
}

// generate plans the run for (sp, seed): the set-up, then one warm-up round
// and sp.rounds measured rounds.
func generate(sp spec, seed int64) *script {
	sc := &script{sp: sp, branches: []string{"master"}}
	g := &gen{script: sc, histLog: map[int32][]histWrite{}}
	g.wr.rng, g.rd.rng = rand.New(rand.NewSource(shapeSeed)), rand.New(rand.NewSource(seed))
	for i := 0; i < sp.objects; i++ {
		if sp.objects == 1 {
			sc.objKeys = append(sc.objKeys, "table")
		} else {
			sc.objKeys = append(sc.objKeys, fmt.Sprintf("obj%04d", i))
		}
	}
	for i := 0; i < sp.rows; i++ {
		sc.rowKeys = append(sc.rowKeys, rowKey(sp, i))
	}
	for c := 0; c < sp.collab; c++ {
		sc.branches = append(sc.branches, fmt.Sprintf("c%d", c))
	}
	if sp.objects > 1 {
		g.wr.zipfO = rand.NewZipf(g.wr.rng, 1.1, 1, uint64(sp.objects-1))
		g.rd.zipfO = rand.NewZipf(g.rd.rng, 1.1, 1, uint64(sp.objects-1))
	} else if sp.zipf {
		g.perm = make([]int32, sp.rows)
		for i, p := range g.wr.rng.Perm(sp.rows) {
			g.perm[i] = int32(p)
		}
		g.zipfR = rand.NewZipf(g.rd.rng, 1.1, 1, uint64(sp.rows-1))
	}

	// Load: one version per object, ids 0..objects-1.
	for o := 0; o < sp.objects; o++ {
		rows := make([]uint32, sp.rows)
		for r := range rows {
			rows[r] = g.newVal()
		}
		sc.load = append(sc.load, rows)
		sc.vers = append(sc.vers, verInfo{obj: int32(o), parents: [2]int32{-1, -1}, seq: 1})
		g.models = append(g.models, map[uint16]*branchModel{
			master: {rows: append([]uint32(nil), rows...), chain: []int32{int32(o)}},
		})
		sc.userBytes += g.rowBytes(sp.rows)
	}
	if sp.objects == 1 {
		g.baseRows = sc.load[0]
	}
	for o := 0; o < sp.hot; o++ {
		for c := 1; c <= sp.collab; c++ {
			sc.forks = append(sc.forks, g.fork(int32(o), uint16(c), master))
		}
	}
	for i := 0; i < sp.history; i++ {
		obj := int32(0)
		if sp.objects > 1 {
			obj = int32(i % sp.hot)
		}
		// Every histScatter-th seeded commit is spread like the workload's
		// own; the rest are clustered, a scattered commit costing a
		// hundred times a clustered one.
		window := 64
		if sp.histScatter > 0 && i%sp.histScatter == 0 {
			window = sp.window
		}
		c := g.commit(obj, master, g.pickRows(sp.commitRows, window, nil))
		if sp.objects == 1 {
			pos := len(g.models[0][master].chain) - 1
			for _, ch := range sc.vers[c.newVer].changes {
				g.histLog[ch.row] = append(g.histLog[ch.row], histWrite{pos: pos, val: ch.to})
			}
		}
		sc.history = append(sc.history, c)
	}

	sc.warm = g.round(sp.scaled(0.25))
	for i := 0; i < sp.rounds; i++ {
		sc.rounds = append(sc.rounds, g.round(sp))
	}
	sc.digest = g.sum()
	return sc
}

func (g *gen) rowBytes(n int) int64 {
	return int64(n) * int64(len(g.rowKeys[0])+g.sp.valLen)
}

// newVal mints a fresh value: a counter so that no two values are equal,
// then random bytes.  REST values are text so they survive JSON.
func (g *gen) newVal() uint32 {
	n := g.sp.valLen
	id := uint32(len(g.arena) / n)
	v := make([]byte, n)
	binary.BigEndian.PutUint32(v, id)
	g.wr.rng.Read(v[4:])
	if g.sp.edge == "rest" {
		v = []byte(base64.RawURLEncoding.EncodeToString(v)[:n])
		copy(v, fmt.Sprintf("%08x", id))
	}
	g.arena = append(g.arena, v...)
	return id
}

// pickRows draws n distinct rows, inside one window of `window` rows or
// anywhere when window is 0, never a row in `not`.
func (g *gen) pickRows(n, window int, not map[int32]bool) []int32 {
	lo, span := 0, g.sp.rows
	if window > 0 && window < g.sp.rows {
		lo, span = g.wr.rng.Intn(g.sp.rows-window), window
	}
	seen := map[int32]bool{}
	out := make([]int32, 0, n)
	for len(out) < n {
		r := int32(lo + g.wr.rng.Intn(span))
		if seen[r] || not[r] {
			continue
		}
		seen[r] = true
		out = append(out, r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func (g *gen) fork(obj int32, id, from uint16) op {
	g.models[obj][id] = g.models[obj][from].fork()
	return op{kind: opBranch, obj: obj, branch: id, src: from, ver: -1}
}

func (g *gen) commit(obj int32, branch uint16, rows []int32) op {
	b := g.models[obj][branch]
	x := &opExtra{rows: rows}
	o := op{kind: opCommit, obj: obj, branch: branch, ver: -1, x: x}
	v := verInfo{obj: obj, parents: [2]int32{b.head(), -1}, seq: g.vers[b.head()].seq + 1}
	for _, r := range rows {
		id := g.newVal()
		x.vals = append(x.vals, id)
		v.changes = append(v.changes, change{row: r, from: b.rows[r], to: id})
		b.rows[r] = id
	}
	o.newVer, o.wantN = int32(len(g.vers)), v.seq
	g.vers = append(g.vers, v)
	b.chain = append(b.chain, o.newVer)
	if g.sp.edge == "rest" {
		// REST has no row edit: the client PUTs the whole object.
		entries := make(map[string]string, len(b.rows))
		for r, id := range b.rows {
			entries[string(g.rowKeys[r])] = string(g.val(id))
		}
		x.body, _ = json.Marshal(map[string]any{"kind": "map", "entries": entries})
		g.userBytes += g.rowBytes(len(b.rows))
	} else {
		g.userBytes += g.rowBytes(len(rows))
	}
	return o
}

func (g *gen) pickObj(p *picker, hotOnly bool) int32 {
	switch {
	case g.sp.objects == 1:
		return 0
	case hotOnly:
		return int32(p.rng.Intn(g.sp.hot))
	default:
		return int32(p.zipfO.Uint64())
	}
}

// pickBranch sends three ops in ten on a hot object to a collaborator
// branch; everything else goes to master.
func (g *gen) pickBranch(p *picker, obj int32) uint16 {
	if int(obj) < g.sp.hot && g.sp.collab > 0 && p.rng.Intn(10) < 3 {
		return uint16(1 + p.rng.Intn(g.sp.collab))
	}
	return master
}

func (g *gen) get() op {
	obj := g.pickObj(&g.rd, false)
	o := op{kind: opGet, obj: obj, branch: g.pickBranch(&g.rd, obj), ver: -1}
	if g.zipfR != nil {
		o.row = g.perm[g.zipfR.Uint64()]
	} else {
		o.row = int32(g.rd.rng.Intn(g.sp.rows))
	}
	b := g.models[obj][o.branch]
	o.wantVal, o.wantHead = b.rows[o.row], b.head()
	if g.sp.histGetPct > 0 && g.rd.rng.Intn(100) < g.sp.histGetPct {
		pos := 1 + g.rd.rng.Intn(g.sp.history)
		o.ver = g.models[0][master].chain[pos]
		o.wantVal = g.baseRows[o.row]
		for _, w := range g.histLog[o.row] {
			if w.pos <= pos {
				o.wantVal = w.val
			}
		}
	}
	return o
}

func (g *gen) scan() op {
	o := op{kind: opScan, branch: master, ver: -1, row: int32(g.rd.rng.Intn(g.sp.rows - g.sp.scanRows))}
	rows := g.models[0][master].rows
	o.x = &opExtra{wantVals: append([]uint32(nil), rows[o.row:int(o.row)+g.sp.scanRows]...)}
	return o
}

// net folds a run of versions into the row changes between its two ends.
func (g *gen) net(vers []int32) []change {
	first := map[int32]uint32{}
	last := map[int32]uint32{}
	for _, v := range vers {
		for _, c := range g.vers[v].changes {
			if _, ok := first[c.row]; !ok {
				first[c.row] = c.from
			}
			last[c.row] = c.to
		}
	}
	var out []change
	for r, f := range first {
		if last[r] != f {
			out = append(out, change{row: r, from: f, to: last[r]})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].row < out[j].row })
	return out
}

func (g *gen) diff() op {
	obj := g.pickObj(&g.wr, true)
	if g.sp.diffBack > 0 {
		// Head against the version diffBack commits behind it.
		chain := g.models[obj][master].chain
		from := len(chain) - 1 - g.sp.diffBack
		return op{kind: opDiff, obj: obj, ver: chain[from], ver2: chain[len(chain)-1],
			x: &opExtra{wantDelta: g.net(chain[from+1:])}}
	}
	// REST diffs branches: a collaborator branch against master.
	o := op{kind: opDiff, obj: obj, branch: uint16(1 + g.wr.rng.Intn(g.sp.collab)), src: master, ver: -1, x: &opExtra{}}
	a, b := g.models[obj][o.branch].rows, g.models[obj][master].rows
	for r := range a {
		if a[r] != b[r] {
			o.x.wantDelta = append(o.x.wantDelta, change{row: int32(r), from: a[r], to: b[r]})
		}
	}
	return o
}

// merge plans branch → mergeSide commits on each side → three-way merge.
// The two sides edit disjoint rows, so the merge never conflicts.
func (g *gen) merge() unit {
	obj := g.pickObj(&g.wr, true)
	id := uint16(len(g.branches))
	g.branches = append(g.branches, fmt.Sprintf("m%d", g.merges))
	g.merges++
	u := unit{ops: []op{g.fork(obj, id, master)}}
	dst := g.models[obj][master]
	forkAt := len(dst.chain)
	taken := map[int32]bool{}
	for _, side := range []uint16{id, master} {
		for i := 0; i < g.sp.mergeSide; i++ {
			rows := g.pickRows(g.sp.commitRows, g.sp.window, taken)
			u.ops = append(u.ops, g.commit(obj, side, rows))
		}
		// One side's rows are off limits to the other.
		for _, o := range u.ops[1:] {
			for _, r := range o.x.rows {
				taken[r] = true
			}
		}
	}
	src := g.models[obj][id]
	theirs, ours := g.net(src.chain[forkAt:]), g.net(dst.chain[forkAt:])
	m := op{kind: opMerge, obj: obj, branch: master, src: id, ver: -1, x: &opExtra{}}
	v := verInfo{obj: obj, parents: [2]int32{dst.head(), src.head()}, changes: theirs}
	v.seq = g.vers[dst.head()].seq
	if s := g.vers[src.head()].seq; s > v.seq {
		v.seq = s
	}
	v.seq++
	for i, c := range theirs {
		theirs[i].from = dst.rows[c.row]
		dst.rows[c.row] = c.to
	}
	m.newVer, m.wantN = int32(len(g.vers)), v.seq
	g.vers = append(g.vers, v)
	dst.chain = append(dst.chain, m.newVer)
	// The merged head must hold the source's rows (read back one by one),
	// or, where rows cannot be read, differ from the source by exactly the
	// destination's own edits.
	if g.sp.edge == "rest" {
		m.x.after = []op{{kind: opDiff, obj: obj, branch: id, src: master, ver: -1, x: &opExtra{wantDelta: ours}}}
	} else {
		for _, c := range theirs {
			m.x.after = append(m.x.after, op{kind: opGet, obj: obj, branch: master, row: c.row, ver: -1, wantVal: c.to, wantHead: m.newVer})
		}
	}
	u.ops = append(u.ops, m)
	return u
}

func (g *gen) historyOp() op {
	obj := g.pickObj(&g.rd, true)
	o := op{kind: opHistory, obj: obj, branch: g.pickBranch(&g.rd, obj), ver: -1, x: &opExtra{}}
	chain := g.models[obj][o.branch].chain
	for i := len(chain) - 1; i >= 0 && len(o.x.wantVers) < 16; i-- {
		o.x.wantVers = append(o.x.wantVers, chain[i])
	}
	return o
}

func (g *gen) verify(pos int) op {
	obj := g.pickObj(&g.wr, true)
	chain := g.models[obj][master].chain
	ver := chain[len(chain)-1]
	if g.sp.objects == 1 {
		ver = chain[pos]
	}
	// Deep verification walks every ancestor, merged-in sides included.
	seen := map[int32]bool{}
	stack := []int32{ver}
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if v < 0 || seen[v] {
			continue
		}
		seen[v] = true
		stack = append(stack, g.vers[v].parents[0], g.vers[v].parents[1])
	}
	return op{kind: opVerify, obj: obj, ver: ver, wantN: int32(len(seen))}
}

// round plans one round: sp's count of each unit in the workload's fixed
// shuffled order, then the verify block.
func (g *gen) round(sp spec) []unit {
	var order []opKind
	add := func(k opKind, n int) {
		for i := 0; i < n; i++ {
			order = append(order, k)
		}
	}
	add(opGet, sp.getBatches)
	add(opScan, sp.scanBatches)
	add(opCommit, sp.commits)
	add(opDiff, sp.diffs)
	add(opMerge, sp.merges)
	add(opHistory, sp.histories)
	g.wr.rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	var units []unit
	for _, k := range order {
		switch k {
		case opGet, opScan:
			u := unit{batch: true, ops: make([]op, batchSize)}
			for i := range u.ops {
				if k == opGet {
					u.ops[i] = g.get()
				} else {
					u.ops[i] = g.scan()
				}
			}
			units = append(units, u)
		case opCommit:
			obj := g.pickObj(&g.wr, false)
			units = append(units, unit{ops: []op{g.commit(obj, g.pickBranch(&g.wr, obj), g.pickRows(sp.commitRows, sp.window, nil))}})
		case opDiff:
			units = append(units, unit{ops: []op{g.diff()}})
		case opMerge:
			units = append(units, g.merge())
		case opHistory:
			units = append(units, unit{ops: []op{g.historyOp()}})
		}
	}
	for _, pos := range sp.verifies {
		units = append(units, unit{ops: []op{g.verify(pos)}})
	}
	return units
}

// sum digests everything the script decided: two runs replay the same
// script exactly when their digests are equal.
func (g *gen) sum() string {
	h := sha256.New()
	var b []byte
	num := func(xs ...int) {
		for _, x := range xs {
			b = binary.LittleEndian.AppendUint64(b, uint64(x))
		}
		if len(b) > 1<<16 {
			h.Write(b)
			b = b[:0]
		}
	}
	i32s := func(xs []int32) {
		num(len(xs))
		for _, x := range xs {
			num(int(x))
		}
	}
	u32s := func(xs []uint32) {
		num(len(xs))
		for _, x := range xs {
			num(int(x))
		}
	}
	changes := func(cs []change) {
		num(len(cs))
		for _, c := range cs {
			num(int(c.row), int(c.from), int(c.to))
		}
	}
	h.Write(g.arena)
	for _, rows := range g.load {
		u32s(rows)
	}
	for _, v := range g.vers {
		num(int(v.obj), int(v.parents[0]), int(v.parents[1]), int(v.seq))
		changes(v.changes)
	}
	var ops func(os []op)
	ops = func(os []op) {
		num(len(os))
		for i := range os {
			o, x := &os[i], os[i].ext()
			num(int(o.kind), int(o.branch), int(o.src), int(o.obj), int(o.row), int(o.ver), int(o.ver2),
				int(o.newVer), int(o.wantVal), int(o.wantHead), int(o.wantN))
			i32s(x.rows)
			u32s(x.vals)
			u32s(x.wantVals)
			changes(x.wantDelta)
			i32s(x.wantVers)
			ops(x.after)
		}
	}
	ops(g.forks)
	ops(g.history)
	for _, rnd := range append([][]unit{g.warm}, g.rounds...) {
		for _, u := range rnd {
			ops(u.ops)
		}
	}
	h.Write(b)
	return hex.EncodeToString(h.Sum(nil))
}
