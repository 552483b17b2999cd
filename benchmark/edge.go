package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"

	"forkbase/internal/core"
	"forkbase/internal/hash"
	"forkbase/internal/index"
	"forkbase/internal/value"
)

// result is what one op brought back, kept as returned so that comparing it
// against the script's expectation happens after the clock has stopped.
type result struct {
	err    error
	val    []byte
	uid    hash.Hash
	n      int
	vals   [][]byte // scan: values in key order
	keys   [][]byte // scan: keys in key order
	deltas []index.Delta
	uids   []hash.Hash
}

func (r *result) reset() {
	r.err, r.val, r.uid, r.n = nil, nil, hash.Hash{}, 0
	r.vals, r.keys, r.deltas, r.uids = r.vals[:0], r.keys[:0], nil, r.uids[:0]
}

// edge is how a workload's client reaches the store: the engine API
// (embedded, or over the TCP client's remote store) or HTTP.
type edge interface {
	// load bulk-loads every object and returns the uids of the versions made.
	load() ([]hash.Hash, error)
	// do runs one op; uids maps the script's version ids to real uids.
	do(o *op, uids []hash.Hash, r *result)
}

// ---- engine edge ------------------------------------------------------------

type engineEdge struct {
	db *core.DB
	sc *script
	t  *tracer // non-nil in the traced run: ops are issued as their public steps, each in a span
}

func (e *engineEdge) load() ([]hash.Hash, error) {
	sc := e.sc
	var out []hash.Hash
	for o, rows := range sc.load {
		entries := make([]index.Entry, len(rows))
		for r, id := range rows {
			entries[r] = index.Entry{Key: sc.rowKeys[r], Val: sc.val(id)}
		}
		v, err := e.db.BuildAndPut(sc.objKeys[o], sc.branches[master], nil, func() (value.Value, error) {
			return e.db.NewMapValue(entries)
		})
		if err != nil {
			return nil, err
		}
		out = append(out, v.UID)
	}
	return out, nil
}

// version resolves the version an op reads: a branch head or a historical uid.
func (e *engineEdge) version(o *op, uids []hash.Hash) (core.Version, error) {
	st := e.t.start()
	var v core.Version
	var err error
	if o.ver >= 0 {
		v, err = e.db.GetVersion(e.sc.objKeys[o.obj], uids[o.ver])
		e.t.end("core.get_version", "core", st)
	} else {
		v, err = e.db.Get(e.sc.objKeys[o.obj], e.sc.branches[o.branch])
		e.t.end("core.head_get", "core", st)
	}
	return v, err
}

func (e *engineEdge) indexOf(v core.Version) (index.VersionedIndex, error) {
	st := e.t.start()
	ix, err := e.db.IndexOf(v)
	e.t.end("index.open", "index", st)
	return ix, err
}

func (e *engineEdge) do(o *op, uids []hash.Hash, r *result) {
	key, x := e.sc.objKeys[o.obj], o.ext()
	branch, src := e.sc.branches[o.branch], e.sc.branches[o.src]
	switch o.kind {
	case opGet:
		v, err := e.version(o, uids)
		if err != nil {
			r.err = err
			return
		}
		ix, err := e.indexOf(v)
		if err != nil {
			r.err = err
			return
		}
		st := e.t.start()
		r.val, r.err = ix.Get(e.sc.rowKeys[o.row])
		e.t.end("index.get", "index", st)
		r.uid = v.UID
	case opScan:
		v, err := e.version(o, uids)
		if err != nil {
			r.err = err
			return
		}
		ix, err := e.indexOf(v)
		if err != nil {
			r.err = err
			return
		}
		st := e.t.start()
		it, err := ix.IterateFrom(e.sc.rowKeys[o.row])
		if err == nil {
			for len(r.vals) < len(x.wantVals) && it.Next() {
				en := it.Entry()
				r.keys, r.vals = append(r.keys, en.Key), append(r.vals, en.Val)
			}
			err = it.Err()
		}
		e.t.end("index.scan", "index", st)
		r.err = err
	case opCommit:
		puts := make([]index.Entry, len(x.rows))
		for i, row := range x.rows {
			puts[i] = index.Entry{Key: e.sc.rowKeys[row], Val: e.sc.val(x.vals[i])}
		}
		var v core.Version
		if e.t == nil {
			v, r.err = e.db.EditMap(key, branch, puts, nil, nil)
		} else {
			v, r.err = e.commitSteps(o, key, puts)
		}
		r.uid, r.n = v.UID, int(v.Seq)
	case opDiff:
		if o.ver < 0 {
			r.deltas, _, r.err = e.db.DiffBranches(key, branch, src)
			return
		}
		if e.t == nil {
			r.deltas, _, r.err = e.db.Diff(key, uids[o.ver], uids[o.ver2])
			return
		}
		r.deltas, r.err = e.diffSteps(key, uids[o.ver], uids[o.ver2])
	case opBranch:
		st := e.t.start()
		r.err = e.db.Branch(key, branch, src)
		e.t.end("core.branch", "core", st)
	case opMerge:
		st := e.t.start()
		m, err := e.db.Merge(key, branch, src, nil, nil)
		e.t.end("core.merge", "core", st)
		r.err, r.uid, r.n = err, m.Version.UID, int(m.Version.Seq)
	case opHistory:
		st := e.t.start()
		vs, err := e.db.History(key, branch, len(x.wantVers))
		e.t.end("core.history", "core", st)
		r.err = err
		for _, v := range vs {
			r.uids = append(r.uids, v.UID)
		}
	case opVerify:
		st := e.t.start()
		rep, err := e.db.VerifyVersion(key, uids[o.ver], true)
		e.t.end("core.verify", "core", st)
		r.err, r.n = err, rep.VersionsChecked
		if err == nil && !rep.OK {
			r.err = errors.New("verify: report not OK")
		}
	}
}

// commitSteps is EditMap spelled as the public calls it is made of, so the
// traced run can time the engine and the index apart.  It makes the same
// store and branch-table calls EditMap does.
func (e *engineEdge) commitSteps(o *op, key string, puts []index.Entry) (core.Version, error) {
	cur, err := e.version(o, nil)
	if err != nil {
		return core.Version{}, err
	}
	ix, err := e.indexOf(cur)
	if err != nil {
		return core.Version{}, err
	}
	ops := make([]index.Op, len(puts))
	for i, p := range puts {
		ops[i] = index.Put(p.Key, p.Val)
	}
	st := e.t.start()
	edited, err := ix.Apply(ops)
	e.t.end("index.apply", "index", st)
	if err != nil {
		return core.Version{}, err
	}
	st = e.t.start()
	v, err := e.db.Put(key, e.sc.branches[o.branch], value.FromIndex(cur.Value.Kind(), edited), nil)
	e.t.end("core.put", "core", st)
	return v, err
}

// diffSteps is DB.Diff as its public steps.
func (e *engineEdge) diffSteps(key string, from, to hash.Hash) ([]index.Delta, error) {
	var ixs [2]index.VersionedIndex
	for i, uid := range []hash.Hash{from, to} {
		st := e.t.start()
		v, err := e.db.GetVersion(key, uid)
		e.t.end("core.get_version", "core", st)
		if err != nil {
			return nil, err
		}
		if ixs[i], err = e.indexOf(v); err != nil {
			return nil, err
		}
	}
	st := e.t.start()
	d, _, err := ixs[0].DiffWith(ixs[1])
	e.t.end("index.diff", "index", st)
	return d, err
}

// ---- REST edge --------------------------------------------------------------

type restEdge struct {
	base string
	hc   *http.Client
	sc   *script
}

type restVersion struct {
	UID   string `json:"uid"`
	Seq   int    `json:"seq"`
	Count int    `json:"count"`
}

// call makes one request and decodes the JSON reply into out.
func (e *restEdge) call(method, path string, body []byte, out any) error {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, e.base+path, rd)
	if err != nil {
		return err
	}
	resp, err := e.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		return fmt.Errorf("%s %s: %s: %s", method, path, resp.Status, bytes.TrimSpace(data))
	}
	return json.Unmarshal(data, out)
}

func (e *restEdge) load() ([]hash.Hash, error) {
	sc := e.sc
	var out []hash.Hash
	const per = 250
	for lo := 0; lo < len(sc.load); lo += per {
		hi := lo + per
		if hi > len(sc.load) {
			hi = len(sc.load)
		}
		var ops []map[string]any
		for o := lo; o < hi; o++ {
			entries := map[string]string{}
			for r, id := range sc.load[o] {
				entries[string(sc.rowKeys[r])] = string(sc.val(id))
			}
			ops = append(ops, map[string]any{"key": sc.objKeys[o], "kind": "map", "entries": entries})
		}
		body, _ := json.Marshal(map[string]any{"ops": ops})
		var resp struct {
			Versions []restVersion `json:"versions"`
		}
		if err := e.call(http.MethodPost, "/v1/batch", body, &resp); err != nil {
			return nil, err
		}
		for _, v := range resp.Versions {
			uid, err := hash.Parse(v.UID)
			if err != nil {
				return nil, err
			}
			out = append(out, uid)
		}
	}
	return out, nil
}

func (e *restEdge) do(o *op, uids []hash.Hash, r *result) {
	obj, x := "/v1/obj/"+e.sc.objKeys[o.obj], o.ext()
	branch, src := e.sc.branches[o.branch], e.sc.branches[o.src]
	q := "?branch=" + url.QueryEscape(branch)
	var v restVersion
	switch o.kind {
	case opGet:
		r.err = e.call(http.MethodGet, obj+q, nil, &v)
		r.n = v.Count
	case opCommit:
		r.err = e.call(http.MethodPut, obj+q, x.body, &v)
		r.n = v.Seq
	case opDiff:
		var resp struct {
			Deltas []struct{ Key, From, To string } `json:"deltas"`
		}
		r.err = e.call(http.MethodGet, obj+"/diff?from="+url.QueryEscape(branch)+"&to="+url.QueryEscape(src), nil, &resp)
		for _, d := range resp.Deltas {
			r.deltas = append(r.deltas, index.Delta{Key: []byte(d.Key), From: []byte(d.From), To: []byte(d.To)})
		}
		return
	case opBranch:
		body, _ := json.Marshal(map[string]string{"new": branch, "from": src})
		var resp map[string]string
		r.err = e.call(http.MethodPost, obj+"/branch", body, &resp)
		return
	case opMerge:
		body, _ := json.Marshal(map[string]string{"into": branch, "from": src})
		var resp struct {
			Version restVersion `json:"version"`
		}
		r.err = e.call(http.MethodPost, obj+"/merge", body, &resp)
		v, r.n = resp.Version, resp.Version.Seq
	case opHistory:
		var resp struct {
			History []restVersion `json:"history"`
		}
		r.err = e.call(http.MethodGet, fmt.Sprintf("%s/history%s&limit=%d", obj, q, len(x.wantVers)), nil, &resp)
		for _, h := range resp.History {
			uid, err := hash.Parse(h.UID)
			if err != nil {
				r.err = err
			}
			r.uids = append(r.uids, uid)
		}
		return
	case opVerify:
		var resp struct {
			OK       bool `json:"ok"`
			Versions int  `json:"versions_checked"`
		}
		r.err = e.call(http.MethodGet, obj+"/verify?deep=1&uid="+uids[o.ver].String(), nil, &resp)
		r.n = resp.Versions
		if r.err == nil && !resp.OK {
			r.err = errors.New("verify: report not OK")
		}
		return
	default:
		r.err = fmt.Errorf("rest edge has no %s op", o.kind)
		return
	}
	if r.err == nil {
		r.uid, r.err = hash.Parse(v.UID)
	}
}
