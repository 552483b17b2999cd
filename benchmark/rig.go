package main

import (
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"forkbase/internal/core"
	"forkbase/internal/obs"
	"forkbase/internal/repl"
	"forkbase/internal/rest"
	"forkbase/internal/server"
	"forkbase/internal/store"
)

// rig is one assembled system under test: the store on disk, the serving
// edge in front of it and the client the script is replayed through.
type rig struct {
	edge edge
	fs   *store.FileStore
	dir  string
	// heads is the primary's branch table, read when checking a follower.
	heads core.BranchTable
	// eng is the engine the client's reads go through (the client engine
	// over TCP, the serving engine behind REST); its registry counts the
	// chunk bytes read, which is what a verify validates.
	eng *core.DB
	reg *obs.Registry
	// source opens a replication source the way a follower of this
	// deployment would; closing it releases its connection.
	source func() (repl.Source, func(), error)

	closers []func()
}

func (r *rig) close() {
	for i := len(r.closers) - 1; i >= 0; i-- {
		r.closers[i]()
	}
}

// quietLogger keeps slow-op warnings (they explain an odd round) and drops
// the rest.
func quietLogger() *slog.Logger {
	return slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: slog.LevelWarn}))
}

// buildRig assembles sp's deployment in dir.  With a tracer, every layer
// boundary the harness can reach is wrapped in spans; without one nothing
// is wrapped.
func buildRig(sp spec, sc *script, dir string, t *tracer) (*rig, error) {
	fs, err := store.OpenFileStore(dir) // SyncNone, the library default
	if err != nil {
		return nil, err
	}
	r := &rig{fs: fs, dir: dir}
	r.closers = append(r.closers, func() { fs.Close() })
	bt, err := core.OpenFileBranchTable(dir)
	if err != nil {
		r.close()
		return nil, err
	}
	var st store.Store = fs
	var heads core.BranchTable = bt
	if t != nil {
		st = t.wrapStore(fs, "store", "store")
		heads = t.wrapHeads(bt, "core", "heads", filepath.Join(dir, "branches.json"))
	}
	r.heads = bt

	if sp.edge == "embed" {
		r.reg = obs.NewRegistry()
		r.eng = core.Open(core.Options{Store: st, Branches: heads, NodeCacheBytes: sp.cacheBytes, Metrics: r.reg, Logger: quietLogger()})
		r.closers = append(r.closers, func() { r.eng.Close() })
		r.edge = &engineEdge{db: r.eng, sc: sc, t: t}
		r.source = func() (repl.Source, func(), error) { return repl.NewLocalSource(r.eng), func() {}, nil }
		return r, nil
	}

	// The serving side, wired as cmd/forkbased wires it: one feed shared by
	// the TCP service and the engine (opened, as there, without a node
	// cache), metrics on, the same limits.
	logger := quietLogger()
	sreg := obs.NewRegistry()
	feed := core.NewFeed(0)
	shared := core.WithFeed(heads, feed)
	srvEng := core.Open(core.Options{Store: st, Branches: shared, Metrics: sreg, Logger: logger, SlowOp: time.Second})
	r.closers = append(r.closers, func() { srvEng.Close() })
	srv := server.New(st, shared, logger)
	srv.SetMetrics(sreg)
	srv.AttachFeed(feed)
	srv.SetLimits(server.Limits{MaxConns: 1024, ReadTimeout: 2 * time.Minute})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		r.close()
		return nil, err
	}
	r.closers = append(r.closers, func() { srv.Close() })
	r.source = func() (repl.Source, func(), error) {
		cli, err := server.Dial(addr)
		if err != nil {
			return nil, nil, err
		}
		return repl.NewRemoteSource(cli), func() { cli.Close() }, nil
	}

	if sp.edge == "tcp" {
		cli, err := server.Dial(addr)
		if err != nil {
			r.close()
			return nil, err
		}
		r.closers = append(r.closers, func() { cli.Close() })
		var rs store.Store = server.NewRemoteStore(cli)
		var rb core.BranchTable = server.NewRemoteBranchTable(cli)
		if t != nil {
			rs = t.wrapStore(rs, "server", "server.rt")
			rb = t.wrapHeads(rb, "server", "server.rt", "")
		}
		r.reg = obs.NewRegistry()
		r.eng = core.Open(core.Options{Store: rs, Branches: rb, NodeCacheBytes: sp.cacheBytes, Metrics: r.reg, Logger: logger})
		r.closers = append(r.closers, func() { r.eng.Close() })
		r.edge = &engineEdge{db: r.eng, sc: sc, t: t}
		return r, nil
	}

	// REST on a real http.Server next to the TCP service, as forkbased -http.
	var h http.Handler = rest.New(srvEng).WithLogger(logger).WithSlowRequest(time.Second).WithScrubber(fs)
	if t != nil {
		h = t.wrapHandler(h)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		r.close()
		return nil, err
	}
	hs := &http.Server{Handler: h, ErrorLog: slog.NewLogLogger(slog.NewTextHandler(io.Discard, nil), slog.LevelError)}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = hs.Serve(ln)
	}()
	r.closers = append(r.closers, func() {
		hs.Close()
		<-done
	})
	tr := &http.Transport{MaxIdleConnsPerHost: 1, DisableCompression: true}
	r.closers = append(r.closers, tr.CloseIdleConnections)
	r.eng, r.reg = srvEng, sreg
	r.edge = &restEdge{base: "http://" + ln.Addr().String(), hc: &http.Client{Transport: tr}, sc: sc}
	return r, nil
}
