// Command forkbased runs a ForkBase storage node: a TCP chunk/branch
// service (for forkbase -remote clients and WithFollow replicas) and,
// optionally, the REST API.  The node is a forkbase.DB opened from the flags, serving
// DB.NewServer and, with -http, DB.NewHandler.
//
// A primary publishes its change feed over the same TCP port, so replicas
// can follow it:
//
//	forkbased -listen 127.0.0.1:7450 -dir ./node0 -http 127.0.0.1:8080
//
// A replica follows a primary and serves reads (its own TCP service is
// read-only; its REST API exposes GET /v1/repl/status):
//
//	forkbased -listen 127.0.0.1:7451 -dir ./replica0 -follow 127.0.0.1:7450 -http 127.0.0.1:8081
//
// Observability: every layer reports into one metrics registry, scraped at
// GET /v1/metrics (Prometheus text) or /v1/metrics.json on the REST
// address.  -pprof-addr opens a separate admin listener with
// net/http/pprof and a metrics mirror — keep it loopback-only.
// -stats-interval logs a one-line digest of the registry periodically;
// -slow-op warn-logs any engine op or HTTP request over the threshold with
// its trace ID; -log-level picks the slog floor.
package main

import (
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"forkbase"
	"forkbase/internal/index"
	"forkbase/internal/obs"
	"forkbase/internal/server"
)

// parseLevel maps the -log-level flag to a slog.Level.
func parseLevel(s string) (slog.Level, error) {
	switch strings.ToLower(s) {
	case "debug":
		return slog.LevelDebug, nil
	case "", "info":
		return slog.LevelInfo, nil
	case "warn", "warning":
		return slog.LevelWarn, nil
	case "error":
		return slog.LevelError, nil
	}
	return 0, fmt.Errorf("unknown log level %q (want debug|info|warn|error)", s)
}

// restServer serves the REST API under the TCP service's -read-timeout: a
// request's header and body must arrive, and a kept-alive connection must
// send its next request, within it (0: no deadline).  A client that stalls
// mid-request is disconnected instead of holding a connection open.
func restServer(addr string, h http.Handler, timeout time.Duration) *http.Server {
	return &http.Server{Addr: addr, Handler: h, ReadHeaderTimeout: timeout, ReadTimeout: timeout, IdleTimeout: timeout}
}

func main() {
	listen := flag.String("listen", "127.0.0.1:7450", "TCP address for the chunk/branch service")
	httpAddr := flag.String("http", "", "optional HTTP address for the REST API")
	dir := flag.String("dir", "", "data directory (default: in-memory)")
	follow := flag.String("follow", "", "run as a read replica of the primary at this address")
	indexKind := flag.String("index", "", "index structure for new composite values: pos|mpt (default pos)")
	maxConns := flag.Int("max-conns", 1024, "max concurrent TCP connections (0 = unlimited)")
	readTimeout := flag.Duration("read-timeout", 2*time.Minute, "per-request deadline: waiting for a request (idle timeout) and writing its reply (0 = none)")
	maxLag := flag.Uint64("max-lag", 1024, "replica readiness threshold: max feed entries behind the primary")
	scrubEvery := flag.Duration("scrub-interval", 0, "background disk-scrub period for file-backed nodes (0 = disabled)")
	logLevel := flag.String("log-level", "info", "log floor: debug|info|warn|error")
	pprofAddr := flag.String("pprof-addr", "", "optional admin address serving net/http/pprof and /v1/metrics (keep loopback-only)")
	statsEvery := flag.Duration("stats-interval", 0, "log a one-line metrics digest this often (0 = disabled)")
	slowOp := flag.Duration("slow-op", time.Second, "warn-log engine ops and HTTP requests slower than this (0 = disabled)")
	flag.Parse()

	level, err := parseLevel(*logLevel)
	if err != nil {
		fmt.Fprintln(os.Stderr, "forkbased:", err)
		os.Exit(2)
	}
	logger := slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: level}))
	slog.SetDefault(logger) // package-level counters and libraries log here too
	fatal := func(msg string, args ...any) {
		logger.Error(msg, args...)
		os.Exit(1)
	}

	idx, err := index.ParseKind(*indexKind)
	if err != nil {
		fatal(err.Error())
	}

	opts := []forkbase.Option{
		forkbase.WithIndex(idx), forkbase.WithMetrics(obs.Default()),
		forkbase.WithLogger(logger), forkbase.WithSlowOpThreshold(*slowOp),
	}
	if *dir != "" {
		opts = append(opts, forkbase.FileBacked(*dir))
	}
	if *follow != "" {
		// The follower writes through the engine's verifying store, so every
		// replicated chunk is integrity-checked; the engine, the TCP service
		// and the REST API go read-only — replica state moves only through
		// replication.
		opts = append(opts, forkbase.WithFollow(*follow))
	}
	db, err := forkbase.Open(opts...)
	if err != nil {
		fatal("opening node", "dir", *dir, "primary", *follow, "err", err)
	}
	defer db.Close()
	reg := db.Metrics()

	// One feed serves every write path on this node: head moves through the
	// TCP service (client Apply), through the REST engine, and — on replicas —
	// through the follower all land in the same sequence, so downstream
	// replicas can follow this node no matter how it is written to.
	srv := db.NewServer(logger)
	srv.SetLimits(server.Limits{MaxConns: *maxConns, ReadTimeout: *readTimeout})
	role := "primary"
	if db.Following() {
		role = "replica"
		logger.Info("following primary", "primary", *follow)
	}
	addr, err := srv.Listen(*listen)
	if err != nil {
		fatal("listen", "addr", *listen, "err", err)
	}
	logger.Info("chunk/branch service up", "role", role, "addr", addr)

	// Background disk scrub: every interval, rehash the store's on-disk
	// chunks and quarantine damage.  Replicas additionally self-heal — lost
	// chunks are refetched from the primary, verified, and landed back, so
	// the detect → quarantine → repair loop closes without an operator.
	if *scrubEvery > 0 {
		if *dir == "" {
			logger.Warn("scrub-interval ignored: in-memory store has no disk to scrub")
		} else {
			go func() {
				tick := time.NewTicker(*scrubEvery)
				defer tick.Stop()
				for range tick.C {
					scr, err := db.Scrub()
					if err != nil {
						logger.Error("scrub failed", "err", err)
						continue
					}
					if scr.Corrupt+scr.Torn+scr.Unreadable > 0 {
						logger.Warn("scrub quarantined damage",
							"quarantined_segments", scr.QuarantinedSegments,
							"corrupt", scr.Corrupt, "torn", scr.Torn,
							"unreadable", scr.Unreadable,
							"rescued", scr.Rescued, "lost", len(scr.Lost))
					}
					if db.StoreHealth() == nil || !db.Following() {
						continue
					}
					hs, err := db.Heal(nil) // from the primary it follows
					if err != nil {
						logger.Error("heal failed", "err", err)
						continue
					}
					if hs.Repaired > 0 {
						logger.Info("healed from primary",
							"repaired_chunks", hs.Repaired, "bytes", hs.BytesFetched)
					}
				}
			}()
			logger.Info("disk scrub enabled", "interval", *scrubEvery)
		}
	}

	// Periodic one-line digest: liveness proof in the logs plus the handful
	// of counters an operator greps for before reaching for /v1/metrics.
	if *statsEvery > 0 {
		go func() {
			tick := time.NewTicker(*statsEvery)
			defer tick.Stop()
			for range tick.C {
				s := db.Stats()
				args := []any{
					"engine_ops", int64(reg.Sum("forkbase_engine_ops_total")),
					"engine_errors", int64(reg.Sum("forkbase_engine_errors_total")),
					"server_requests", int64(reg.Sum("forkbase_server_requests_total")),
					"http_requests", int64(reg.Sum("forkbase_http_requests_total")),
					"cache_hits", int64(reg.Sum("forkbase_cache_hits_total")),
					"cache_misses", int64(reg.Sum("forkbase_cache_misses_total")),
					"unique_chunks", s.UniqueChunks,
					"physical_bytes", s.PhysicalBytes,
				}
				if db.Following() {
					if lag, err := db.FeedLag(); err == nil {
						args = append(args, "repl_lag", lag)
					} else {
						args = append(args, "repl_lag_err", err.Error())
					}
				}
				logger.Info("stats", args...)
			}
		}()
	}

	// Admin listener: pprof plus a metrics mirror, on its own address so the
	// profiler is never exposed where the REST API is.  Handlers are wired
	// explicitly — importing net/http/pprof for its DefaultServeMux side
	// effect would leak profiling onto any future default-mux listener.
	if *pprofAddr != "" {
		admin := http.NewServeMux()
		admin.HandleFunc("/debug/pprof/", pprof.Index)
		admin.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		admin.HandleFunc("/debug/pprof/profile", pprof.Profile)
		admin.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		admin.HandleFunc("/debug/pprof/trace", pprof.Trace)
		admin.HandleFunc("/v1/metrics", func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
			_ = reg.WritePrometheus(w)
		})
		go func() {
			logger.Info("admin/pprof listener up", "addr", *pprofAddr)
			if err := http.ListenAndServe(*pprofAddr, admin); err != nil {
				fatal("pprof listener", "err", err)
			}
		}()
	}

	if *httpAddr != "" {
		h := db.NewHandler().WithLogger(logger).WithSlowRequest(*slowOp)
		if db.Following() {
			// Readiness = synced within the lag threshold; a partitioned or
			// badly lagging replica answers healthz with 503 so load
			// balancers drain it instead of serving stale reads.
			h.WithReadiness(func() (bool, string) {
				lag, err := db.FeedLag()
				if err != nil {
					return false, fmt.Sprintf("cannot reach primary: %v", err)
				}
				if lag > *maxLag {
					return false, fmt.Sprintf("lagging %d entries (threshold %d)", lag, *maxLag)
				}
				return true, ""
			})
		}
		go func() {
			logger.Info("REST API up", "addr", *httpAddr)
			if err := restServer(*httpAddr, h, *readTimeout).ListenAndServe(); err != nil {
				fatal("http listener", "err", err)
			}
		}()
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	logger.Info("shutting down")
	srv.Close()
}
