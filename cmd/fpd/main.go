// Command fpd is the filter-placement daemon: a long-running HTTP/JSON
// service over the fp library. It keeps an LRU-bounded registry of uploaded
// or generated communication graphs, answers cheap placement heuristics
// synchronously, runs expensive greedy placements as queued async jobs
// with a result cache, and serves dynamic graphs: PATCHed edge mutations
// apply atomically with incremental topological-order maintenance, stale
// cached placements are invalidated, and an optional auto-maintain job
// refreshes the filter placement incrementally (internal/dyn).
//
// Usage:
//
//	fpd -addr :8080 -sched-workers 8 -max-graphs 64 -cache-size 512
//
// Endpoints (see internal/server for the full API):
//
//	POST   /v1/graphs                upload an edge list or generator spec
//	GET    /v1/graphs/{id}           graph info and stats
//	PATCH  /v1/graphs/{id}/edges     mutate edges; optional auto-maintain
//	POST   /v1/graphs/{id}/place     place filters (202 + job for greedy)
//	POST   /v1/placements:batch      gang-place one spec over many graphs
//	GET    /v1/graphs/{id}/evaluate  Φ and FR for an explicit filter set
//	GET    /v1/jobs/{id}             poll an async placement or maintain job
//	DELETE /v1/jobs/{id}             cancel a job
//	GET    /v1/tenants               per-tenant resource usage (all tenants)
//	GET    /v1/tenants/{id}/usage    one tenant's accumulated usage
//	GET    /v1/stats/history         recent metrics samples (ring buffer)
//	GET    /v1/events                live job-lifecycle events (SSE)
//	GET    /healthz, /readyz         liveness and readiness
//	GET    /metrics                  counters, gauges, histograms
//
// All placement work — solo jobs, gang batches, auto-maintain recomputes —
// executes on one process-wide work-stealing scheduler sized by
// -sched-workers, so concurrent placements share a bounded pool instead
// of spawning goroutines per call. The same number caps how many async
// jobs run at once; up to -queue more wait in one FIFO (gang batches get
// twice that room).
//
// Observability: /metrics serves JSON by default and the Prometheus text
// format for scrapers (?format=prometheus or Accept: text/plain),
// including latency histograms for HTTP routes, job queue wait and run
// time, scheduler queue wait, and placement stages. -log-level selects
// structured (slog) log verbosity, -slow-place logs the stage timeline of
// any job running longer than the threshold, and -pprof exposes the
// runtime profiler under /debug/pprof/.
//
// SIGINT/SIGTERM trigger a graceful shutdown: the listener drains, running
// jobs are canceled, and queued jobs end canceled without running.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/server"
)

// version labels the fpd_build_info metric; release builds override it via
// -ldflags "-X main.version=v1.2.3".
var version = "dev"

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stderr); err != nil {
		fmt.Fprintf(os.Stderr, "fpd: %v\n", err)
		os.Exit(1)
	}
}

// run starts the daemon and blocks until ctx is canceled or the listener
// fails. It is main() minus process concerns, so tests can drive it.
func run(ctx context.Context, args []string, stderr io.Writer) error {
	fs := flag.NewFlagSet("fpd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr      = fs.String("addr", ":8080", "listen address")
		queue     = fs.Int("queue", 64, "pending-job queue depth")
		maxJobs   = fs.Int("max-jobs", 1024, "retained job records (older terminal jobs are pruned)")
		maxGraphs = fs.Int("max-graphs", 32, "graph registry capacity (LRU)")
		cacheSize = fs.Int("cache-size", 256, "placement result cache capacity (LRU)")
		maxPar    = fs.Int("max-parallelism", 0, "cap on the per-placement 'parallelism' request field (0: GOMAXPROCS)")
		schedW    = fs.Int("sched-workers", 0, "process-wide placement scheduler pool size shared by all jobs, and the number of async jobs run at once (0: GOMAXPROCS)")
		grace     = fs.Duration("grace", 10*time.Second, "graceful shutdown timeout")
		logLevel  = fs.String("log-level", "info", "log level: debug, info, warn, error (debug includes per-request logs)")
		slowPlace = fs.Duration("slow-place", 0, "warn with the stage timeline when a job's run exceeds this (0: disabled)")
		withPprof = fs.Bool("pprof", false, "expose net/http/pprof under /debug/pprof/")
		quiet     = fs.Bool("q", false, "disable logging (same as -log-level above error)")
		histIvl   = fs.Duration("history-interval", 5*time.Second, "stats-history sampling period (/v1/stats/history)")
		histRet   = fs.Duration("history-retention", 15*time.Minute, "stats-history retention window")
		maxTen    = fs.Int("max-tenants", 0, "distinct tenants tracked by per-tenant accounting (0: default cap; extras fold into \"(overflow)\")")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	level, err := parseLevel(*logLevel)
	if err != nil {
		return err
	}
	logger := slog.New(slog.NewTextHandler(stderr, &slog.HandlerOptions{Level: level}))
	reqLogger := logger
	if *quiet {
		reqLogger = nil
	}

	srv := server.New(server.Config{
		QueueDepth:         *queue,
		MaxJobs:            *maxJobs,
		MaxGraphs:          *maxGraphs,
		CacheSize:          *cacheSize,
		MaxParallelism:     *maxPar,
		SchedWorkers:       *schedW,
		Logger:             reqLogger,
		SlowPlaceThreshold: *slowPlace,
		HistoryInterval:    *histIvl,
		HistoryRetention:   *histRet,
		MaxTenants:         *maxTen,
		Version:            version,
	})
	defer srv.Close()

	var handler http.Handler = srv
	if *withPprof {
		// Explicit registrations on a private mux — importing the pprof
		// package for its side effect would pollute http.DefaultServeMux
		// for every embedder of this package.
		mux := http.NewServeMux()
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		mux.Handle("/", srv)
		handler = mux
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	httpSrv := &http.Server{Handler: handler}
	logger.Info("fpd: listening", "addr", ln.Addr().String(), "pprof", *withPprof)

	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(ln) }()

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	logger.Info("fpd: shutting down")
	// End live event streams first: an open SSE connection would hold
	// Shutdown's drain until the grace timeout.
	srv.ShutdownStreams()
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *grace)
	defer cancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		return err
	}
	return nil
}

// parseLevel maps the -log-level flag onto a slog level.
func parseLevel(s string) (slog.Level, error) {
	switch s {
	case "debug":
		return slog.LevelDebug, nil
	case "info":
		return slog.LevelInfo, nil
	case "warn":
		return slog.LevelWarn, nil
	case "error":
		return slog.LevelError, nil
	}
	return 0, fmt.Errorf("unknown -log-level %q (have debug, info, warn, error)", s)
}
