// Package server implements fpd, the filter-placement daemon: an HTTP/JSON
// service over the fp library built from three layers.
//
//   - A concurrency-safe graph Registry: clients upload edge lists or
//     instantiate any internal/gen generator by name; graphs are immutable
//     and shared across requests, LRU-bounded with per-graph stats. A
//     PATCH upgrades a graph to a dynamic overlay (internal/dyn): batched
//     edge mutations apply atomically, stale cached placements are
//     invalidated, and an optional auto-maintain job refreshes the filter
//     placement incrementally.
//   - An async JobEngine: expensive placements (the async rows of the
//     core strategy table) wait in one FIFO and run, as many at once as
//     the scheduler has workers, with queued/running/done/failed/canceled
//     states, context-based cancellation, and an LRU result cache keyed by
//     (graph, sources, algorithm, k, engine, seed) so repeated queries
//     are O(1). A gang-submitted batch (POST /v1/placements:batch) is
//     ONE job whose sub-placements run on the process-wide internal/sched
//     scheduler with per-graph state, filling per-graph cache slots.
//   - The HTTP API itself — see Routes for the endpoint list.
//
// Everything is stdlib-only; cmd/fpd wires the server to flags, logging
// and graceful shutdown.
package server

import (
	"fmt"
	"log/slog"
	"net/http"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/sched"
)

// Config sizes the server. Zero values pick the documented defaults.
type Config struct {
	// QueueDepth bounds pending jobs (default 64); beyond it Submit
	// returns 503. Gang batches may queue until twice as many are pending.
	QueueDepth int
	// MaxJobs bounds retained job records (default 1024); older terminal
	// jobs are pruned.
	MaxJobs int
	// MaxGraphs bounds the registry (default 32, LRU eviction).
	MaxGraphs int
	// CacheSize bounds the placement result cache (default 256).
	CacheSize int
	// MaxBodyBytes bounds request bodies (default 64 MiB) — edge-list
	// uploads can be large.
	MaxBodyBytes int64
	// MaxParallelism caps the per-placement `parallelism` request field
	// (default GOMAXPROCS); requests asking for more are clamped. It also
	// sets the parallelism of auto-maintain recompute fallbacks.
	MaxParallelism int
	// SchedWorkers resizes the PROCESS-WIDE placement scheduler (the fpd
	// -sched-workers flag): the bounded pool every placement's oracle
	// work — solo, batch or auto-maintain — executes on. 0 leaves the
	// pool at its default (GOMAXPROCS). It is global, not per-Server, but
	// a Server reads it once in New: its size is also how many async jobs
	// that Server runs at once.
	SchedWorkers int
	// Logger receives structured request and job lifecycle logs; nil
	// disables logging. cmd/fpd builds one from -log-level.
	Logger *slog.Logger
	// SlowPlaceThreshold triggers a warn-level log — including the job's
	// stage timeline — for any async job whose run time exceeds it
	// (the fpd -slow-place flag). 0 disables.
	SlowPlaceThreshold time.Duration
	// HistoryInterval is the period of the stats-history sampler feeding
	// GET /v1/stats/history (default 5s).
	HistoryInterval time.Duration
	// HistoryRetention is how far back the stats history reaches (default
	// 15m); the ring holds HistoryRetention/HistoryInterval samples.
	HistoryRetention time.Duration
	// MaxTenants caps the distinct tenants the accountant tracks (default
	// obs.DefaultMaxTenants); names past the cap account to "(overflow)".
	MaxTenants int
	// DisableAccounting turns per-tenant resource accounting off entirely:
	// no accountant is built, /v1/tenants endpoints return 404, and the
	// labeled tenant series are absent from /metrics.
	DisableAccounting bool
	// Version labels the fpd_build_info gauge (default "dev"); cmd/fpd
	// sets it from its build metadata.
	Version string
}

func (c Config) withDefaults() Config {
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.MaxJobs <= 0 {
		c.MaxJobs = 1024
	}
	if c.MaxGraphs <= 0 {
		c.MaxGraphs = 32
	}
	if c.CacheSize <= 0 {
		c.CacheSize = 256
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 64 << 20
	}
	if c.MaxParallelism <= 0 {
		c.MaxParallelism = runtime.GOMAXPROCS(0)
	}
	if c.HistoryInterval <= 0 {
		c.HistoryInterval = 5 * time.Second
	}
	if c.HistoryRetention <= 0 {
		c.HistoryRetention = 15 * time.Minute
	}
	if c.HistoryRetention < c.HistoryInterval {
		c.HistoryRetention = c.HistoryInterval
	}
	if c.Version == "" {
		c.Version = "dev"
	}
	return c
}

// Server is the fpd HTTP handler plus its registry, job engine and result
// cache. Create with New, serve via any http.Server, release with Close.
type Server struct {
	mux            *http.ServeMux
	registry       *Registry
	jobs           *JobEngine
	cache          *resultCache
	flights        *flightTable
	metrics        *Metrics
	obs            *serverObs
	logger         *slog.Logger
	slowPlace      time.Duration
	maxBodyBytes   int64
	maxParallelism int

	// acct aggregates per-tenant resource usage; nil when accounting is
	// disabled (every accounting call is nil-safe).
	acct *obs.Accountant
	// events fans job lifecycle events out to SSE subscribers.
	events *eventBus
	// history is the in-process time-series ring behind /v1/stats/history,
	// fed by a background sampler every historyInterval.
	history          *obs.SeriesRing
	historyInterval  time.Duration
	historyRetention time.Duration
	historyStop      chan struct{}
	historyWG        sync.WaitGroup

	version   string
	closeOnce sync.Once
}

// maxHistorySamples bounds the history ring regardless of configuration:
// a pathological retention/interval ratio must not allocate unbounded
// memory.
const maxHistorySamples = 1 << 16

// New builds a ready-to-serve Server.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	if cfg.SchedWorkers > 0 {
		sched.SetDefaultWorkers(cfg.SchedWorkers)
	}
	m := &Metrics{}
	so := newServerObs()
	var acct *obs.Accountant
	if !cfg.DisableAccounting {
		acct = obs.NewAccountant(cfg.MaxTenants)
	}
	events := newEventBus(m)
	eo := &engineObs{
		queueWait:     so.jobQueueWait,
		runTime:       so.jobRun,
		stageSink:     so.placeStage,
		logger:        cfg.Logger,
		slowThreshold: cfg.SlowPlaceThreshold,
		acct:          acct,
		events:        events,
	}
	capacity := int(cfg.HistoryRetention / cfg.HistoryInterval)
	if capacity < 1 {
		capacity = 1
	}
	if capacity > maxHistorySamples {
		capacity = maxHistorySamples
	}
	cache := newResultCache(cfg.CacheSize, m)
	s := &Server{
		mux:              http.NewServeMux(),
		registry:         NewRegistry(cfg.MaxGraphs, m),
		jobs:             NewJobEngine(sched.Default().Workers(), cfg.QueueDepth, cfg.MaxJobs, m, eo),
		cache:            cache,
		flights:          newFlightTable(),
		metrics:          m,
		obs:              so,
		logger:           cfg.Logger,
		slowPlace:        cfg.SlowPlaceThreshold,
		maxBodyBytes:     cfg.MaxBodyBytes,
		maxParallelism:   cfg.MaxParallelism,
		acct:             acct,
		events:           events,
		history:          obs.NewSeriesRing(capacity),
		historyInterval:  cfg.HistoryInterval,
		historyRetention: cfg.HistoryRetention,
		historyStop:      make(chan struct{}),
		version:          cfg.Version,
	}
	registerTenantSeries(so.reg, acct)
	so.reg.Info("fpd_build_info",
		"Build metadata of the running fpd binary; the value is always 1.",
		map[string]string{"version": cfg.Version, "go_version": runtime.Version()})
	// Route latency is labeled by the REGISTERED pattern, wrapped here at
	// registration time: the outer ServeHTTP never learns which pattern
	// the mux matched, and raw URLs would be unbounded-cardinality labels.
	for pattern, h := range s.Routes() {
		s.mux.HandleFunc(pattern, s.instrument(pattern, h))
	}
	// The queue-wait sampler is a process-wide hook (like SetDefaultWorkers):
	// the most recently created server observes the shared scheduler. The
	// tag a sched.Batch carries is the submitting tenant, so the shared
	// pool's wait time is attributed per tenant as well as in aggregate.
	sched.Default().SetQueueWaitSampler(func(tag string, wait time.Duration) {
		so.schedWait.Observe(wait)
		if tag != "" {
			acct.Tenant(tag).AddSchedWait(wait)
		}
	})
	s.historyWG.Add(1)
	go s.historyLoop()
	return s
}

// instrument wraps one route handler with its latency histogram.
func (s *Server) instrument(pattern string, h http.HandlerFunc) http.HandlerFunc {
	hist := s.obs.httpLat.With(pattern)
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		h(w, r)
		hist.Observe(time.Since(start))
	}
}

// Obs exposes the latency registry (tests and embedders scrape it
// without going through the HTTP endpoint).
func (s *Server) Obs() *obs.Registry { return s.obs.reg }

// Routes maps "METHOD /pattern" to handlers; exported so tests and docs
// stay in sync with the actual surface.
func (s *Server) Routes() map[string]http.HandlerFunc {
	return map[string]http.HandlerFunc{
		"POST /v1/graphs":              s.handleCreateGraph,
		"GET /v1/graphs":               s.handleListGraphs,
		"GET /v1/graphs/{id}":          s.handleGetGraph,
		"DELETE /v1/graphs/{id}":       s.handleDeleteGraph,
		"PATCH /v1/graphs/{id}/edges":  s.handlePatchEdges,
		"POST /v1/graphs/{id}/place":   s.handlePlace,
		"POST /v1/placements:batch":    s.handlePlaceBatch,
		"GET /v1/graphs/{id}/evaluate": s.handleEvaluate,
		"GET /v1/jobs":                 s.handleListJobs,
		"GET /v1/jobs/{id}":            s.handleGetJob,
		"DELETE /v1/jobs/{id}":         s.handleCancelJob,
		"GET /v1/tenants":              s.handleListTenants,
		"GET /v1/tenants/{id}/usage":   s.handleTenantUsage,
		"GET /v1/stats/history":        s.handleStatsHistory,
		"GET /v1/events":               s.handleEvents,
		"GET /healthz":                 s.handleHealthz,
		"GET /readyz":                  s.handleReadyz,
		"GET /metrics":                 s.handleMetrics,
	}
}

// ServeHTTP implements http.Handler: every request is stamped with its
// identity (request id, tenant, trace context) before routing, counted,
// and logged with the identity fields so one token joins the client log,
// the server log and the trace.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.metrics.RequestsTotal.Add(1)
	start := time.Now()
	ri, r, ok := s.stampRequest(w, r)
	if !ok {
		return
	}
	s.acct.Tenant(ri.tenant).AddRequest()
	defer s.recoverHandler(w, r)
	s.mux.ServeHTTP(w, r)
	if s.logger != nil {
		s.logger.Debug("request",
			"method", r.Method,
			"path", r.URL.Path,
			"tenant", ri.tenant,
			"request_id", ri.id,
			"traceparent", ri.trace.String(),
			"dur", time.Since(start).Round(time.Microsecond))
	}
}

// recoverHandler turns a handler panic into a JSON 500 carrying the
// request id, so one faulty request neither kills fpd nor drops the
// connection. http.ErrAbortHandler keeps its meaning: abort the response.
func (s *Server) recoverHandler(w http.ResponseWriter, r *http.Request) {
	p := recover()
	if p == nil {
		return
	}
	if p == http.ErrAbortHandler {
		panic(p)
	}
	if s.logger != nil {
		s.logger.Error("handler panicked", "method", r.Method, "path", r.URL.Path,
			"request_id", requestIDOf(w, r), "panic", p, "stack", string(debug.Stack()))
	}
	s.writeError(w, r, http.StatusInternalServerError, "internal error")
}

// Jobs exposes the job engine (examples use Wait instead of polling).
func (s *Server) Jobs() *JobEngine { return s.jobs }

// Metrics exposes the server's counters.
func (s *Server) Metrics() *Metrics { return s.metrics }

// ShutdownStreams ends every live SSE event stream and refuses new
// subscriptions (503). Call it before draining the HTTP listener: an
// open /v1/events connection would otherwise hold http.Server.Shutdown
// until its grace timeout expires, since SSE handlers only return when
// their subscription channel closes or the client hangs up.
func (s *Server) ShutdownStreams() { s.events.close() }

// Close stops the history sampler, ends every SSE stream, cancels
// running jobs and cancels queued ones. The HTTP listener (owned by
// the caller) should be shut down first. Idempotent.
func (s *Server) Close() {
	s.closeOnce.Do(func() {
		close(s.historyStop)
		s.historyWG.Wait()
		s.events.close()
		s.jobs.Close()
	})
}

func (s *Server) logf(format string, args ...any) {
	if s.logger != nil {
		s.logger.Warn(fmt.Sprintf(format, args...))
	}
}
