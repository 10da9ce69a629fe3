package server

import (
	"log/slog"
	"time"

	"repro/internal/obs"
)

// serverObs bundles the daemon's Prometheus registry and the histogram
// handles the hot paths observe into. New also registers the counter
// ledger and the sampled gauges on it, so one WritePrometheus call is
// the whole exposition.
type serverObs struct {
	reg *obs.Registry
	// httpLat is per-route request latency, labeled by the registered
	// route pattern ("POST /v1/graphs/{id}/place"), not the raw URL —
	// bounded cardinality by construction.
	httpLat *obs.HistogramVec
	// jobQueueWait is the job lifecycle queued→started wait.
	jobQueueWait *obs.Histogram
	// jobRun is the job lifecycle started→finished run time.
	jobRun *obs.Histogram
	// schedWait is the process-wide scheduler's task queue wait, sampled
	// via sched.Pool.SetQueueWaitSampler.
	schedWait *obs.Histogram
	// placeStage is per-stage placement time (greedy-round, naive-round,
	// build-evaluator, coarsen, maintain), fed by each job trace's sink.
	placeStage *obs.HistogramVec
}

func newServerObs() *serverObs {
	reg := obs.NewRegistry()
	return &serverObs{
		reg: reg,
		httpLat: reg.HistogramVec("fpd_http_request_seconds",
			"HTTP request latency by registered route pattern.", "route", nil),
		jobQueueWait: reg.Histogram("fpd_job_queue_wait_seconds",
			"Async job wait from submission to its start.", nil),
		jobRun: reg.Histogram("fpd_job_run_seconds",
			"Async job run time from start to terminal state.", nil),
		schedWait: reg.Histogram("fpd_sched_queue_wait_seconds",
			"Oracle scheduler task wait from submission to execution.", nil),
		placeStage: reg.HistogramVec("fpd_place_stage_seconds",
			"Placement stage durations (greedy rounds, naive rounds, evaluator builds).", "stage", nil),
	}
}

// engineObs is the slice of serverObs the JobEngine needs, plus the slow
// placement log. nil disables all of it (direct library users of
// NewJobEngine without a server).
type engineObs struct {
	queueWait *obs.Histogram
	runTime   *obs.Histogram
	stageSink *obs.HistogramVec
	logger    *slog.Logger
	// slowThreshold triggers a warn-level log with the job's stage
	// timeline when a job's run time exceeds it; 0 disables.
	slowThreshold time.Duration
	// events receives job lifecycle events for the SSE stream; nil (and
	// the publish helper's nil-obs guard) disables it.
	events *eventBus
}
