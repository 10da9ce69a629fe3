package server

import (
	"log/slog"
	"time"

	"repro/internal/obs"
)

// serverObs bundles the daemon's latency instrumentation: an obs.Registry
// holding every histogram, plus direct handles the hot paths observe
// into. Counters and sampled gauges stay in Metrics/MetricsSnapshot —
// the registry carries only time distributions; /metrics merges both
// into one Prometheus exposition.
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
	// placeStage is per-stage placement time (greedy-round, celf-init,
	// celf-recheck, naive-round, build-evaluator, coarsen, refine,
	// maintain), fed by each job trace's sink.
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
			"Placement stage durations (greedy rounds, CELF init/rechecks, evaluator builds).", "stage", nil),
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
	// acct receives per-tenant job accounting (queue wait, run time,
	// outcomes); nil disables tenant accounting.
	acct *obs.Accountant
	// events receives job lifecycle events for the SSE stream; nil (and
	// the publish helper's nil-obs guard) disables it.
	events *eventBus
}

// tenantSeries describes one per-tenant Prometheus family: its metric
// name, help text, kind, and which TenantUsage field it samples.
var tenantSeries = []struct {
	name, help, kind string
	value            func(u obs.TenantUsage) float64
}{
	{"fpd_tenant_requests_total", "HTTP requests attributed to the tenant.", "counter",
		func(u obs.TenantUsage) float64 { return float64(u.Requests) }},
	{"fpd_tenant_jobs_submitted_total", "Async jobs submitted by the tenant.", "counter",
		func(u obs.TenantUsage) float64 { return float64(u.JobsSubmitted) }},
	{"fpd_tenant_jobs_completed_total", "Tenant jobs that finished successfully.", "counter",
		func(u obs.TenantUsage) float64 { return float64(u.JobsCompleted) }},
	{"fpd_tenant_jobs_failed_total", "Tenant jobs that finished in error.", "counter",
		func(u obs.TenantUsage) float64 { return float64(u.JobsFailed) }},
	{"fpd_tenant_jobs_canceled_total", "Tenant jobs that were canceled.", "counter",
		func(u obs.TenantUsage) float64 { return float64(u.JobsCanceled) }},
	{"fpd_tenant_placements_total", "Placements executed on behalf of the tenant.", "counter",
		func(u obs.TenantUsage) float64 { return float64(u.Placements) }},
	{"fpd_tenant_oracle_evaluations_total", "Marginal-gain oracle evaluations spent for the tenant.", "counter",
		func(u obs.TenantUsage) float64 { return float64(u.OracleEvaluations) }},
	{"fpd_tenant_sampled_evaluations_total", "Sampled (approximate-engine) gain estimates spent for the tenant.", "counter",
		func(u obs.TenantUsage) float64 { return float64(u.SampledEvaluations) }},
	{"fpd_tenant_forward_passes_total", "Forward topological passes executed for the tenant.", "counter",
		func(u obs.TenantUsage) float64 { return float64(u.ForwardPasses) }},
	{"fpd_tenant_suffix_passes_total", "Suffix topological passes executed for the tenant.", "counter",
		func(u obs.TenantUsage) float64 { return float64(u.SuffixPasses) }},
	{"fpd_tenant_cache_hits_total", "Result-cache hits for the tenant's placement requests.", "counter",
		func(u obs.TenantUsage) float64 { return float64(u.CacheHits) }},
	{"fpd_tenant_cache_misses_total", "Result-cache misses for the tenant's placement requests.", "counter",
		func(u obs.TenantUsage) float64 { return float64(u.CacheMisses) }},
	{"fpd_tenant_job_queue_wait_seconds_total", "Total time the tenant's jobs spent queued.", "counter",
		func(u obs.TenantUsage) float64 { return u.JobQueueWaitSeconds }},
	{"fpd_tenant_job_run_seconds_total", "Total wall time the tenant's jobs spent running.", "counter",
		func(u obs.TenantUsage) float64 { return u.JobRunSeconds }},
	{"fpd_tenant_sched_queue_wait_seconds_total", "Total scheduler queue wait of the tenant's oracle tasks.", "counter",
		func(u obs.TenantUsage) float64 { return u.SchedQueueWaitSeconds }},
	{"fpd_tenant_sched_tasks_total", "Scheduler tasks executed for the tenant.", "counter",
		func(u obs.TenantUsage) float64 { return float64(u.SchedTasks) }},
	{"fpd_tenant_plan_splices_total", "Execution plans spliced incrementally for the tenant's PATCH batches.", "counter",
		func(u obs.TenantUsage) float64 { return float64(u.PlanSplices) }},
	{"fpd_tenant_plan_rebuilds_total", "Execution plans rebuilt from scratch for the tenant's PATCH batches.", "counter",
		func(u obs.TenantUsage) float64 { return float64(u.PlanRebuilds) }},
	{"fpd_tenant_plan_repair_work_total", "Abstract plan-repair cost (visits + moves + CSR rows) charged to the tenant.", "counter",
		func(u obs.TenantUsage) float64 { return float64(u.PlanRepairWork) }},
	{"fpd_tenant_coarsen_placements_total", "Multilevel (coarsened) placements executed for the tenant.", "counter",
		func(u obs.TenantUsage) float64 { return float64(u.CoarsenPlacements) }},
	{"fpd_tenant_coarsen_nodes_contracted_total", "Nodes removed by graph coarsening in the tenant's multilevel placements.", "counter",
		func(u obs.TenantUsage) float64 { return float64(u.CoarsenNodesContracted) }},
}

// registerTenantSeries exposes the accountant as labeled Prometheus
// families: one accountant snapshot per family per scrape (snapshots are
// a read-locked copy of at most MaxTenants entries, so the scrape cost
// is bounded by construction).
func registerTenantSeries(reg *obs.Registry, acct *obs.Accountant) {
	if acct == nil {
		return
	}
	for _, ts := range tenantSeries {
		value := ts.value
		fn := func() []obs.LabeledValue {
			snap := acct.Snapshot()
			out := make([]obs.LabeledValue, len(snap))
			for i, u := range snap {
				out[i] = obs.LabeledValue{Label: u.Tenant, Value: value(u)}
			}
			return out
		}
		if ts.kind == "gauge" {
			reg.GaugeVec(ts.name, ts.help, "tenant", fn)
		} else {
			reg.CounterVec(ts.name, ts.help, "tenant", fn)
		}
	}
}
