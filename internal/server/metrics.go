package server

import "repro/internal/sched"

// MetricsSnapshot is the typed client view of GET /metrics, which serves
// every fleet counter of the ledger (internal/obs) and every sampled
// gauge below under these keys. The server never fills it; a test pins
// that each of its keys is served, so a client decoding into it cannot
// silently read a dropped key as 0.
type MetricsSnapshot struct {
	RequestsTotal            int64 `json:"requests_total"`
	RequestErrors            int64 `json:"request_errors"`
	GraphsCreated            int64 `json:"graphs_created"`
	GraphsEvicted            int64 `json:"graphs_evicted"`
	GraphsDeleted            int64 `json:"graphs_deleted"`
	GraphsPatched            int64 `json:"graphs_patched"`
	EdgesAdded               int64 `json:"edges_added"`
	EdgesRemoved             int64 `json:"edges_removed"`
	SyncPlacements           int64 `json:"sync_placements"`
	Evaluations              int64 `json:"evaluations"`
	JobsSubmitted            int64 `json:"jobs_submitted"`
	JobsDeduped              int64 `json:"jobs_deduped"`
	JobsRunning              int64 `json:"jobs_running"`
	JobsCompleted            int64 `json:"jobs_completed"`
	JobsFailed               int64 `json:"jobs_failed"`
	JobsCanceled             int64 `json:"jobs_canceled"`
	JobsRejected             int64 `json:"jobs_rejected"`
	FlightsJoined            int64 `json:"flights_joined"`
	JobQueueDepth            int64 `json:"job_queue_depth"`
	MaintainJobs             int64 `json:"maintain_jobs"`
	CacheHits                int64 `json:"cache_hits"`
	CacheMisses              int64 `json:"cache_misses"`
	CacheInvalidations       int64 `json:"cache_invalidations"`
	CacheEntries             int64 `json:"cache_entries"`
	PlaceWorkersBusy         int64 `json:"place_workers_busy"`
	OracleEvaluations        int64 `json:"oracle_evaluations"`
	BatchesSubmitted         int64 `json:"batches_submitted"`
	BatchGraphsInflight      int64 `json:"batch_graphs_inflight"`
	SchedQueueDepth          int64 `json:"sched_queue_depth"`
	SchedWorkers             int64 `json:"sched_workers"`
	EventsPublished          int64 `json:"events_published"`
	EventsDropped            int64 `json:"events_dropped"`
	EventsSubscribers        int64 `json:"events_subscribers"`
	HistorySamples           int64 `json:"history_samples"`
	TenantsTracked           int64 `json:"tenants_tracked"`
	PlanSplices              int64 `json:"plan_splices_total"`
	PlanRebuilds             int64 `json:"plan_rebuilds_total"`
	ApproxPlacements         int64 `json:"approx_placements_total"`
	ApproxSampledEvaluations int64 `json:"approx_sampled_evaluations_total"`
	ApproxExactRechecks      int64 `json:"approx_exact_rechecks_total"`
	CoarsenPlacements        int64 `json:"coarsen_placements_total"`
	CoarsenNodesContracted   int64 `json:"coarsen_nodes_contracted_total"`
}

// gauge is a point-in-time reading sampled next to the counter ledger;
// key names its /metrics JSON field, fpd_<key> gauge and stats-history
// column.
type gauge struct {
	key, help string
	read      func() int64
}

// gaugeTable lists the server's sampled readings.
func (s *Server) gaugeTable() []gauge {
	return []gauge{
		{"jobs_running", "Async jobs running now.", func() int64 { return int64(s.jobs.Running()) }},
		{"job_queue_depth", "Async jobs waiting for a run slot.", func() int64 { return int64(s.jobs.QueueDepth()) }},
		{"cache_entries", "Placement results cached.", func() int64 { return int64(s.cache.len()) }},
		{"place_workers_busy", "Goroutines reserved by running placements.", s.workersBusy.Load},
		{"batch_graphs_inflight", "Batch sub-placements running now.", s.batchInflight.Load},
		{"sched_queue_depth", "Oracle tasks queued on the shared scheduler.", func() int64 { return int64(sched.Default().QueueDepth()) }},
		{"sched_workers", "Workers of the shared scheduler.", func() int64 { return int64(sched.Default().Workers()) }},
		{"events_subscribers", "Live SSE event streams.", func() int64 { return int64(s.events.subscribers()) }},
		{"history_samples", "Samples held by the stats-history ring.", func() int64 { return int64(s.history.Len()) }},
		{"tenants_tracked", "Distinct tenants the accountant has seen.", func() int64 { return int64(s.acct.Len()) }},
	}
}

// sampleMetrics is what /metrics serves and the stats history samples:
// every fleet counter's total plus every gauge reading.
func (s *Server) sampleMetrics() map[string]int64 {
	out := s.acct.Totals()
	for _, g := range s.gauges {
		out[g.key] = g.read()
	}
	return out
}
