package server

import (
	"fmt"
	"reflect"
	"sync/atomic"
)

// Metrics holds the daemon's monotonic counters (plus one gauge for
// running jobs). Everything is atomic so handlers, workers and the
// registry update them without coordination; Snapshot copies the values
// for the /metrics endpoint, and the handler fills in the two sampled
// gauges (job-queue depth, cache entries) that live outside this struct.
type Metrics struct {
	RequestsTotal  atomic.Int64
	RequestErrors  atomic.Int64
	GraphsCreated  atomic.Int64
	GraphsEvicted  atomic.Int64
	GraphsDeleted  atomic.Int64
	GraphsPatched  atomic.Int64
	EdgesAdded     atomic.Int64
	EdgesRemoved   atomic.Int64
	SyncPlacements atomic.Int64
	Evaluations    atomic.Int64
	JobsSubmitted  atomic.Int64
	JobsDeduped    atomic.Int64
	JobsRunning    atomic.Int64
	JobsCompleted  atomic.Int64
	JobsFailed     atomic.Int64
	JobsCanceled   atomic.Int64
	JobsRejected   atomic.Int64
	// FlightsJoined counts placements that joined an identical in-flight
	// computation (cross-kind dedup) instead of executing their own.
	FlightsJoined atomic.Int64
	MaintainJobs  atomic.Int64
	CacheHits     atomic.Int64
	CacheMisses   atomic.Int64
	// CacheInvalidations counts placements dropped by graph mutations.
	CacheInvalidations atomic.Int64
	// PlaceWorkersBusy is a gauge of goroutines currently reserved by
	// running placements (each job contributes its parallelism).
	PlaceWorkersBusy atomic.Int64
	// OracleEvaluations counts single-node marginal-gain computations
	// spent across all placements (core.OracleStats.GainEvaluations).
	OracleEvaluations atomic.Int64
	// BatchesSubmitted counts gang-submitted batch placement jobs.
	BatchesSubmitted atomic.Int64
	// BatchGraphsInflight is a gauge of batch sub-placements currently
	// executing on the shared scheduler.
	BatchGraphsInflight atomic.Int64
	// EventsPublished counts job lifecycle events fanned out to the SSE
	// bus; EventsDropped counts per-subscriber deliveries lost to a full
	// subscriber buffer (the bus never blocks the job engine).
	EventsPublished atomic.Int64
	EventsDropped   atomic.Int64
	// PlanSplices counts execution plans repaired incrementally after a
	// PATCH batch; PlanRebuilds counts the ones rebuilt from scratch
	// (splice-cost threshold exceeded, or a forced resync). Their ratio is
	// the operator's signal that dynamic graphs are staying on the fast
	// splice path.
	PlanSplices  atomic.Int64
	PlanRebuilds atomic.Int64
	// ApproxPlacements counts placements served by the estimate-driven
	// approx algorithm; ApproxSampledEvaluations its sampled gain
	// estimates and ApproxExactRechecks the exact oracle evaluations it
	// spent confirming heap tops. Rechecks/placements ≪ oracle
	// evaluations/exact-placement is the signal that approximation is
	// actually saving exact work.
	ApproxPlacements         atomic.Int64
	ApproxSampledEvaluations atomic.Int64
	ApproxExactRechecks      atomic.Int64
	// Coarsen* describe the multilevel (mlcelf) path: placements that ran
	// through graph coarsening, how many nodes the contractions removed,
	// how many contraction rounds they spent, and how many runs stayed on
	// the lossless (bit-exact) rules only. NodesContracted/Placements is
	// the operator's view of how compressible the workload's graphs are.
	CoarsenPlacements      atomic.Int64
	CoarsenNodesContracted atomic.Int64
	CoarsenRounds          atomic.Int64
	CoarsenLossless        atomic.Int64
}

// MetricsSnapshot is the JSON shape served by GET /metrics. JobQueueDepth
// and CacheEntries are gauges sampled at snapshot time by the caller —
// queue depth is what an operator watches to see auto-maintain and gang
// load pile up behind the running jobs.
type MetricsSnapshot struct {
	RequestsTotal      int64 `json:"requests_total"`
	RequestErrors      int64 `json:"request_errors"`
	GraphsCreated      int64 `json:"graphs_created"`
	GraphsEvicted      int64 `json:"graphs_evicted"`
	GraphsDeleted      int64 `json:"graphs_deleted"`
	GraphsPatched      int64 `json:"graphs_patched"`
	EdgesAdded         int64 `json:"edges_added"`
	EdgesRemoved       int64 `json:"edges_removed"`
	SyncPlacements     int64 `json:"sync_placements"`
	Evaluations        int64 `json:"evaluations"`
	JobsSubmitted      int64 `json:"jobs_submitted"`
	JobsDeduped        int64 `json:"jobs_deduped"`
	JobsRunning        int64 `json:"jobs_running"`
	JobsCompleted      int64 `json:"jobs_completed"`
	JobsFailed         int64 `json:"jobs_failed"`
	JobsCanceled       int64 `json:"jobs_canceled"`
	JobsRejected       int64 `json:"jobs_rejected"`
	FlightsJoined      int64 `json:"flights_joined"`
	JobQueueDepth      int64 `json:"job_queue_depth"`
	MaintainJobs       int64 `json:"maintain_jobs"`
	CacheHits          int64 `json:"cache_hits"`
	CacheMisses        int64 `json:"cache_misses"`
	CacheInvalidations int64 `json:"cache_invalidations"`
	CacheEntries       int64 `json:"cache_entries"`
	PlaceWorkersBusy   int64 `json:"place_workers_busy"`
	OracleEvaluations  int64 `json:"oracle_evaluations"`
	BatchesSubmitted   int64 `json:"batches_submitted"`
	// BatchGraphsInflight counts batch sub-placements running right now;
	// SchedQueueDepth and SchedWorkers are sampled from the process-wide
	// scheduler at snapshot time — queue depth is what an operator
	// watches to see oracle work pile up behind the shared pool.
	BatchGraphsInflight int64 `json:"batch_graphs_inflight"`
	SchedQueueDepth     int64 `json:"sched_queue_depth"`
	SchedWorkers        int64 `json:"sched_workers"`
	// EventsPublished/EventsDropped mirror the SSE bus counters;
	// EventsSubscribers, HistorySamples and TenantsTracked are gauges
	// sampled at snapshot time (live SSE streams, stats-history ring
	// population, distinct tenants the accountant has seen).
	EventsPublished   int64 `json:"events_published"`
	EventsDropped     int64 `json:"events_dropped"`
	EventsSubscribers int64 `json:"events_subscribers"`
	HistorySamples    int64 `json:"history_samples"`
	TenantsTracked    int64 `json:"tenants_tracked"`
	// PlanSplices/PlanRebuilds split PATCH-driven execution-plan repairs
	// into incremental splices vs from-scratch rebuilds.
	PlanSplices  int64 `json:"plan_splices_total"`
	PlanRebuilds int64 `json:"plan_rebuilds_total"`
	// Approx* split the approximate engine's work: sampled estimates vs
	// the exact re-checks that gate each commit.
	ApproxPlacements         int64 `json:"approx_placements_total"`
	ApproxSampledEvaluations int64 `json:"approx_sampled_evaluations_total"`
	ApproxExactRechecks      int64 `json:"approx_exact_rechecks_total"`
	// Coarsen* describe multilevel placements: runs, nodes contracted
	// away, contraction rounds, and runs that stayed lossless-only.
	CoarsenPlacements      int64 `json:"coarsen_placements_total"`
	CoarsenNodesContracted int64 `json:"coarsen_nodes_contracted_total"`
	CoarsenRounds          int64 `json:"coarsen_rounds_total"`
	CoarsenLossless        int64 `json:"coarsen_lossless_total"`
}

// Snapshot copies every counter into the same-named MetricsSnapshot
// field by reflection, so adding a Metrics field without its snapshot
// counterpart is impossible to miss: the mismatch panics on the first
// snapshot (and TestMetricsSnapshotDrift pins it at test time). Fields
// that exist only on the snapshot (sampled gauges) are left for the
// caller to fill.
func (m *Metrics) Snapshot() MetricsSnapshot {
	var snap MetricsSnapshot
	mv := reflect.ValueOf(m).Elem()
	sv := reflect.ValueOf(&snap).Elem()
	mt := mv.Type()
	for i := 0; i < mt.NumField(); i++ {
		name := mt.Field(i).Name
		counter, ok := mv.Field(i).Addr().Interface().(*atomic.Int64)
		if !ok {
			panic(fmt.Sprintf("server: Metrics.%s is not an atomic.Int64", name))
		}
		target := sv.FieldByName(name)
		if !target.IsValid() {
			panic(fmt.Sprintf("server: Metrics.%s has no MetricsSnapshot counterpart", name))
		}
		target.SetInt(counter.Load())
	}
	return snap
}
