package obs

import "time"

// The counter ledger: every counter fpd reports is one row below, and
// every surface iterates this table — the /metrics JSON and the stats
// history (under Key), the fpd_<Key> Prometheus series, the tenant usage
// view (under Usage) and the fpd_tenant_<Usage>_total series. Adding a
// counter is adding one row here.
//
// A row with a Usage key is a tenant counter: its events are recorded on
// the tenant's row of an Accountant, and its fleet value is the sum over
// tenant rows (plus the fleet row, which takes the few events that have
// no tenant). A row without one is a fleet counter, recorded on the
// fleet row only. Key is empty for tenant counters that /metrics does
// not carry.

// Counter identifies one ledger row.
type Counter int

type counterDef struct {
	key, usage, help string
	// seconds marks a duration counter: it accumulates nanoseconds and
	// every surface reports it in seconds.
	seconds bool
}

var ledger []counterDef

func counter(key, usage, help string) Counter {
	ledger = append(ledger, counterDef{key: key, usage: usage, help: help})
	return Counter(len(ledger) - 1)
}

func duration(usage, help string) Counter {
	ledger = append(ledger, counterDef{usage: usage, help: help, seconds: true})
	return Counter(len(ledger) - 1)
}

// The rows, in the order the surfaces list them.
var (
	Requests               = counter("requests_total", "requests", "HTTP requests received.")
	RequestErrors          = counter("request_errors", "", "Error responses sent.")
	GraphsCreated          = counter("graphs_created", "", "Graphs registered.")
	GraphsEvicted          = counter("graphs_evicted", "", "Graphs evicted from the LRU registry.")
	GraphsDeleted          = counter("graphs_deleted", "", "Graphs deleted by clients.")
	GraphsPatched          = counter("graphs_patched", "", "PATCH mutation batches committed.")
	EdgesAdded             = counter("edges_added", "", "Edges added by PATCH batches.")
	EdgesRemoved           = counter("edges_removed", "", "Edges removed by PATCH batches.")
	SyncPlacements         = counter("sync_placements", "", "Placements answered synchronously.")
	Evaluations            = counter("evaluations", "", "Filter-set evaluations served.")
	JobsSubmitted          = counter("jobs_submitted", "jobs_submitted", "Async jobs accepted into the engine.")
	JobsDeduped            = counter("jobs_deduped", "", "Submissions joined onto an identical in-flight job.")
	JobsCompleted          = counter("jobs_completed", "jobs_completed", "Async jobs that finished successfully.")
	JobsFailed             = counter("jobs_failed", "jobs_failed", "Async jobs that finished in error.")
	JobsCanceled           = counter("jobs_canceled", "jobs_canceled", "Async jobs that were canceled.")
	JobsRejected           = counter("jobs_rejected", "", "Submissions refused with 503 because the queue was full.")
	FlightsJoined          = counter("flights_joined", "", "Placements that joined an identical in-flight computation.")
	MaintainJobs           = counter("maintain_jobs", "", "Auto-maintain jobs enqueued by PATCH.")
	CacheHits              = counter("cache_hits", "cache_hits", "Placement result-cache hits.")
	CacheMisses            = counter("cache_misses", "cache_misses", "Placement result-cache misses.")
	CacheInvalidations     = counter("cache_invalidations", "", "Cached placements dropped by graph mutations.")
	OracleEvaluations      = counter("oracle_evaluations", "oracle_evaluations", "Marginal-gain oracle evaluations.")
	BatchesSubmitted       = counter("batches_submitted", "", "Gang-submitted batch placement jobs.")
	EventsPublished        = counter("events_published", "", "Job lifecycle events published to the SSE bus.")
	EventsDropped          = counter("events_dropped", "", "SSE deliveries lost to a full subscriber buffer.")
	PlanSplices            = counter("plan_splices_total", "plan_splices", "Execution plans spliced incrementally (always 0: every repair is a rebuild).")
	PlanRebuilds           = counter("plan_rebuilds_total", "plan_rebuilds", "Execution plans rebuilt from the overlay.")
	ApproxPlacements       = counter("approx_placements_total", "", "Placements driven by sampled gain estimates.")
	SampledEvaluations     = counter("approx_sampled_evaluations_total", "sampled_evaluations", "Sampled (approximate-engine) gain estimates.")
	ApproxExactRechecks    = counter("approx_exact_rechecks_total", "", "Exact oracle evaluations spent by estimate-driven placements.")
	CoarsenPlacements      = counter("coarsen_placements_total", "coarsen_placements", "Exact greedy placements (greedy-all, celf, ml-celf) run on a coarsened quotient.")
	CoarsenNodesContracted = counter("coarsen_nodes_contracted_total", "coarsen_nodes_contracted", "Nodes removed by the coarsening of exact greedy placements.")
	Placements             = counter("", "placements", "Placements executed.")
	ForwardPasses          = counter("", "forward_passes", "Forward topological passes executed.")
	SuffixPasses           = counter("", "suffix_passes", "Suffix topological passes executed.")
	JobQueueWait           = duration("job_queue_wait_seconds", "Time async jobs spent queued.")
	JobRunTime             = duration("job_run_seconds", "Wall time async jobs spent running.")
	SchedQueueWait         = duration("sched_queue_wait_seconds", "Scheduler queue wait of oracle tasks.")
	SchedTasks             = counter("", "sched_tasks", "Scheduler tasks executed.")
)

// Counters lists every ledger row in definition order.
func Counters() []Counter {
	out := make([]Counter, len(ledger))
	for i := range out {
		out[i] = Counter(i)
	}
	return out
}

// Key is the row's /metrics JSON key, stats-history column and fpd_<Key>
// series name; empty when /metrics does not carry the counter.
func (c Counter) Key() string { return ledger[c].key }

// Usage is the row's tenant usage key and fpd_tenant_<Usage>_total
// series name; empty for a fleet counter.
func (c Counter) Usage() string { return ledger[c].usage }

// Help is the row's Prometheus HELP text.
func (c Counter) Help() string { return ledger[c].help }

// report converts a raw accumulated value to its reported form: seconds
// for duration counters, the count itself otherwise.
func (c Counter) report(v int64) float64 {
	if ledger[c].seconds {
		return time.Duration(v).Seconds()
	}
	return float64(v)
}
