package obs

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// DefaultTenant is the tenant requests are attributed to when they carry
// no X-FP-Tenant header.
const DefaultTenant = "default"

// OverflowTenant absorbs accounting for tenants beyond an Accountant's
// cardinality cap, so a client inventing tenant names cannot grow the
// label space (and therefore the Prometheus exposition) without bound.
const OverflowTenant = "(overflow)"

// maxTenantNameLen bounds accepted tenant identifiers.
const maxTenantNameLen = 64

// ValidTenant reports whether s is an acceptable tenant identifier:
// 1–64 characters drawn from [A-Za-z0-9._-]. The charset keeps tenant
// names safe as Prometheus label values and log fields without escaping.
func ValidTenant(s string) bool {
	if len(s) == 0 || len(s) > maxTenantNameLen {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '.', c == '_', c == '-':
		default:
			return false
		}
	}
	return true
}

// TenantCounters is one tenant's accounting sink: a fixed set of atomic
// counters, so attribution from hot paths (scheduler workers, placement
// completion, cache lookups) is a handful of uncontended atomic adds.
// All methods are nil-safe — threading a nil *TenantCounters through a
// call chain disables accounting for that call at zero cost.
type TenantCounters struct {
	name string

	requests      atomic.Int64
	jobsSubmitted atomic.Int64
	jobsCompleted atomic.Int64
	jobsFailed    atomic.Int64
	jobsCanceled  atomic.Int64

	placements    atomic.Int64
	oracleEvals   atomic.Int64
	sampledEvals  atomic.Int64
	forwardPasses atomic.Int64
	suffixPasses  atomic.Int64

	cacheHits   atomic.Int64
	cacheMisses atomic.Int64

	queueWaitNS atomic.Int64
	runNS       atomic.Int64
	schedWaitNS atomic.Int64
	schedTasks  atomic.Int64

	planRebuilds   atomic.Int64
	planRepairWork atomic.Int64

	coarsenPlacements      atomic.Int64
	coarsenNodesContracted atomic.Int64
}

// Name returns the tenant identifier the counters accumulate under
// (empty for a nil receiver).
func (c *TenantCounters) Name() string {
	if c == nil {
		return ""
	}
	return c.name
}

// AddRequest counts one HTTP request attributed to the tenant.
func (c *TenantCounters) AddRequest() {
	if c != nil {
		c.requests.Add(1)
	}
}

// AddJobSubmitted counts one job accepted into the engine.
func (c *TenantCounters) AddJobSubmitted() {
	if c != nil {
		c.jobsSubmitted.Add(1)
	}
}

// AddJobOutcome counts a terminal job transition by state name
// ("done", "failed" or "canceled").
func (c *TenantCounters) AddJobOutcome(state string) {
	if c == nil {
		return
	}
	switch state {
	case "done":
		c.jobsCompleted.Add(1)
	case "failed":
		c.jobsFailed.Add(1)
	case "canceled":
		c.jobsCanceled.Add(1)
	}
}

// AddPlacement attributes one completed placement's exact oracle
// evaluations, sampled (approximate-engine) evaluations and topological
// pass counts. Called after core.Place returns — never from inside the
// algorithm — so accounting cannot perturb placement results. Sampled
// evaluations are charged like oracle evaluations: they are the
// approximate engine's unit of work.
func (c *TenantCounters) AddPlacement(evals, sampled, forward, suffix int64) {
	if c == nil {
		return
	}
	c.placements.Add(1)
	c.oracleEvals.Add(evals)
	c.sampledEvals.Add(sampled)
	c.forwardPasses.Add(forward)
	c.suffixPasses.Add(suffix)
}

// AddCacheHit / AddCacheMiss count result-cache outcomes for the tenant.
func (c *TenantCounters) AddCacheHit() {
	if c != nil {
		c.cacheHits.Add(1)
	}
}

// AddCacheMiss counts one result-cache miss for the tenant.
func (c *TenantCounters) AddCacheMiss() {
	if c != nil {
		c.cacheMisses.Add(1)
	}
}

// AddQueueWait accumulates time a tenant's job spent queued before a
// worker picked it up.
func (c *TenantCounters) AddQueueWait(d time.Duration) {
	if c != nil && d > 0 {
		c.queueWaitNS.Add(int64(d))
	}
}

// AddRunTime accumulates a tenant's job execution wall time.
func (c *TenantCounters) AddRunTime(d time.Duration) {
	if c != nil && d > 0 {
		c.runNS.Add(int64(d))
	}
}

// AddSchedWait accumulates scheduler queue wait for one task tagged with
// the tenant.
func (c *TenantCounters) AddSchedWait(d time.Duration) {
	if c == nil {
		return
	}
	c.schedTasks.Add(1)
	if d > 0 {
		c.schedWaitNS.Add(int64(d))
	}
}

// AddPlanRepair attributes one execution-plan rebuild triggered by the
// tenant's PATCH; work is the rebuild's abstract cost (depth visits +
// positions + CSR rows).
func (c *TenantCounters) AddPlanRepair(work int64) {
	if c == nil {
		return
	}
	c.planRebuilds.Add(1)
	if work > 0 {
		c.planRepairWork.Add(work)
	}
}

// AddCoarsen attributes one multilevel placement's graph contraction:
// nodesContracted is how many nodes the coarsening removed before the
// quotient solve. Charged post-placement, like AddPlacement.
func (c *TenantCounters) AddCoarsen(nodesContracted int64) {
	if c == nil {
		return
	}
	c.coarsenPlacements.Add(1)
	if nodesContracted > 0 {
		c.coarsenNodesContracted.Add(nodesContracted)
	}
}

// Usage snapshots the counters.
func (c *TenantCounters) Usage() TenantUsage {
	if c == nil {
		return TenantUsage{}
	}
	return TenantUsage{
		Tenant:                 c.name,
		Requests:               c.requests.Load(),
		JobsSubmitted:          c.jobsSubmitted.Load(),
		JobsCompleted:          c.jobsCompleted.Load(),
		JobsFailed:             c.jobsFailed.Load(),
		JobsCanceled:           c.jobsCanceled.Load(),
		Placements:             c.placements.Load(),
		OracleEvaluations:      c.oracleEvals.Load(),
		SampledEvaluations:     c.sampledEvals.Load(),
		ForwardPasses:          c.forwardPasses.Load(),
		SuffixPasses:           c.suffixPasses.Load(),
		CacheHits:              c.cacheHits.Load(),
		CacheMisses:            c.cacheMisses.Load(),
		JobQueueWaitSeconds:    time.Duration(c.queueWaitNS.Load()).Seconds(),
		JobRunSeconds:          time.Duration(c.runNS.Load()).Seconds(),
		SchedQueueWaitSeconds:  time.Duration(c.schedWaitNS.Load()).Seconds(),
		SchedTasks:             c.schedTasks.Load(),
		PlanRebuilds:           c.planRebuilds.Load(),
		PlanRepairWork:         c.planRepairWork.Load(),
		CoarsenPlacements:      c.coarsenPlacements.Load(),
		CoarsenNodesContracted: c.coarsenNodesContracted.Load(),
	}
}

// TenantUsage is a point-in-time copy of one tenant's accumulated
// resource accounting, as served by GET /v1/tenants/{id}/usage.
type TenantUsage struct {
	Tenant                string  `json:"tenant"`
	Requests              int64   `json:"requests"`
	JobsSubmitted         int64   `json:"jobs_submitted"`
	JobsCompleted         int64   `json:"jobs_completed"`
	JobsFailed            int64   `json:"jobs_failed"`
	JobsCanceled          int64   `json:"jobs_canceled"`
	Placements            int64   `json:"placements"`
	OracleEvaluations     int64   `json:"oracle_evaluations"`
	SampledEvaluations    int64   `json:"sampled_evaluations"`
	ForwardPasses         int64   `json:"forward_passes"`
	SuffixPasses          int64   `json:"suffix_passes"`
	CacheHits             int64   `json:"cache_hits"`
	CacheMisses           int64   `json:"cache_misses"`
	JobQueueWaitSeconds   float64 `json:"job_queue_wait_seconds"`
	JobRunSeconds         float64 `json:"job_run_seconds"`
	SchedQueueWaitSeconds float64 `json:"sched_queue_wait_seconds"`
	SchedTasks            int64   `json:"sched_tasks"`
	// PlanSplices/PlanRebuilds split the tenant's PATCH-driven plan
	// repairs; PlanSplices stays 0 because every repair is a rebuild.
	// PlanRepairWork is their accumulated abstract cost.
	PlanSplices    int64 `json:"plan_splices"`
	PlanRebuilds   int64 `json:"plan_rebuilds"`
	PlanRepairWork int64 `json:"plan_repair_work"`
	// CoarsenPlacements counts the tenant's multilevel (mlcelf)
	// placements; CoarsenNodesContracted the nodes their coarsening
	// removed before the quotient solve.
	CoarsenPlacements      int64 `json:"coarsen_placements"`
	CoarsenNodesContracted int64 `json:"coarsen_nodes_contracted"`
}

// Accountant aggregates per-tenant resource usage. Lookup is a
// read-locked map hit returning the tenant's atomic counter block; all
// subsequent accounting on that block is lock-free. Distinct tenants are
// capped — past the cap, new names account under OverflowTenant — so an
// adversarial client cannot grow memory or metric cardinality.
type Accountant struct {
	mu  sync.RWMutex
	m   map[string]*TenantCounters
	max int
}

// DefaultMaxTenants is the Accountant cardinality cap used when the
// caller passes max <= 0.
const DefaultMaxTenants = 64

// NewAccountant returns an accountant tracking at most max distinct
// tenants (DefaultMaxTenants when max <= 0).
func NewAccountant(max int) *Accountant {
	if max <= 0 {
		max = DefaultMaxTenants
	}
	return &Accountant{m: make(map[string]*TenantCounters), max: max}
}

// Tenant returns the counter block for the named tenant, creating it on
// first use. Invalid or empty names fold into DefaultTenant; names past
// the cardinality cap fold into OverflowTenant. Safe for concurrent use;
// nil-safe (returns nil, and nil counters no-op).
func (a *Accountant) Tenant(name string) *TenantCounters {
	if a == nil {
		return nil
	}
	if name == "" {
		name = DefaultTenant
	} else if !ValidTenant(name) && name != OverflowTenant {
		name = DefaultTenant
	}
	a.mu.RLock()
	c, ok := a.m[name]
	a.mu.RUnlock()
	if ok {
		return c
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if c, ok := a.m[name]; ok {
		return c
	}
	if len(a.m) >= a.max && name != OverflowTenant && name != DefaultTenant {
		if c, ok := a.m[OverflowTenant]; ok {
			return c
		}
		c := &TenantCounters{name: OverflowTenant}
		a.m[OverflowTenant] = c
		return c
	}
	c = &TenantCounters{name: name}
	a.m[name] = c
	return c
}

// Lookup returns the counter block for name only if it already exists.
func (a *Accountant) Lookup(name string) (*TenantCounters, bool) {
	if a == nil {
		return nil, false
	}
	a.mu.RLock()
	defer a.mu.RUnlock()
	c, ok := a.m[name]
	return c, ok
}

// Len reports how many distinct tenants have been seen.
func (a *Accountant) Len() int {
	if a == nil {
		return 0
	}
	a.mu.RLock()
	defer a.mu.RUnlock()
	return len(a.m)
}

// Snapshot copies every tenant's usage, sorted by tenant name so
// expositions and API responses are deterministic.
func (a *Accountant) Snapshot() []TenantUsage {
	if a == nil {
		return nil
	}
	a.mu.RLock()
	out := make([]TenantUsage, 0, len(a.m))
	for _, c := range a.m {
		out = append(out, c.Usage())
	}
	a.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Tenant < out[j].Tenant })
	return out
}

// String implements fmt.Stringer for debug logging.
func (a *Accountant) String() string {
	return fmt.Sprintf("obs.Accountant(%d tenants)", a.Len())
}
