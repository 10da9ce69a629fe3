package obs

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
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

// TenantCounters is one row of the counter ledger: an atomic value per
// Counter, so recording from hot paths (scheduler workers, placement
// completion, cache lookups) is one uncontended atomic add. An
// Accountant keeps one row per tenant plus the fleet row. Add is
// nil-safe — threading a nil *TenantCounters through a call chain
// disables accounting for that call at zero cost.
type TenantCounters struct {
	name string
	v    []atomic.Int64
}

func newRow(name string) *TenantCounters {
	return &TenantCounters{name: name, v: make([]atomic.Int64, len(ledger))}
}

// Name returns the tenant identifier the counters accumulate under
// (empty for a nil receiver and for the fleet row).
func (c *TenantCounters) Name() string {
	if c == nil {
		return ""
	}
	return c.name
}

// Add records delta on counter k. Non-positive deltas are ignored, so
// every counter stays monotonic; duration counters take nanoseconds.
func (c *TenantCounters) Add(k Counter, delta int64) {
	if c != nil && delta > 0 {
		c.v[k].Add(delta)
	}
}

// Value returns counter k's raw accumulated value (nanoseconds for a
// duration counter; 0 for a nil receiver).
func (c *TenantCounters) Value(k Counter) int64 {
	if c == nil {
		return 0
	}
	return c.v[k].Load()
}

// Usage is the row's JSON view, served by GET /v1/tenants/{id}/usage:
// the tenant name plus every tenant counter under its usage key.
// Clients decode it into TenantUsage.
func (c *TenantCounters) Usage() map[string]any {
	out := map[string]any{"tenant": c.Name()}
	for _, k := range Counters() {
		if k.Usage() != "" {
			out[k.Usage()] = k.report(c.Value(k))
		}
	}
	return out
}

// TenantUsage is the typed client view of one tenant's usage as GET
// /v1/tenants/{id}/usage serves it (see TenantCounters.Usage). The
// server never fills it; a test pins that every field's key is served.
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
	// repairs: one rebuild per PATCH. PlanSplices stays 0 because every
	// repair is a rebuild; it keeps its key for existing readers.
	PlanSplices  int64 `json:"plan_splices"`
	PlanRebuilds int64 `json:"plan_rebuilds"`
	// CoarsenPlacements counts the tenant's exact greedy placements
	// (gall, celf, mlcelf) that ran on a coarsened quotient;
	// CoarsenNodesContracted the nodes their coarsening removed before
	// the quotient solve.
	CoarsenPlacements      int64 `json:"coarsen_placements"`
	CoarsenNodesContracted int64 `json:"coarsen_nodes_contracted"`
}

// Accountant is the counter ledger's store: a fleet row plus one row per
// tenant. Lookup is a read-locked map hit returning the tenant's row;
// all subsequent accounting on that row is lock-free. Distinct tenants
// are capped — past the cap, new names account under OverflowTenant — so
// an adversarial client cannot grow memory or metric cardinality.
type Accountant struct {
	fleet *TenantCounters
	mu    sync.RWMutex
	m     map[string]*TenantCounters
	max   int
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
	return &Accountant{fleet: newRow(""), m: make(map[string]*TenantCounters), max: max}
}

// Fleet returns the fleet row: fleet counters, and the tenant-counter
// events that have no tenant. nil-safe.
func (a *Accountant) Fleet() *TenantCounters {
	if a == nil {
		return nil
	}
	return a.fleet
}

// Tenant returns the row for the named tenant, creating it on first use.
// Invalid or empty names fold into DefaultTenant; names past the
// cardinality cap fold into OverflowTenant. Safe for concurrent use;
// nil-safe (returns nil, and a nil row no-ops).
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
		name = OverflowTenant
		if c, ok := a.m[name]; ok {
			return c
		}
	}
	c = newRow(name)
	a.m[name] = c
	return c
}

// Lookup returns the row for name only if it already exists.
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

// Tenants returns every tenant row, sorted by tenant name so
// expositions and API responses are deterministic.
func (a *Accountant) Tenants() []*TenantCounters {
	if a == nil {
		return nil
	}
	a.mu.RLock()
	out := make([]*TenantCounters, 0, len(a.m))
	for _, c := range a.m {
		out = append(out, c)
	}
	a.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// Total is counter k's fleet value: the fleet row plus the sum over
// tenant rows.
func (a *Accountant) Total(k Counter) int64 {
	if a == nil {
		return 0
	}
	a.mu.RLock()
	defer a.mu.RUnlock()
	v := a.fleet.Value(k)
	for _, c := range a.m {
		v += c.Value(k)
	}
	return v
}

// Totals maps the Key of every counter /metrics carries to its fleet
// value.
func (a *Accountant) Totals() map[string]int64 {
	out := make(map[string]int64, len(ledger))
	for _, k := range Counters() {
		if k.Key() != "" {
			out[k.Key()] = a.Total(k)
		}
	}
	return out
}

// Register exposes the ledger on reg: an fpd_<Key> counter per fleet
// value and an fpd_tenant_<Usage>_total family per tenant counter.
func (a *Accountant) Register(reg *Registry) {
	for _, k := range Counters() {
		if k.Key() != "" {
			reg.Counter("fpd_"+k.Key(), k.Help(), func() float64 { return k.report(a.Total(k)) })
		}
		if k.Usage() != "" {
			reg.CounterVec("fpd_tenant_"+k.Usage()+"_total", k.Help(), "tenant", func() []LabeledValue {
				rows := a.Tenants()
				out := make([]LabeledValue, len(rows))
				for i, c := range rows {
					out[i] = LabeledValue{Label: c.name, Value: k.report(c.Value(k))}
				}
				return out
			})
		}
	}
}

// String implements fmt.Stringer for debug logging.
func (a *Accountant) String() string {
	return fmt.Sprintf("obs.Accountant(%d tenants)", a.Len())
}
