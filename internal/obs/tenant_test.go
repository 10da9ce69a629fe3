package obs

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestValidTenant(t *testing.T) {
	valid := []string{"a", "default", "team-42", "A.B_c-d", strings.Repeat("x", 64)}
	for _, s := range valid {
		if !ValidTenant(s) {
			t.Errorf("ValidTenant(%q) = false, want true", s)
		}
	}
	invalid := []string{"", " ", "a b", "tenant/1", "é", "a\n", strings.Repeat("x", 65), `x"y`}
	for _, s := range invalid {
		if ValidTenant(s) {
			t.Errorf("ValidTenant(%q) = true, want false", s)
		}
	}
}

func TestTenantCountersNilSafe(t *testing.T) {
	var c *TenantCounters
	// Neither may panic; Add must no-op.
	for _, k := range Counters() {
		c.Add(k, 1)
		if got := c.Value(k); got != 0 {
			t.Errorf("nil.Value(%s) = %d, want 0", k.Usage()+k.Key(), got)
		}
	}
	if got := c.Name(); got != "" {
		t.Errorf("nil.Name() = %q, want \"\"", got)
	}
}

func TestTenantCountersUsage(t *testing.T) {
	a := NewAccountant(0)
	c := a.Tenant("acme")
	c.Add(Requests, 2)
	c.Add(JobsSubmitted, 1)
	c.Add(OracleEvaluations, 100)
	c.Add(SampledEvaluations, 40)
	c.Add(JobQueueWait, int64(1500*time.Millisecond))
	c.Add(SchedTasks, 2)
	c.Add(SchedQueueWait, 0) // ignored
	c.Add(CacheHits, -1)     // ignored: counters stay monotonic
	c.Add(GraphsCreated, 3)  // a fleet counter: recorded, but not a usage key

	u := c.Usage()
	want := map[string]any{
		"tenant": "acme", "requests": 2.0, "jobs_submitted": 1.0,
		"oracle_evaluations": 100.0, "sampled_evaluations": 40.0,
		"job_queue_wait_seconds": 1.5, "sched_tasks": 2.0,
		"sched_queue_wait_seconds": 0.0, "cache_hits": 0.0,
	}
	for key, v := range want {
		if u[key] != v {
			t.Errorf("Usage()[%q] = %v, want %v", key, u[key], v)
		}
	}
	var tenantCounters int
	for _, k := range Counters() {
		if k.Usage() != "" {
			tenantCounters++
		}
	}
	if len(u) != 1+tenantCounters {
		t.Errorf("Usage() has %d keys, want tenant + %d tenant counters", len(u), tenantCounters)
	}
	if _, ok := u["graphs_created"]; ok {
		t.Error("Usage() carries fleet counter graphs_created")
	}
}

// TestLedgerTotals: a counter's fleet value is the fleet row plus every
// tenant row, and the ledger's keys are unique on every surface.
func TestLedgerTotals(t *testing.T) {
	a := NewAccountant(0)
	a.Fleet().Add(Requests, 1)
	a.Tenant("x").Add(Requests, 2)
	a.Tenant("y").Add(Requests, 4)
	a.Fleet().Add(GraphsCreated, 5)
	if got := a.Total(Requests); got != 7 {
		t.Errorf("Total(Requests) = %d, want 7", got)
	}
	totals := a.Totals()
	if totals["requests_total"] != 7 || totals["graphs_created"] != 5 {
		t.Errorf("Totals() = %v", totals)
	}
	if _, ok := totals[""]; ok {
		t.Error("Totals() carries tenant-only counters under an empty key")
	}
	keys, usages := map[string]bool{}, map[string]bool{}
	for _, k := range Counters() {
		if k.Key() == "" && k.Usage() == "" {
			t.Errorf("counter %d has neither a key nor a usage key", k)
		}
		if k.Key() != "" && keys[k.Key()] || k.Usage() != "" && usages[k.Usage()] {
			t.Errorf("counter %q/%q defined twice", k.Key(), k.Usage())
		}
		keys[k.Key()], usages[k.Usage()] = true, true
	}
}

func TestAccountantFolding(t *testing.T) {
	a := NewAccountant(3)
	if got := a.Tenant("").Name(); got != DefaultTenant {
		t.Errorf("empty name folded to %q, want %q", got, DefaultTenant)
	}
	if got := a.Tenant("not a tenant!").Name(); got != DefaultTenant {
		t.Errorf("invalid name folded to %q, want %q", got, DefaultTenant)
	}
	// Same name returns the same counter block.
	if a.Tenant("x") != a.Tenant("x") {
		t.Error("Tenant(\"x\") returned distinct blocks for one name")
	}
	a.Tenant("y") // 3 tenants now: default, x, y — cap reached
	if got := a.Tenant("z").Name(); got != OverflowTenant {
		t.Errorf("past-cap tenant accounted to %q, want %q", got, OverflowTenant)
	}
	// Default always resolves even past the cap.
	if got := a.Tenant("").Name(); got != DefaultTenant {
		t.Errorf("default tenant past cap = %q, want %q", got, DefaultTenant)
	}
	// Pre-cap tenants still resolve to their own blocks.
	if got := a.Tenant("x").Name(); got != "x" {
		t.Errorf("existing tenant past cap = %q, want x", got)
	}
}

func TestAccountantLookupAndSnapshot(t *testing.T) {
	a := NewAccountant(0)
	if _, ok := a.Lookup("ghost"); ok {
		t.Error("Lookup of an unseen tenant reported ok")
	}
	a.Tenant("bbb").Add(Requests, 1)
	a.Tenant("aaa").Add(Requests, 1)
	a.Tenant("aaa").Add(Requests, 1)
	if c, ok := a.Lookup("aaa"); !ok || c.Value(Requests) != 2 {
		t.Errorf("Lookup(aaa) = %v, %v; want 2 requests", c, ok)
	}
	rows := a.Tenants()
	if len(rows) != 2 || rows[0].Name() != "aaa" || rows[1].Name() != "bbb" {
		t.Errorf("Tenants() not sorted by tenant: %v, %v", rows[0].Name(), rows[1].Name())
	}
	if a.Len() != 2 {
		t.Errorf("Len() = %d, want 2", a.Len())
	}
}

func TestAccountantNilSafe(t *testing.T) {
	var a *Accountant
	if c := a.Tenant("x"); c != nil {
		t.Errorf("nil.Tenant = %v, want nil", c)
	}
	if _, ok := a.Lookup("x"); ok {
		t.Error("nil.Lookup reported ok")
	}
	a.Fleet().Add(Requests, 1)
	if a.Len() != 0 || a.Tenants() != nil || a.Total(Requests) != 0 {
		t.Error("nil accountant should report empty")
	}
}

// TestAccountantConcurrent hammers tenant creation and accounting from
// many goroutines; run with -race this proves the read-lock fast path and
// the double-checked create path are sound.
func TestAccountantConcurrent(t *testing.T) {
	a := NewAccountant(8)
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				c := a.Tenant(fmt.Sprintf("tenant-%d", i%12))
				c.Add(Requests, 1)
				c.Add(Placements, 1)
				if i%10 == 0 {
					a.Total(Requests)
					a.Len()
				}
			}
		}(g)
	}
	wg.Wait()
	if total, want := a.Total(Requests), int64(16*200); total != want {
		t.Errorf("total requests across tenants = %d, want %d (no adds lost)", total, want)
	}
	// Cap of 8 plus the overflow bucket.
	if n := a.Len(); n > 9 {
		t.Errorf("Len() = %d, want ≤ 9 (cap 8 + overflow)", n)
	}
}
