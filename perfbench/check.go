package main

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"

	"repro/internal/dyn"
	"repro/internal/flow"
	"repro/internal/graph"
	"repro/internal/server"
)

// exact reports whether an algorithm is exact greedy: gall and celf must
// return identical filters and F at every graph and k — the engine's own
// contract.
func exact(algo string) bool { return algo == "gall" || algo == "celf" }

// checkResult is the outcome of checking every recorded response.
type checkResult struct {
	bad  int      // responses that failed a check
	msgs []string // the first few failures
	// minRatio is the smallest F(approx or mlcelf) / F(celf) over every
	// pair at the same graph version and k; NaN when no pair was recorded.
	minRatio float64
}

func (c *checkResult) fail(format string, args ...any) {
	c.bad++
	if len(c.msgs) < 10 {
		c.msgs = append(c.msgs, fmt.Sprintf(format, args...))
	}
}

// checkRecords checks each response's F, bit for bit, against F the
// benchmark recomputes with its own flow.NewFloat over the graph it
// generated — replaying each graph's churn stream up to the response's
// version — and checks that gall and celf agree. The replay runs in
// order; models are built and checked on one worker per CPU.
// quality.min_f_ratio pairs come from mlcelf and from approx requests
// sampled with qualitySeed, so that it does not vary with the request
// stream.
func checkRecords(recs []record, qualitySeed int64) checkResult {
	// Coverage rounds upload copies of one graph: their responses are
	// checked together, keyed by the digraph the copies share.
	type key struct {
		g       *graph.Digraph
		version int
	}
	groups := map[key][]record{}
	var keys []key
	for _, r := range recs {
		k := key{r.g.g, r.version}
		if _, ok := groups[k]; !ok {
			keys = append(keys, k)
		}
		groups[k] = append(groups[k], r)
	}
	sort.SliceStable(keys, func(i, j int) bool { return keys[i].version < keys[j].version })

	type version struct {
		recs []record
		g    *graph.Digraph
		err  error
	}
	// Sized so the replay can run a version ahead of each worker.
	versions := make(chan version, runtime.GOMAXPROCS(0))
	results := make([]checkResult, runtime.GOMAXPROCS(0))
	var wg sync.WaitGroup
	for w := range results {
		res := &results[w]
		res.minRatio = math.NaN()
		wg.Add(1)
		go func() {
			defer wg.Done()
			for v := range versions {
				r0 := v.recs[0]
				if v.err != nil {
					res.fail("%s v%d: replay: %v", r0.g.name, r0.version, v.err)
					continue
				}
				model, err := flow.NewModel(v.g, []int{r0.g.src})
				if err != nil {
					res.fail("%s v%d: model: %v", r0.g.name, r0.version, err)
					continue
				}
				checkGroup(res, flow.NewFloat(model), v.recs, qualitySeed)
			}
		}()
	}
	mirrors := map[*graph.Digraph]*mirror{}
	for _, k := range keys {
		m := mirrors[k.g]
		if m == nil {
			m = &mirror{g: groups[k][0].g}
			mirrors[k.g] = m
		}
		g, err := m.at(k.version)
		versions <- version{groups[k], g, err}
	}
	close(versions)
	wg.Wait()

	res := checkResult{minRatio: math.NaN()}
	for _, r := range results {
		res.bad += r.bad
		res.msgs = append(res.msgs, r.msgs...)
		if math.IsNaN(res.minRatio) || r.minRatio < res.minRatio {
			res.minRatio = r.minRatio
		}
	}
	return res
}

// checkGroup checks the responses recorded on one graph version.
func checkGroup(res *checkResult, ev *flow.FloatEngine, recs []record, qualitySeed int64) {
	n := ev.Model().N()
	memo := map[string]float64{}
	exactAt := map[int]record{}
	for _, r := range recs {
		if bad := slices.IndexFunc(r.filters, func(v int) bool { return v < 0 || v >= n }); bad >= 0 {
			res.fail("%s %s k=%d: filter %d outside [0,%d)", r.g.name, r.kind, r.k, r.filters[bad], n)
			continue
		}
		fk := filterKey(r.filters)
		f, ok := memo[fk]
		if !ok {
			f = ev.F(flow.MaskOf(n, r.filters))
			memo[fk] = f
		}
		if math.Float64bits(f) != math.Float64bits(r.f) {
			res.fail("%s v%d %s k=%d: fpd F=%v, recomputed F=%v", r.g.name, r.version, r.kind, r.k, r.f, f)
			continue
		}
		if !exact(r.algo) {
			continue
		}
		if first, ok := exactAt[r.k]; !ok {
			exactAt[r.k] = r
		} else if !slices.Equal(first.filters, r.filters) || math.Float64bits(first.f) != math.Float64bits(r.f) {
			res.fail("%s k=%d: %s gave %v (F=%v) but %s gave %v (F=%v)", r.g.name, r.k,
				first.kind, first.filters, first.f, r.kind, r.filters, r.f)
		}
	}
	for _, r := range recs {
		if r.algo != "mlcelf" && (r.algo != "approx" || r.seed != qualitySeed) {
			continue
		}
		if e, ok := exactAt[r.k]; ok && e.f > 0 {
			if q := r.f / e.f; math.IsNaN(res.minRatio) || q < res.minRatio {
				res.minRatio = q
			}
		}
	}
}

func filterKey(filters []int) string {
	var b strings.Builder
	for _, v := range filters {
		b.WriteString(strconv.Itoa(v))
		b.WriteByte(',')
	}
	return b.String()
}

// mirror replays a graph's churn stream on the benchmark's own dynamic
// overlay, so a response at any version is checked against the graph fpd
// held when it answered. Versions must be requested in ascending order.
type mirror struct {
	g       *graphRef
	d       *dyn.Dynamic
	version int
}

// at returns the graph at version v.
func (m *mirror) at(v int) (*graph.Digraph, error) {
	if v == 0 {
		return m.g.g, nil
	}
	if m.d == nil {
		d, err := dyn.FromDigraph(m.g.g, []int{m.g.src})
		if err != nil {
			return nil, err
		}
		m.d = d
	}
	if v < m.version {
		return nil, fmt.Errorf("version %d requested after %d", v, m.version)
	}
	for ; m.version < v; m.version++ {
		b := m.g.stream[m.version]
		if _, err := m.d.Apply(dyn.Batch{Add: b.Add, Remove: b.Remove}); err != nil {
			return nil, fmt.Errorf("replay batch %d: %w", m.version, err)
		}
	}
	return m.d.Snapshot(), nil
}

// counters is the slice of fpd's /metrics the mix assertions read.
type counters struct {
	hits, misses, maintainJobs, splices, rebuilds, failed, canceled, rejected, flights int64
}

func countersOf(s server.MetricsSnapshot) counters {
	return counters{
		hits: s.CacheHits, misses: s.CacheMisses, maintainJobs: s.MaintainJobs,
		splices: s.PlanSplices, rebuilds: s.PlanRebuilds, failed: s.JobsFailed,
		canceled: s.JobsCanceled, rejected: s.JobsRejected, flights: s.FlightsJoined,
	}
}

func (c counters) add(o counters) counters {
	return counters{
		hits: c.hits + o.hits, misses: c.misses + o.misses, maintainJobs: c.maintainJobs + o.maintainJobs,
		splices: c.splices + o.splices, rebuilds: c.rebuilds + o.rebuilds, failed: c.failed + o.failed, canceled: c.canceled + o.canceled,
		rejected: c.rejected + o.rejected, flights: c.flights + o.flights,
	}
}

func (c counters) sub(o counters) counters {
	return counters{
		hits: c.hits - o.hits, misses: c.misses - o.misses, maintainJobs: c.maintainJobs - o.maintainJobs,
		splices: c.splices - o.splices, rebuilds: c.rebuilds - o.rebuilds, failed: c.failed - o.failed, canceled: c.canceled - o.canceled,
		rejected: c.rejected - o.rejected, flights: c.flights - o.flights,
	}
}

// assertMix checks from fpd's own counters, over the measured window,
// that the workload exercised the layers it is meant to: every placement
// the benchmark sent as a cache hit was one and every one it sent as a
// miss was one, every churn cycle ran one plan repair and one maintain
// job, and no job failed, was canceled or was refused.
func assertMix(d counters, tl *tally) error {
	var errs []string
	want := func(name string, got, expect int64) {
		if got != expect {
			errs = append(errs, fmt.Sprintf("%s = %d, want %d", name, got, expect))
		}
	}
	want("cache_hits", d.hits, int64(tl.cacheHitsSent))
	want("cache_misses", d.misses, int64(tl.cacheMissesSent))
	want("maintain_jobs", d.maintainJobs, int64(tl.cycles))
	want("plan repairs", d.splices+d.rebuilds, int64(tl.cycles))
	want("jobs_failed", d.failed, 0)
	want("jobs_canceled", d.canceled, 0)
	want("jobs_rejected", d.rejected, 0)
	if len(errs) > 0 {
		return fmt.Errorf("/metrics over the window: %s", strings.Join(errs, "; "))
	}
	return nil
}
