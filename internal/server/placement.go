package server

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/flow"
	"repro/internal/obs"
)

// PlaceSpec is the POST /v1/graphs/{id}/place request body.
type PlaceSpec struct {
	Algorithm string `json:"algorithm"`
	// K is the filter budget, 1 ≤ k ≤ n (ignored by prop1, which places
	// at every merge node).
	K int `json:"k,omitempty"`
	// Engine selects the arithmetic: "float" (default) or "big".
	Engine string `json:"engine,omitempty"`
	// Sources overrides the graph's registered sources for this request.
	Sources []int `json:"sources,omitempty"`
	// Seed feeds the randomized baselines (randk/randi/randw).
	Seed int64 `json:"seed,omitempty"`
	// Parallelism bounds the worker goroutines evaluating marginal gains
	// for this placement; 0 means serial, values above the server's
	// MaxParallelism are clamped. Results are bit-for-bit independent of
	// the setting, so it does not participate in the result-cache key.
	Parallelism int `json:"parallelism,omitempty"`
	// Quality is the approximate engine's target relative error (approx
	// algorithm only; 0 means the engine default). Zeroed for every other
	// algorithm so it cannot fragment their cache slots.
	Quality float64 `json:"quality,omitempty"`
	// SampleBudget overrides the sampled pass count derived from Quality
	// (approx only; 0 derives from Quality).
	SampleBudget int `json:"sample_budget,omitempty"`
	// Coarsen selects the mlcelf contraction mode: "lossless" restricts
	// coarsening to the bit-exactness-preserving rules, "bounded" (the
	// default) also merges modular twins and locally refines the projected
	// picks. Zeroed for every other algorithm.
	Coarsen string `json:"coarsen,omitempty"`
	// CoarsenRatio is mlcelf's bounded-mode target node ratio in [0, 1]:
	// twin-merge rounds stop once quotient/original nodes falls below it
	// (0 contracts to fixpoint). Lossless rules always run to fixpoint
	// regardless.
	CoarsenRatio float64 `json:"coarsen_ratio,omitempty"`
}

// PlaceResult is the placement outcome, returned inline for synchronous
// algorithms and through the job API for asynchronous ones.
type PlaceResult struct {
	GraphID   string   `json:"graph_id"`
	Algorithm string   `json:"algorithm"`
	K         int      `json:"k"`
	Filters   []int    `json:"filters"`
	Labels    []string `json:"labels,omitempty"`
	PhiEmpty  float64  `json:"phi_empty"`
	PhiA      float64  `json:"phi_filtered"`
	F         float64  `json:"f"`
	FR        float64  `json:"fr"`
	Cached    bool     `json:"cached"`
	// Parallelism is the worker count the placement actually used.
	Parallelism int `json:"parallelism,omitempty"`
	// Oracle counts the objective-function work the algorithm spent
	// (omitted for strategies that do no marginal-gain evaluation).
	Oracle *core.OracleStats `json:"oracle,omitempty"`
	// Passes counts the topological passes the placement executed — the
	// engine-level cost behind the oracle calls. Unlike Oracle it is an
	// execution measurement and may vary across parallelism settings
	// (parallel CELF runs speculative evaluations), so it never enters
	// cache keys or determinism comparisons.
	Passes *core.PassStats `json:"passes,omitempty"`
	// PhiCI is the approximate engine's sampled confidence interval on
	// Φ(A) — the honesty report that accompanies an estimate-driven
	// placement. Exact algorithms omit it.
	PhiCI *flow.MCResult `json:"phi_ci,omitempty"`
	// Maintain is set by the auto-maintain job kind: what the maintenance
	// pass did to the previous placement.
	Maintain *MaintainInfo `json:"maintain,omitempty"`
	// Coarsen, set by mlcelf only, reports what the graph contraction did.
	// lossless_only true means the result is bit-for-bit celf's.
	Coarsen *flow.CoarsenStats `json:"coarsen,omitempty"`
}

// validate normalizes the spec in place against a model and returns the
// strategy's table row. k must satisfy 1 ≤ k ≤ n and parallelism is
// clamped to [0, maxParallelism]. Normalization canonicalizes the cache
// key: the algorithm becomes its short name, the default engine becomes
// explicit, and every field the strategy does not read is zeroed, so
// requests differing only in irrelevant fields share a cache slot.
func (sp *PlaceSpec) validate(m *flow.Model, maxParallelism int) (core.StrategyInfo, error) {
	info, err := core.LookupStrategy(sp.Algorithm)
	if err != nil {
		return info, err
	}
	if info.Serve == core.ServeNone {
		return info, fmt.Errorf("strategy %q is not served over HTTP", sp.Algorithm)
	}
	sp.Algorithm = info.Short
	if info.Kless {
		sp.K = 0 // the budget is ignored; one cache slot for all k
	} else if n := m.N(); sp.K < 1 || sp.K > n {
		return info, fmt.Errorf("k = %d outside [1, %d]", sp.K, n)
	}
	switch sp.Engine {
	case "":
		sp.Engine = "float"
	case "float", "big":
	default:
		return info, fmt.Errorf("unknown engine %q (have float, big)", sp.Engine)
	}
	if info.Sampling == core.NoSampling {
		sp.Quality, sp.SampleBudget = 0, 0
	}
	if !info.ReadsSeed(sp.Quality, sp.SampleBudget) {
		sp.Seed = 0
	}
	if info.Coarsens {
		switch sp.Coarsen {
		case "":
			sp.Coarsen = "bounded" // canonical: one cache slot for the default
		case "bounded", "lossless":
		default:
			return info, fmt.Errorf("unknown coarsen mode %q (have lossless, bounded)", sp.Coarsen)
		}
	} else {
		sp.Coarsen, sp.CoarsenRatio = "", 0
	}
	// The numeric knobs share core's validation, so a bad value produces
	// the same error through HTTP, the CLI and direct core callers.
	if err := sp.options().Validate(); err != nil {
		return info, err
	}
	if sp.Parallelism > maxParallelism {
		sp.Parallelism = maxParallelism
	}
	return info, nil
}

// options maps the validated spec onto core options.
func (sp *PlaceSpec) options() core.Options {
	return core.Options{
		Strategy:     core.Strategy(sp.Algorithm),
		Parallelism:  sp.Parallelism,
		Seed:         sp.Seed,
		Quality:      sp.Quality,
		SampleBudget: sp.SampleBudget,
		SampleSeed:   sp.Seed,
		Coarsen: flow.CoarsenOptions{
			TargetRatio: sp.CoarsenRatio,
			Lossless:    sp.Coarsen == "lossless",
		},
	}
}

// newEvaluator builds a fresh evaluator for the model. Engines reuse
// scratch buffers internally, so one is built per request/job rather than
// shared.
func (sp *PlaceSpec) newEvaluator(m *flow.Model) flow.Evaluator {
	if sp.Engine == "big" {
		return flow.NewBig(m)
	}
	return flow.NewFloat(m)
}

// cacheKey identifies a placement result: same graph, graph version,
// sources, algorithm, budget, engine and seed ⇒ same result. version is
// the graph's patch count, so a job still in flight when a PATCH commits
// writes its result under the superseded version and can never be served
// for the mutated graph — invalidateGraph reclaims the memory, the
// version keeps the correctness. Parallelism is deliberately absent:
// placements are bit-for-bit identical at every setting, so concurrent
// requests differing only in parallelism dedup onto one job.
func (sp *PlaceSpec) cacheKey(graphID string, version int64, sources []int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s|v%d|%s|%d|%s|%d|q%g|b%d|c%s|r%g|", graphID, version, sp.Algorithm, sp.K, sp.Engine, sp.Seed, sp.Quality, sp.SampleBudget, sp.Coarsen, sp.CoarsenRatio)
	for _, s := range sources {
		fmt.Fprintf(&b, "%d,", s)
	}
	return b.String()
}

// execute runs the placement through core.Place and evaluates the paper's
// report quantities for the chosen filter set. metrics (optional) receives
// the per-job worker gauge and the oracle-call counter; tc (optional)
// receives the tenant-level attribution of the same work — core.Place
// charges it post-algorithm, so accounting can never perturb placements.
// A trace carried by ctx (async jobs attach one) records the evaluator
// build and the per-stage placement timing.
func (sp *PlaceSpec) execute(ctx context.Context, m *flow.Model, graphID string, metrics *Metrics, tc *obs.TenantCounters) (*PlaceResult, error) {
	info, err := core.LookupStrategy(sp.Algorithm)
	if err != nil {
		return nil, err
	}
	tr := obs.TraceFrom(ctx)
	bsp := tr.Begin("build-evaluator")
	ev := sp.newEvaluator(m)
	bsp.End()
	if metrics != nil {
		metrics.PlaceWorkersBusy.Add(int64(max(sp.Parallelism, 1)))
		defer metrics.PlaceWorkersBusy.Add(-int64(max(sp.Parallelism, 1)))
	}
	opts := sp.options()
	opts.Trace, opts.Tenant, opts.Account = tr, tc.Name(), tc
	pres, err := core.Place(ctx, ev, sp.K, opts)
	if err != nil {
		return nil, err
	}
	if cs := pres.CoarsenStats; cs != nil {
		contracted := int64(cs.NodesBefore - cs.NodesAfter)
		if metrics != nil {
			metrics.CoarsenPlacements.Add(1)
			metrics.CoarsenNodesContracted.Add(contracted)
			metrics.CoarsenRounds.Add(int64(cs.Rounds))
			if cs.LosslessOnly {
				metrics.CoarsenLossless.Add(1)
			}
		}
		tc.AddCoarsen(contracted)
	}
	if metrics != nil {
		metrics.OracleEvaluations.Add(int64(pres.Stats.GainEvaluations))
		// Only estimate-driven runs enter the Approx* series: mlcelf
		// samples only when the quality knobs ask it to.
		if pres.Stats.SampledEvaluations > 0 {
			metrics.ApproxPlacements.Add(1)
			metrics.ApproxSampledEvaluations.Add(int64(pres.Stats.SampledEvaluations))
			metrics.ApproxExactRechecks.Add(int64(pres.Stats.GainEvaluations))
		}
	}
	filters := pres.Filters
	if filters == nil {
		filters = []int{} // serialize as [], not null
	}
	k := sp.K
	if info.Kless {
		k = len(filters) // report the budget actually used
	}
	mask := flow.MaskOf(m.N(), filters)
	res := &PlaceResult{
		GraphID:     graphID,
		Algorithm:   sp.Algorithm,
		K:           k,
		Filters:     filters,
		PhiEmpty:    ev.Phi(nil),
		PhiA:        ev.Phi(mask),
		F:           ev.F(mask),
		FR:          flow.FR(ev, mask),
		Parallelism: pres.Parallelism,
	}
	if pres.Stats != (core.OracleStats{}) {
		st := pres.Stats
		res.Oracle = &st
	}
	if pres.Passes != (core.PassStats{}) {
		ps := pres.Passes
		res.Passes = &ps
	}
	if pres.PhiCI != nil {
		ci := *pres.PhiCI
		res.PhiCI = &ci
	}
	if pres.CoarsenStats != nil {
		cs := *pres.CoarsenStats
		res.Coarsen = &cs
	}
	if g := m.Graph(); g.HasLabels() {
		res.Labels = make([]string, len(filters))
		for i, v := range filters {
			res.Labels[i] = g.Label(v)
		}
	}
	return res, nil
}
