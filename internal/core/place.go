package core

import (
	"context"
	"fmt"
	"math/rand"

	"repro/internal/flow"
	"repro/internal/obs"
	"repro/internal/sched"
)

// Options configures Place. The zero value runs serial greedy-all.
type Options struct {
	// Strategy selects the algorithm by core, short or legacy name (see
	// LookupStrategy); empty means StrategyGreedyAll.
	Strategy Strategy
	// Parallelism bounds how many shards one greedy round's marginal-gain
	// evaluation splits into; values ≤ 1 run serially. Shards execute on
	// the process-wide scheduler (internal/sched), whose worker count —
	// not this field — bounds actual CPU concurrency. Results are
	// bit-for-bit identical to the serial path at any setting of either
	// knob: candidate work is sharded deterministically and reduced with
	// the serial tie-breaking order. Greedy-all, celf, ml-celf and
	// greedy-max run level-parallel passes and need a
	// flow.ParallelEvaluator; naive and approx-celf's exact rechecks shard
	// candidates across clones and need a flow.Cloner. Otherwise the
	// strategy silently runs serially and Result.Parallelism reports 1.
	Parallelism int
	// Seed drives the randomized baselines (ignored elsewhere).
	Seed int64
	// Rand, when non-nil, overrides Seed with an existing stream —
	// experiment harnesses average baselines over a shared rng.
	Rand *rand.Rand
	// Trace, when non-nil, records per-stage timing spans (greedy rounds,
	// naive rounds, coarsening) for observability. Stages wrap
	// whole rounds — never the pass kernels — so tracing cannot perturb
	// the bit-identical arithmetic. A nil Trace records nothing and never
	// reads the clock.
	Trace *obs.Trace
	// Tenant tags the scheduler batches this placement submits, so the
	// pool's queue-wait sampler can attribute wait time to the requesting
	// tenant. Purely observational: tags never affect scheduling order or
	// results. Empty leaves batches untagged.
	Tenant string
	// Account, when non-nil, receives this placement's total oracle
	// evaluations and topological pass counts when Place returns (on
	// success, error and cancellation alike — the work was done either
	// way). Accounting happens strictly after the algorithm finishes, so
	// placements are bit-identical with accounting on or off.
	Account *obs.TenantCounters
	// Quality is approx-celf's target relative estimate error ε: smaller
	// values buy more sampled passes and a higher edge-sampling rate.
	// 0 means DefaultQuality; values are clamped to [0.005, 0.5].
	// Ignored by every other strategy.
	Quality float64
	// SampleBudget, when > 0, overrides the Quality-derived number of
	// sampled passes per estimate (flow.SampleOptions.Samples).
	// Ignored by every other strategy.
	SampleBudget int
	// SampleSeed drives approx-celf's deterministic sampling streams.
	// Independent of Seed (which feeds the randomized baselines) so the
	// two knobs cannot alias.
	SampleSeed int64
}

// Validate checks every option field against its documented domain. It is
// the single validation authority for placement options: core.Place runs
// it before dispatching, and the fpd HTTP layer and the CLI call it on the
// options they are about to submit, so a bad knob produces the same error
// no matter which surface it arrived through.
func (o Options) Validate() error {
	if o.Strategy != "" {
		if _, err := LookupStrategy(string(o.Strategy)); err != nil {
			return fmt.Errorf("core: %w", err)
		}
	}
	if o.Parallelism < 0 {
		return fmt.Errorf("core: parallelism = %d is negative", o.Parallelism)
	}
	if o.Quality < 0 || o.Quality > 0.5 {
		return fmt.Errorf("core: quality = %v outside [0, 0.5]", o.Quality)
	}
	if o.SampleBudget < 0 {
		return fmt.Errorf("core: sample_budget = %d is negative", o.SampleBudget)
	}
	return nil
}

// Result is a placement outcome.
type Result struct {
	// Filters lists the placed nodes in the order chosen (greedy
	// strategies) or ascending order (set-valued strategies); it may be
	// shorter than k when further filters cannot improve the objective.
	Filters []int
	// Stats counts the objective-function work done. For a given
	// strategy it is identical at every Parallelism setting.
	Stats OracleStats
	// Strategy echoes the core name of the algorithm that ran.
	Strategy Strategy
	// Parallelism is the worker count actually used (1 when the
	// evaluator cannot parallelize or the strategy is inherently serial).
	Parallelism int
	// Passes counts the topological passes this placement executed, when
	// the evaluator exposes them (flow.PassCounter); zero otherwise. It is
	// an execution measurement of the caller's engine (plus the quotient
	// engine when the exact path coarsened), not part of the deterministic
	// contract Stats carries; approx-celf's sampled passes are not counted
	// here.
	Passes PassStats
	// PhiCI, set by approx-celf only, is the sampling engine's confidence
	// interval on Φ(A) for the returned filter set.
	PhiCI *flow.MCResult
	// CoarsenStats reports what the contraction did when greedy-all, celf
	// or ml-celf ran on a lossless quotient. It is nil when the placement
	// ran on the original graph: coarsening would not have paid, or the
	// model or engine cannot be coarsened.
	CoarsenStats *flow.CoarsenStats
}

// PassStats counts forward (Φ/receive) and suffix (amplification)
// topological passes executed over the graph. Passes are the engine-level
// unit of work behind every oracle call; one gain evaluation costs one
// forward pass, plus one suffix pass for closed-form gain rounds.
type PassStats struct {
	Forward int64 `json:"forward_passes"`
	Suffix  int64 `json:"suffix_passes"`
}

// Place is the unified placement engine: every algorithm of the paper (and
// the naive ablation profile) behind one entry point with shared
// context plumbing, oracle accounting and an optional parallel inner loop
// scheduled on the process-wide worker pool. It returns ctx.Err() when
// canceled mid-placement; every work unit it submitted to the scheduler
// is joined before it returns, and the returned Result carries no filters
// but does report the oracle work done up to the abort. For many graphs
// at once, PlaceBatch shares the pool across all of them.
func Place(ctx context.Context, ev flow.Evaluator, k int, opts Options) (Result, error) {
	if err := opts.Validate(); err != nil {
		return Result{}, err
	}
	if opts.Strategy == "" {
		opts.Strategy = StrategyGreedyAll
	}
	opts.Strategy = strategyByName[string(opts.Strategy)].Name
	if opts.Parallelism < 1 {
		opts.Parallelism = 1
	}
	res := Result{Strategy: opts.Strategy, Parallelism: 1}
	if err := ctx.Err(); err != nil {
		return Result{}, err
	}
	// Snapshot cumulative pass counts so Result.Passes is this placement's
	// delta, excluding the invariant passes run at engine construction.
	var passF0, passS0 int64
	passCounter, hasPasses := ev.(flow.PassCounter)
	if hasPasses {
		passF0, passS0 = passCounter.Passes()
	}
	var err error
	switch opts.Strategy {
	case StrategyGreedyAll, StrategyCELF, StrategyMLCELF:
		err = placeExact(ctx, ev, k, opts, &res)
	case StrategyNaive:
		err = placeNaive(ctx, ev, k, opts, &res)
	case StrategyApproxCELF:
		err = placeApproxCELF(ctx, ev, k, opts, &res)
	case StrategyGreedyMax:
		n := ev.Model().N()
		res.Filters = topK(impactsOf(ev, nil, opts.Parallelism, &res), k)
		res.Stats.GainEvaluations += n
	case StrategyGreedy1:
		res.Filters = greedy1(ev.Model().Graph(), k)
	case StrategyGreedyL:
		res.Filters = greedyL(ev, k)
	case StrategyRandK:
		res.Filters = RandK(ev.Model(), k, opts.rng())
	case StrategyRandI:
		res.Filters = RandI(ev.Model(), k, opts.rng())
	case StrategyRandW:
		res.Filters = RandW(ev.Model(), k, opts.rng())
	case StrategyProp1:
		res.Filters = UnboundedOptimal(ev.Model().Graph())
	default:
		return Result{}, fmt.Errorf("core: strategy %q has no implementation", opts.Strategy)
	}
	if hasPasses {
		// Accumulate rather than assign: a placement that ran on a quotient
		// has already charged the quotient engine's passes to res.Passes.
		f, s := passCounter.Passes()
		res.Passes.Forward += f - passF0
		res.Passes.Suffix += s - passS0
	}
	acct := opts.Account
	acct.Add(obs.Placements, 1)
	acct.Add(obs.OracleEvaluations, int64(res.Stats.GainEvaluations))
	acct.Add(obs.SampledEvaluations, int64(res.Stats.SampledEvaluations))
	acct.Add(obs.ForwardPasses, res.Passes.Forward)
	acct.Add(obs.SuffixPasses, res.Passes.Suffix)
	if err != nil {
		res.Filters = nil // partial placements are not usable results
		return res, err
	}
	return res, nil
}

func (o Options) rng() *rand.Rand {
	if o.Rand != nil {
		return o.Rand
	}
	return rand.New(rand.NewSource(o.Seed))
}

// impactsOf computes all marginal gains, through the level-parallel pass
// when available, recording the effective parallelism.
func impactsOf(ev flow.Evaluator, filters []bool, procs int, res *Result) []float64 {
	if procs > 1 {
		if pe, ok := ev.(flow.ParallelEvaluator); ok {
			res.Parallelism = procs
			return pe.ImpactsP(filters, procs)
		}
	}
	return ev.Impacts(filters)
}

// evalPool shards per-candidate exact gain evaluations Φ(A) − Φ(A∪{v})
// across cloned evaluators, for the strategies that price candidates one
// Φ pass at a time (naive, approx-celf's exact rechecks). Gains are
// bit-for-bit those of the serial loop: every candidate is evaluated by
// the same arithmetic against the same base, just on a clone's private
// scratch state. Shards execute as
// tasks on the process-wide sched.Default pool, so concurrent placements
// (a PlaceBatch gang, parallel fpd jobs) interleave their oracle work on
// shared workers instead of spawning goroutines per round. The shard
// count — and thus the per-shard arithmetic — depends only on
// Options.Parallelism, never on pool size.
type evalPool struct {
	root   flow.Evaluator
	clones []flow.Evaluator
	masks  [][]bool
	// plan is the arena the masks were borrowed from (nil when serial).
	plan *flow.Plan
	// tag labels the pool's scheduler batches for tenant attribution.
	tag string
	// gainsBuf backs the slice gains returns; reused across rounds, so a
	// result is only valid until the next gains call.
	gainsBuf []float64
}

func newEvalPool(ev flow.Evaluator, procs int, tag string) *evalPool {
	p := &evalPool{root: ev, tag: tag}
	c, ok := ev.(flow.Cloner)
	if !ok || procs <= 1 {
		return p
	}
	p.plan = ev.Model().Plan()
	for i := 0; i < procs; i++ {
		p.clones = append(p.clones, c.Clone())
		p.masks = append(p.masks, p.plan.GetMask())
	}
	return p
}

// width is the worker count gains can use.
func (p *evalPool) width() int {
	return max(len(p.clones), 1)
}

// close returns the pool's borrowed arenas — the per-shard candidate
// masks and every clone's scratch — to the plan pool, so back-to-back
// placements on one graph reuse memory instead of re-allocating O(N)
// state per call. The caller's root evaluator is left untouched: its
// arena stays borrowed for the engine's own lifetime.
func (p *evalPool) close() {
	for _, mask := range p.masks {
		p.plan.PutMask(mask)
	}
	p.masks = nil
	for _, c := range p.clones {
		if r, ok := c.(flow.ScratchReleaser); ok {
			r.ReleaseScratch()
		}
	}
	p.clones = nil
}

// gains returns gain[i] = Φ(A) − Φ(A ∪ {cands[i]}) for the current filter
// mask. The mask is only toggled one candidate at a time and restored, on
// the caller's slice when serial and on private copies when parallel.
// The returned slice aliases a reusable buffer valid until the next gains
// call. On cancellation it returns ctx.Err() after joining every worker.
func (p *evalPool) gains(ctx context.Context, filters []bool, cands []int) ([]float64, error) {
	if cap(p.gainsBuf) < len(cands) {
		p.gainsBuf = make([]float64, len(cands))
	}
	out := p.gainsBuf[:len(cands)]
	if len(cands) == 0 {
		return out, nil
	}
	base := p.root.Phi(filters)
	if len(p.clones) == 0 {
		for i, v := range cands {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			filters[v] = true
			out[i] = base - p.root.Phi(filters)
			filters[v] = false
		}
		return out, nil
	}
	errs := make([]error, len(p.clones))
	sched.Split(p.tag, 0, len(cands), len(p.clones), func(w, lo, hi int) {
		// The shard→clone binding is by chunk index, not by executing
		// goroutine, so the arithmetic is identical wherever the
		// scheduler runs the task.
		ev, mask := p.clones[w], p.masks[w]
		copy(mask, filters)
		for i := lo; i < hi; i++ {
			if err := ctx.Err(); err != nil {
				errs[w] = err
				return
			}
			v := cands[i]
			mask[v] = true
			out[i] = base - ev.Phi(mask)
			mask[v] = false
		}
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// placeNaive is the paper's cost profile: every round re-evaluates every
// candidate, sharded across the pool.
func placeNaive(ctx context.Context, ev flow.Evaluator, k int, opts Options, res *Result) error {
	m := ev.Model()
	n := m.N()
	pool := newEvalPool(ev, opts.Parallelism, opts.Tenant)
	defer pool.close()
	res.Parallelism = pool.width()
	filters := make([]bool, n)
	chosen := make([]int, 0, k)
	cands := make([]int, 0, n)
	for len(chosen) < k {
		if err := ctx.Err(); err != nil {
			return err
		}
		cands = cands[:0]
		for v := 0; v < n; v++ {
			if !filters[v] && !m.IsSource(v) {
				cands = append(cands, v)
			}
		}
		sp := opts.Trace.Begin("naive-round")
		gains, err := pool.gains(ctx, filters, cands)
		sp.AddEvals(int64(len(cands)))
		sp.SetWorkers(pool.width())
		sp.End()
		if err != nil {
			return err
		}
		res.Stats.GainEvaluations += len(cands)
		best, bestGain := -1, 0.0
		for i, v := range cands {
			if gains[i] > bestGain {
				best, bestGain = v, gains[i]
			}
		}
		if best < 0 {
			break
		}
		filters[best] = true
		chosen = append(chosen, best)
		res.Stats.Iterations++
	}
	res.Filters = chosen
	return nil
}
