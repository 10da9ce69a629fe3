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
	// the serial tie-breaking order. Parallel execution needs the
	// evaluator to implement flow.Cloner (candidate sharding) or
	// flow.ParallelEvaluator (level-parallel passes); otherwise the
	// strategy silently runs serially and Result.Parallelism reports 1.
	Parallelism int
	// Seed drives the randomized baselines (ignored elsewhere).
	Seed int64
	// Rand, when non-nil, overrides Seed with an existing stream —
	// experiment harnesses average baselines over a shared rng.
	Rand *rand.Rand
	// Trace, when non-nil, records per-stage timing spans (greedy rounds,
	// CELF init/rechecks, naive rounds) for observability. Stages wrap
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
	// Coarsen configures ml-celf's graph contraction (ignored by every
	// other strategy): TargetRatio bounds how far bounded rounds shrink
	// the graph and Lossless restricts contraction to the exactness-
	// preserving rules. The zero value coarsens to fixpoint with twin
	// merging allowed.
	Coarsen flow.CoarsenOptions
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
	if r := o.Coarsen.TargetRatio; r < 0 || r > 1 {
		return fmt.Errorf("core: coarsen target ratio %v outside [0, 1]", r)
	}
	if o.Coarsen.MaxRounds < 0 {
		return fmt.Errorf("core: coarsen max rounds = %d is negative", o.Coarsen.MaxRounds)
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
	// an execution measurement, not part of the deterministic contract:
	// unlike Stats, it may differ across Parallelism settings because
	// parallel CELF runs speculative evaluations whose passes execute even
	// when their results are discarded by the serial-replay commit.
	Passes PassStats
	// PhiCI, set by approx-celf only, is the sampling engine's confidence
	// interval on Φ(A) for the returned filter set. ml-celf propagates it
	// only from lossless runs, where the quotient objective it estimates
	// IS the original Φ.
	PhiCI *flow.MCResult
	// CoarsenStats, set by ml-celf only, reports what the contraction did.
	// LosslessOnly means the placement is bit-for-bit StrategyCELF's.
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
// the CELF/naive ablation profiles) behind one entry point with shared
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
	case StrategyGreedyAll:
		err = placeGreedyAll(ctx, ev, k, opts, &res)
	case StrategyCELF:
		err = placeCELF(ctx, ev, k, opts, &res)
	case StrategyNaive:
		err = placeNaive(ctx, ev, k, opts, &res)
	case StrategyApproxCELF:
		err = placeApproxCELF(ctx, ev, k, opts, &res)
	case StrategyMLCELF:
		err = placeMultilevel(ctx, ev, k, opts, &res)
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
		// Accumulate rather than assign: ml-celf has already charged its
		// quotient engine's passes to res.Passes.
		f, s := passCounter.Passes()
		res.Passes.Forward += f - passF0
		res.Passes.Suffix += s - passS0
	}
	opts.Account.AddPlacement(int64(res.Stats.GainEvaluations), int64(res.Stats.SampledEvaluations), res.Passes.Forward, res.Passes.Suffix)
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

// placeGreedyAll runs the closed-form greedy: per round one forward and
// one backward pass yield every candidate's exact gain.
func placeGreedyAll(ctx context.Context, ev flow.Evaluator, k int, opts Options, res *Result) error {
	n := ev.Model().N()
	pe, canPar := ev.(flow.ParallelEvaluator)
	procs := opts.Parallelism
	if procs > 1 && canPar {
		res.Parallelism = procs
	} else {
		procs = 1
	}
	filters := make([]bool, n)
	chosen := make([]int, 0, k)
	for len(chosen) < k {
		if err := ctx.Err(); err != nil {
			return err
		}
		sp := opts.Trace.Begin("greedy-round")
		var v int
		var gain float64
		if procs > 1 {
			v, gain = pe.ArgmaxImpactP(filters, filters, procs)
		} else {
			v, gain = ev.ArgmaxImpact(filters, filters)
		}
		sp.AddEvals(int64(n))
		sp.SetWorkers(procs)
		sp.End()
		res.Stats.GainEvaluations += n
		if v < 0 || gain <= 0 {
			break // no further filter reduces multiplicity
		}
		filters[v] = true
		chosen = append(chosen, v)
		res.Stats.Iterations++
	}
	res.Filters = chosen
	return nil
}

// evalPool shards per-candidate exact gain evaluations Φ(A) − Φ(A∪{v})
// across cloned evaluators. Gains are bit-for-bit those of the serial
// loop: every candidate is evaluated by the same arithmetic against the
// same base, just on a clone's private scratch state. Shards execute as
// tasks on the process-wide sched.Default pool, so concurrent placements
// (a PlaceBatch gang, parallel fpd jobs) interleave their oracle work on
// shared workers instead of spawning goroutines per round. The shard
// count — and thus the per-shard arithmetic and the CELF batch width —
// depends only on Options.Parallelism, never on pool size.
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
	procs := min(len(p.clones), len(cands))
	chunk := (len(cands) + procs - 1) / procs
	errs := make([]error, procs)
	batch := sched.Default().NewBatch().SetTag(p.tag)
	for w := 0; w < procs; w++ {
		lo, hi := w*chunk, min((w+1)*chunk, len(cands))
		if lo >= hi {
			break
		}
		w, lo, hi := w, lo, hi
		batch.Go(func() {
			// The shard→clone binding is by shard index, not by executing
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
	}
	batch.Wait()
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

// celfEntry is a lazy-greedy heap entry: a gain upper bound for node v,
// valid as of greedy round stamp.
type celfEntry struct {
	gain  float64
	v     int
	stamp int
}

// celfLess orders entries by priority: larger gain first, ties toward the
// smaller node id (so results match greedy-all exactly).
func celfLess(a, b celfEntry) bool { // is a lower priority than b?
	if a.gain != b.gain {
		return a.gain < b.gain
	}
	return a.v > b.v
}

// celfHeap is a max-heap of celfEntry under celfLess.
type celfHeap []celfEntry

func (h *celfHeap) push(e celfEntry) {
	*h = append(*h, e)
	a := *h
	i := len(a) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !celfLess(a[p], a[i]) {
			break
		}
		a[p], a[i] = a[i], a[p]
		i = p
	}
}

func (h *celfHeap) pop() celfEntry {
	a := *h
	top := a[0]
	last := len(a) - 1
	a[0] = a[last]
	a = a[:last]
	*h = a
	i := 0
	for {
		l, r, big := 2*i+1, 2*i+2, i
		if l < len(a) && celfLess(a[big], a[l]) {
			big = l
		}
		if r < len(a) && celfLess(a[big], a[r]) {
			big = r
		}
		if big == i {
			break
		}
		a[i], a[big] = a[big], a[i]
		i = big
	}
	return top
}

// placeCELF is lazy greedy (Leskovec et al.'s CELF applied to filter
// placement). Submodularity guarantees a node's gain never increases as
// the filter set grows, so stale upper bounds defer most re-evaluations.
//
// Parallel mode pops stale entries in batches of up to Parallelism,
// evaluates their exact gains concurrently on cloned evaluators, then
// replays the serial commit order against the precomputed values: an
// evaluation is committed (counted, re-stamped with the current round)
// only up to the point where the serial loop would have found a fresh
// entry on top of the heap; speculative evaluations beyond that point are
// discarded and their entries pushed back untouched. The heap therefore
// evolves exactly as in the serial run — filter set AND OracleStats are
// bit-for-bit identical at every Parallelism setting.
func placeCELF(ctx context.Context, ev flow.Evaluator, k int, opts Options, res *Result) error {
	m := ev.Model()
	n := m.N()
	pool := newEvalPool(ev, opts.Parallelism, opts.Tenant)
	defer pool.close()
	res.Parallelism = pool.width()
	filters := make([]bool, n)
	chosen := make([]int, 0, k)
	st := &res.Stats

	sp := opts.Trace.Begin("celf-init")
	gains := impactsOf(ev, filters, opts.Parallelism, res) // initial exact gains, batch computed
	sp.AddEvals(int64(n))
	sp.SetWorkers(res.Parallelism)
	sp.End()
	st.GainEvaluations += n
	var h celfHeap
	for v := 0; v < n; v++ {
		if !m.IsSource(v) && gains[v] > 0 {
			h.push(celfEntry{gains[v], v, 0})
		}
	}

	round := 0
	batch := make([]celfEntry, 0, pool.width())
	nodes := make([]int, 0, pool.width())
	for len(chosen) < k && len(h) > 0 {
		if err := ctx.Err(); err != nil {
			return err
		}
		if h[0].stamp == round {
			// Fresh: by submodularity no other node can beat it.
			top := h.pop()
			filters[top.v] = true
			chosen = append(chosen, top.v)
			round++
			st.Iterations++
			continue
		}
		// Stale top: pop the next batch of stale entries in heap order
		// (descending priority) and prefetch their exact gains.
		batch, nodes = batch[:0], nodes[:0]
		for len(h) > 0 && h[0].stamp != round && len(batch) < pool.width() {
			e := h.pop()
			batch = append(batch, e)
			nodes = append(nodes, e.v)
		}
		rsp := opts.Trace.Begin("celf-recheck")
		prefetched, err := pool.gains(ctx, filters, nodes)
		rsp.AddEvals(int64(len(nodes)))
		rsp.SetWorkers(pool.width())
		rsp.End()
		if err != nil {
			return err
		}
		// Replay the serial commit order: the serial loop evaluates stale
		// tops one at a time and stops as soon as the heap top is fresh —
		// i.e. as soon as the best re-evaluated gain outranks the next
		// stale bound. Entries past that point stay stale and uncounted.
		for i := range batch {
			st.GainEvaluations++
			if g := prefetched[i]; g > 0 {
				h.push(celfEntry{g, batch[i].v, round})
			}
			if i+1 < len(batch) && len(h) > 0 && h[0].stamp == round && celfLess(batch[i+1], h[0]) {
				for _, rest := range batch[i+1:] {
					h.push(rest) // untouched: stale bound, old stamp
				}
				break
			}
		}
	}
	res.Filters = chosen
	return nil
}
