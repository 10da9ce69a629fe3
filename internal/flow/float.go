package flow

// FloatEngine evaluates the objective in float64 arithmetic. It is the
// default engine for experiments: path counts up to ~1e308 are representable
// and greedy algorithms only compare magnitudes, so the loss of exactness
// for astronomically large counts is immaterial in practice. It is also the
// only engine that supports the probabilistic (edge-weighted) model.
//
// Every pass — serial or level-parallel — executes over the model's shared
// execution Plan: the flat forwardRange/suffixRange kernels sweep
// level-packed, plan-indexed buffers sequentially, and per-query results
// are translated back to original node ids at the boundary. The kernels
// accumulate each node's neighbors in exactly the pre-plan order, so
// results are bit-for-bit those of the historical per-node engine (the
// reference suite in plan_test.go pins this).
//
// The invariants — the plan-order source mask, Φ(∅,V) and F(V) — live on
// the Model and are computed once per model: the first NewFloat runs two
// forward passes for them, every later one runs none, so building an
// engine per request costs O(1) plus a scratch arena borrowed on first
// use.
//
// The hot paths (Phi, F, ArgmaxImpact — the inner loop of Greedy_All)
// reuse a scratch arena borrowed from the plan's pool, so a FloatEngine is
// not safe for concurrent use. Concurrent callers — the parallel candidate
// sharding in core.Place — call Clone, which shares the immutable Model,
// Plan and cached invariants but borrows its own arena on first use;
// ReleaseScratch hands the arena back when a clone or a request-scoped
// engine retires. Methods returning slices (Received, Suffix, Impacts)
// always return freshly allocated results.
type FloatEngine struct {
	m *Model
	p *Plan
	// src, phiEmpty (Φ(∅,V)) and maxF (F(V)) are read from the model's
	// invariant cache; immutable, shared by clones.
	src      []bool
	phiEmpty float64
	maxF     float64
	// sc is the engine's borrowed scratch arena (nil until first use).
	sc *floatScratch
	// pc counts topological passes; shared with every clone.
	pc *passCount
}

// NewFloat builds a float64 evaluator for the model. The model's first
// engine computes Φ(∅,V) and F(V) (two forward passes, counted on that
// engine); later engines reuse them and run no pass.
func NewFloat(m *Model) *FloatEngine {
	e := &FloatEngine{m: m, p: m.Plan(), src: m.planSources(), pc: &passCount{}}
	inv := m.inv
	inv.floatOnce.Do(func() {
		inv.phiEmpty, inv.maxF = e.p.invariants(e.src)
		e.pc.fwd.Add(2)
	})
	e.phiEmpty, e.maxF = inv.phiEmpty, inv.maxF
	return e
}

// invariants runs the two forward passes behind Φ(∅,V) and F(V) — no
// filters, then every non-source node filtered — over the plan-order
// source mask src.
func (p *Plan) invariants(src []bool) (phiEmpty, maxF float64) {
	s := p.getScratch()
	defer p.putScratch(s)
	p.forwardRange(src, p.falseMask, 0, s.rec, s.emit, 0, p.n)
	phiEmpty = p.sumPhi(s.rec, s.emit)
	for i, isSrc := range src {
		s.fmask[i] = !isSrc
	}
	p.forwardRange(src, s.fmask, 0, s.rec, s.emit, 0, p.n)
	return phiEmpty, phiEmpty - p.sumPhi(s.rec, s.emit)
}

// Invariants returns Φ(∅,V) and F(V) — the Filter-Ratio denominator — of
// the model over p with the given sources, by the same passes NewFloat's
// invariant cache runs, so the values are bit-for-bit those of a
// FloatEngine over an equal plan. dyn.Maintainer reads them from every
// fresh Splicer plan.
func (p *Plan) Invariants(sources []int) (phiEmpty, maxF float64) {
	return p.invariants(p.fillMask(make([]bool, p.n), MaskOf(p.n, sources)))
}

// Model implements Evaluator.
func (e *FloatEngine) Model() *Model { return e.m }

// Clone implements Cloner: the returned engine shares the immutable Model,
// Plan and the cached Φ(∅,V)/F(V) invariants but borrows its own scratch
// arena, so it may be used from another goroutine concurrently with the
// receiver. Cloning is O(1); scratch is borrowed from the plan pool on
// first use and returned by ReleaseScratch.
func (e *FloatEngine) Clone() Evaluator {
	return &FloatEngine{m: e.m, p: e.p, src: e.src, phiEmpty: e.phiEmpty, maxF: e.maxF, pc: e.pc}
}

// ReleaseScratch implements ScratchReleaser: the engine's borrowed arena
// goes back to the plan pool. The engine stays usable — the next hot-path
// call borrows a fresh arena — but must not be released while another
// goroutine is using it. core.Place releases retiring candidate-shard
// clones through this.
func (e *FloatEngine) ReleaseScratch() {
	e.p.putScratch(e.sc)
	e.sc = nil
}

// scratch borrows the engine's arena on first use.
func (e *FloatEngine) scratch() *floatScratch {
	if e.sc == nil {
		e.sc = e.p.getScratch()
	}
	return e.sc
}

// passes runs the forward (and optionally suffix) pass into the engine's
// scratch arena and returns it, translating the original-id filter mask
// into plan order first. Every filter leaks a leak fraction of its
// duplicates; 0 is the paper's perfect filter.
func (e *FloatEngine) passes(filters []bool, leak float64, withSuffix bool) *floatScratch {
	sc := e.scratch()
	fm := e.p.fillMask(sc.fmask, filters)
	e.p.forwardRange(e.src, fm, leak, sc.rec, sc.emit, 0, e.p.n)
	e.pc.fwd.Add(1)
	if withSuffix {
		e.p.suffixRange(fm, leak, sc.suf, 0, e.p.n)
		e.pc.suf.Add(1)
	}
	return sc
}

// Passes implements PassCounter.
func (e *FloatEngine) Passes() (forward, suffix int64) {
	return e.pc.fwd.Load(), e.pc.suf.Load()
}

func (e *FloatEngine) phi(filters []bool) float64 {
	sc := e.passes(filters, 0, false)
	return e.p.sumPhi(sc.rec, sc.emit)
}

// Phi implements Evaluator.
func (e *FloatEngine) Phi(filters []bool) float64 {
	if filters == nil {
		return e.phiEmpty
	}
	return e.phi(filters)
}

// Received implements Evaluator.
func (e *FloatEngine) Received(filters []bool) []float64 {
	sc := e.passes(filters, 0, false)
	return e.p.scatter(sc.rec)
}

// Suffix implements Evaluator.
func (e *FloatEngine) Suffix(filters []bool) []float64 { return e.SuffixPartial(filters, 0) }

// gainsInto assembles the closed-form marginal gains of ρ-leaky filters,
// (1−ρ)·(rec−1)·suffix, from plan-indexed pass results into an
// original-id-indexed slice over [lo, hi).
func (e *FloatEngine) gainsInto(gains []float64, sc *floatScratch, filters []bool, leak float64, lo, hi int) {
	pos := e.p.pos
	for v := lo; v < hi; v++ {
		if e.m.isSrc[v] || (filters != nil && filters[v]) {
			continue
		}
		i := pos[v]
		r := sc.rec[i]
		excess := r - 1
		if r < 1 {
			excess = 0 // emission is unchanged by a filter when rec ≤ 1
		}
		gains[v] = (1 - leak) * excess * sc.suf[i]
	}
}

// Impacts implements Evaluator.
func (e *FloatEngine) Impacts(filters []bool) []float64 { return e.ImpactsPartial(filters, 0) }

// argmaxGains scans original ids [lo, hi) for the strictly largest
// positive gain, ties toward the smaller node id — the selection rule
// shared by the serial scan and each parallel shard.
func (e *FloatEngine) argmaxGains(sc *floatScratch, filters, banned []bool, lo, hi int) (int, float64) {
	pos := e.p.pos
	best, bestGain := -1, 0.0
	for v := lo; v < hi; v++ {
		if banned != nil && banned[v] {
			continue
		}
		if e.m.isSrc[v] || (filters != nil && filters[v]) {
			continue
		}
		// No rec ≤ 1 test: suffixes are non-negative, so such a gain is
		// ≤ 0 (or NaN) and never beats bestGain, and the scan stays free
		// of a branch on the data.
		i := pos[v]
		if gn := (sc.rec[i] - 1) * sc.suf[i]; gn > bestGain {
			best, bestGain = v, gn
		}
	}
	return best, bestGain
}

// ArgmaxImpact implements Evaluator. It is the Greedy_All inner loop and
// runs allocation-free over the engine's borrowed arena.
func (e *FloatEngine) ArgmaxImpact(filters, banned []bool) (int, float64) {
	sc := e.passes(filters, 0, true)
	return e.argmaxGains(sc, filters, banned, 0, e.p.n)
}

// F implements Evaluator.
func (e *FloatEngine) F(filters []bool) float64 { return e.phiEmpty - e.Phi(filters) }

// MaxF implements Evaluator.
func (e *FloatEngine) MaxF() float64 { return e.maxF }
