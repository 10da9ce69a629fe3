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
// the Model and are computed once per model: the first NewFloat runs one
// forward pass for them (two on weighted models), every later one runs
// none, so building an engine per request costs O(1) plus a scratch arena
// borrowed on first use.
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
// engine computes Φ(∅,V) and F(V) (one forward pass on unweighted models,
// two on weighted ones, counted on that engine); later engines reuse them
// and run no pass.
func NewFloat(m *Model) *FloatEngine {
	e := &FloatEngine{m: m, p: m.Plan(), src: m.planSources(), pc: &passCount{}}
	inv := m.inv
	inv.floatOnce.Do(func() {
		var passes int64
		inv.phiEmpty, inv.maxF, passes = e.p.invariants(e.src)
		e.pc.fwd.Add(passes)
	})
	e.phiEmpty, e.maxF = inv.phiEmpty, inv.maxF
	return e
}

// invariants computes Φ(∅,V) and F(V) over the plan-order source mask
// src and reports how many forward passes that took.
//
// Φ(∅,V) is one pass with no filters. F(V) needs Φ(V,V), every non-source
// node filtered. On unweighted plans that has a closed form: a filter
// emits one copy exactly when it receives any, so every node the sources
// reach emits 1 and every other node 0. Φ(V,V) is then the number of
// edges whose tail is reached — the out-degrees of the nodes with
// emit > 0 in the Φ(∅) pass — plus, on coarse plans, mulW over the
// reached nodes. Every partial sum, there and in the second pass, is an
// integer bounded by the graph's size, far below 2^53, so the result is
// bit-for-bit that of the second pass, Φ(∅) = +Inf included. Weighted
// plans emit fractions and run the second pass.
func (p *Plan) invariants(src []bool) (phiEmpty, maxF float64, passes int64) {
	s := p.getScratch()
	defer p.putScratch(s)
	p.forwardRange(src, p.falseMask, 0, s.rec, s.emit, 0, p.n)
	phiEmpty = p.sumPhi(s.rec, s.emit)
	if p.weighted {
		for i, isSrc := range src {
			s.fmask[i] = !isSrc
		}
		p.forwardRange(src, s.fmask, 0, s.rec, s.emit, 0, p.n)
		return phiEmpty, phiEmpty - p.sumPhi(s.rec, s.emit), 2
	}
	var edges, mul float64
	for i, e := range s.emit {
		if e > 0 {
			edges += float64(p.outOff[i+1] - p.outOff[i])
			if p.mulW != nil {
				mul += p.mulW[i]
			}
		}
	}
	return phiEmpty, phiEmpty - (edges + mul), 1
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
// duplicates; 0 is the paper's perfect filter. procs > 1 shards each
// topological level across that many scheduler chunks.
func (e *FloatEngine) passes(filters []bool, leak float64, withSuffix bool, procs int) *floatScratch {
	sc := e.scratch()
	fm := e.p.fillMask(sc.fmask, filters)
	e.p.forwardLevels(e.src, fm, leak, sc.rec, sc.emit, procs)
	e.pc.fwd.Add(1)
	if withSuffix {
		e.p.suffixLevels(fm, leak, sc.suf, procs)
		e.pc.suf.Add(1)
	}
	return sc
}

// Passes implements PassCounter.
func (e *FloatEngine) Passes() (forward, suffix int64) {
	return e.pc.fwd.Load(), e.pc.suf.Load()
}

func (e *FloatEngine) phi(filters []bool) float64 {
	sc := e.passes(filters, 0, false, 1)
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
	sc := e.passes(filters, 0, false, 1)
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
func (e *FloatEngine) Impacts(filters []bool) []float64 { return e.ImpactsP(filters, 1) }

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
	return e.ArgmaxImpactP(filters, banned, 1)
}

// F implements Evaluator.
func (e *FloatEngine) F(filters []bool) float64 { return e.phiEmpty - e.Phi(filters) }

// MaxF implements Evaluator.
func (e *FloatEngine) MaxF() float64 { return e.maxF }
