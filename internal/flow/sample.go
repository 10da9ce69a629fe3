package flow

import (
	"math"

	"repro/internal/sched"
)

// SamplingEngine estimates the objective with EDGE-SAMPLED topological
// passes over the model's shared execution Plan. Where the exact engines
// accumulate every in-edge of every node, a sampled forward pass visits
// only a per-node subset of a high-degree node's edges and scales the
// partial sum back up, so one pass costs O(V + rate·E) instead of
// O(V + E) — the lever that opens graphs where exact O(E)-per-pass
// evaluation is unaffordable. Low-degree rows (the overwhelming majority
// in power-law graphs) fall below the sampling floor and are computed
// exactly, so all of the variance concentrates on hubs, where averaging
// across many sampled edges is also most effective.
//
// Estimator. For node i with in-degree d above the floor, one pass
// visits m = ceil(rate·d) SYSTEMATICALLY sampled edges — evenly strided
// distinct indices with a random fractional offset, so each edge is
// included with probability exactly m/d from a single draw per row —
// and estimates
//
//	rec'(i) = (d/m) · Σ_t w(e_t)·emit'(e_t)
//
// an unbiased estimate of the exact recurrence given the upstream emit'
// values. Estimate error concentrates where a row's sampled values are
// heterogeneous: the engine is at its best on the hub-dominated
// propagation graphs the paper targets (many same-level inputs of
// comparable magnitude) and honest — via the reported interval — on
// deep graphs whose per-level noise compounds multiplicatively.
// The source/filter emission rule is applied to the estimate
// (emit' = 1 when rec' > 1 at a filter), which — exactly like the float
// engine's min(1, E[rec]) under the probabilistic model — introduces a
// small Jensen bias at filters; the engine therefore reports estimates,
// and callers that need guarantees (core's approx-celf) re-check the few
// decisions they commit on an exact engine. The suffix pass is sampled
// the same way over out-edges. An estimate averages Samples independent
// passes and reports Φ with an MCResult-style confidence interval from
// the per-pass spread.
//
// Determinism. Every random draw comes from a splitmix64 stream derived
// ONLY from (Seed, pass index, node id) — never from goroutine identity,
// chunk boundaries or scheduler state — so estimates are bit-for-bit
// reproducible for a given seed at ANY Parallelism and on any scheduler
// size, the same contract the exact parallel passes honor. Passes shard
// by topological level across sched.Default() exactly like the exact
// kernels.
//
// A SamplingEngine implements Evaluator (all results are estimates), is
// NOT safe for concurrent use, and follows the FloatEngine scratch
// discipline: Clone for concurrent callers, ReleaseScratch to hand the
// borrowed arena back.
type SamplingEngine struct {
	m *Model
	p *Plan
	// src is the plan-order source mask; immutable, shared by clones.
	src  []bool
	opts SampleOptions

	// phiEmpty caches the Φ(∅,V) estimate made at construction.
	phiEmpty MCResult
	// maxF lazily caches the F(V) estimate (one extra Φ estimate).
	maxF    float64
	maxFSet bool

	// sc is the per-pass working set borrowed from the plan arena.
	sc *floatScratch
	// acc accumulates across the Samples passes of one estimate.
	acc *sampleAcc
	// pc counts sampled topological passes; shared with every clone.
	pc *passCount
}

// SampleOptions configures a SamplingEngine.
type SampleOptions struct {
	// Samples is the number of independent sampled passes averaged per
	// estimate; the confidence interval tightens as 1/√Samples. 0 means
	// DefaultSamples.
	Samples int
	// EdgeRate is the fraction of a high-degree node's edges one sampled
	// pass visits; 0 means DefaultEdgeRate, values are clamped to (0,1].
	EdgeRate float64
	// MinEdges floors the per-node sampled edge count: rows whose floor
	// reaches their degree are computed exactly, so low-degree nodes
	// carry no sampling noise at all. 0 means DefaultMinSampleEdges.
	MinEdges int
	// Seed drives the deterministic per-node sample streams. A given
	// (Seed, Samples, EdgeRate) triple reproduces every estimate
	// bit-for-bit at any Parallelism.
	Seed int64
	// Parallelism bounds the level-parallel sharding of each sampled
	// pass on the shared scheduler. 0 means the scheduler's worker
	// count; 1 runs serially, as does a pool of zero workers. It never affects results.
	Parallelism int
}

// Defaults for SampleOptions zero fields.
const (
	DefaultSamples        = 8
	DefaultEdgeRate       = 0.25
	DefaultMinSampleEdges = 8

	// maxSamples bounds a request's per-estimate pass count.
	maxSamples = 256
)

// normalized applies defaults and clamps.
func (o SampleOptions) normalized() SampleOptions {
	if o.Samples <= 0 {
		o.Samples = DefaultSamples
	}
	if o.Samples > maxSamples {
		o.Samples = maxSamples
	}
	if o.EdgeRate <= 0 {
		o.EdgeRate = DefaultEdgeRate
	}
	if o.EdgeRate > 1 {
		o.EdgeRate = 1
	}
	if o.MinEdges <= 0 {
		o.MinEdges = DefaultMinSampleEdges
	}
	if o.Parallelism == 0 {
		o.Parallelism = sched.Default().Workers()
	}
	if o.Parallelism < 1 {
		o.Parallelism = 1
	}
	return o
}

// sampleAcc accumulates plan-indexed pass sums and per-pass Φ samples
// across the Samples passes of one estimate.
type sampleAcc struct {
	rec, suf []float64
	// gain is ORIGINAL-id-indexed per-pass marginal-gain sums.
	gain []float64
	// phi holds one Φ sample per pass.
	phi []float64
}

func (a *sampleAcc) ensure(n int) {
	if cap(a.rec) < n {
		a.rec = make([]float64, n)
		a.suf = make([]float64, n)
		a.gain = make([]float64, n)
	}
	a.rec, a.suf, a.gain = a.rec[:n], a.suf[:n], a.gain[:n]
	a.phi = a.phi[:0]
}

// splitmix64 mixing constants (Steele et al., "Fast splittable
// pseudorandom number generators").
const (
	sampleGamma uint64 = 0x9E3779B97F4A7C15
	suffixSalt  uint64 = 0xD1B54A32D192ED03
)

// mix64 is the splitmix64 finalizer: a bijective avalanche mix used to
// derive independent streams from (seed, pass, node) coordinates.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}

// nodeStream seeds node i's draw stream for one pass.
func nodeStream(passSeed uint64, i int) uint64 {
	return mix64(passSeed ^ mix64(uint64(i)+sampleGamma))
}

// rowOffset turns a row's draw into the systematic-sampling fractional
// offset in [0, stride): the one random quantity a sampled row consumes.
func rowOffset(draw uint64, stride float64) float64 {
	return float64(draw>>11) / (1 << 53) * stride
}

// NewSampling builds a sampling evaluator over the model's plan. The
// construction cost is one Φ(∅,V) estimate (Samples sampled forward
// passes); F(V) is estimated lazily on first MaxF use.
func NewSampling(m *Model, opts SampleOptions) *SamplingEngine {
	e := &SamplingEngine{m: m, p: m.Plan(), src: m.planSources(), opts: opts.normalized(), pc: &passCount{}}
	e.phiEmpty = e.PhiEstimate(nil)
	return e
}

// Model implements Evaluator.
func (e *SamplingEngine) Model() *Model { return e.m }

// Config returns the normalized options the engine runs with.
func (e *SamplingEngine) Config() SampleOptions { return e.opts }

// Clone implements Cloner: the clone shares the immutable Model, Plan,
// source mask and cached Φ(∅,V) estimate but owns private scratch, so it
// may run concurrently with the receiver and produces identical
// estimates (all streams derive from coordinates, not state).
func (e *SamplingEngine) Clone() Evaluator {
	return &SamplingEngine{
		m: e.m, p: e.p, src: e.src, opts: e.opts,
		phiEmpty: e.phiEmpty, maxF: e.maxF, maxFSet: e.maxFSet, pc: e.pc,
	}
}

// ReleaseScratch implements ScratchReleaser.
func (e *SamplingEngine) ReleaseScratch() {
	e.p.putScratch(e.sc)
	e.sc = nil
	e.acc = nil
}

// Passes implements PassCounter; it counts SAMPLED passes, each costing
// O(V + EdgeRate·E) rather than an exact engine's O(V + E).
func (e *SamplingEngine) Passes() (forward, suffix int64) {
	return e.pc.fwd.Load(), e.pc.suf.Load()
}

func (e *SamplingEngine) scratch() *floatScratch {
	if e.sc == nil {
		e.sc = e.p.getScratch()
	}
	return e.sc
}

func (e *SamplingEngine) accumulators() *sampleAcc {
	if e.acc == nil {
		e.acc = &sampleAcc{}
	}
	e.acc.ensure(e.p.n)
	return e.acc
}

// rowSampleSize returns how many edge draws a degree-d row gets, or d
// itself when the row is computed exactly.
func (e *SamplingEngine) rowSampleSize(d int) int {
	m := int(math.Ceil(e.opts.EdgeRate * float64(d)))
	if m < e.opts.MinEdges {
		m = e.opts.MinEdges
	}
	if m >= d {
		return d
	}
	return m
}

// sampledForwardRange is forwardRange with per-row edge sampling: exact
// below the sampling floor, m systematically sampled distinct edges
// scaled by d/m above it. Draws derive from (passSeed, i) only, so any
// chunking of [lo, hi) produces identical results.
func (e *SamplingEngine) sampledForwardRange(passSeed uint64, fmask []bool, rec, emit []float64, lo, hi int) {
	p := e.p
	inOff, inAdj, inW := p.inOff, p.inAdj, p.inW
	src := e.src
	for i := lo; i < hi; i++ {
		rowLo, rowHi := int(inOff[i]), int(inOff[i+1])
		d := rowHi - rowLo
		var r float64
		if m := e.rowSampleSize(d); m >= d {
			if inW == nil {
				for _, q := range inAdj[rowLo:rowHi] {
					r += emit[q]
				}
			} else {
				adj := inAdj[rowLo:rowHi]
				w := inW[rowLo:rowHi]
				w = w[:len(adj)]
				for k, q := range adj {
					r += w[k] * emit[q]
				}
			}
		} else {
			stride := float64(d) / float64(m)
			u := rowOffset(nodeStream(passSeed, i), stride)
			var sum float64
			for t := 0; t < m; t++ {
				j := rowLo + int(u+float64(t)*stride)
				if j >= rowHi {
					j = rowHi - 1
				}
				if inW == nil {
					sum += emit[inAdj[j]]
				} else {
					sum += inW[j] * emit[inAdj[j]]
				}
			}
			r = sum * stride
		}
		rec[i] = r
		ev := r
		if src[i] || (fmask[i] && r > 1) {
			ev = 1
		}
		emit[i] = ev
	}
}

// sampledSuffixRange is suffixRange with the same per-row sampling over
// out-edges; the stream is salted so forward and suffix draws for one
// node are independent.
func (e *SamplingEngine) sampledSuffixRange(passSeed uint64, fmask []bool, suf []float64, lo, hi int) {
	p := e.p
	outOff, outAdj, outW := p.outOff, p.outAdj, p.outW
	mw := p.mulW
	seed := passSeed ^ suffixSalt
	for i := hi - 1; i >= lo; i-- {
		rowLo, rowHi := int(outOff[i]), int(outOff[i+1])
		d := rowHi - rowLo
		var s float64
		if mw != nil {
			// Coarse plan: seed with the supernode's own multiplicity,
			// exactly like the exact suffix kernel. Never sampled — it is
			// a node term, not an edge term.
			s = mw[i]
		}
		if m := e.rowSampleSize(d); m >= d {
			if outW == nil {
				for _, c := range outAdj[rowLo:rowHi] {
					t := 1 + suf[c]
					if fmask[c] {
						t = 1
					}
					s += t
				}
			} else {
				adj := outAdj[rowLo:rowHi]
				w := outW[rowLo:rowHi]
				w = w[:len(adj)]
				for k, c := range adj {
					t := 1 + suf[c]
					if fmask[c] {
						t = 1
					}
					s += w[k] * t
				}
			}
		} else {
			stride := float64(d) / float64(m)
			u := rowOffset(nodeStream(seed, i), stride)
			var sum float64
			for t := 0; t < m; t++ {
				j := rowLo + int(u+float64(t)*stride)
				if j >= rowHi {
					j = rowHi - 1
				}
				c := outAdj[j]
				tv := 1 + suf[c]
				if fmask[c] {
					tv = 1
				}
				if outW == nil {
					sum += tv
				} else {
					sum += outW[j] * tv
				}
			}
			s += sum * stride
		}
		suf[i] = s
	}
}

// passSeed derives pass s's stream root from the engine seed.
func (e *SamplingEngine) passSeed(s int) uint64 {
	return mix64(mix64(uint64(e.opts.Seed)) + uint64(s+1)*sampleGamma)
}

// estimate runs Samples independent sampled passes under filters,
// level-sharded on the shared scheduler, and leaves the per-node sums
// (and, with suffix, per-pass marginal gains) in the accumulators.
func (e *SamplingEngine) estimate(filters []bool, withSuffix bool) *sampleAcc {
	sc := e.scratch()
	fm := e.p.fillMask(sc.fmask, filters)
	acc := e.accumulators()
	n, procs := e.p.n, e.opts.Parallelism
	clear(acc.rec)
	clear(acc.suf)
	clear(acc.gain)
	perm, isSrc := e.p.perm, e.m.isSrc
	for s := 0; s < e.opts.Samples; s++ {
		ps := e.passSeed(s)
		for l := 0; l < e.p.numLevels(); l++ {
			e.p.runLevel(l, procs, func(_, lo, hi int) {
				e.sampledForwardRange(ps, fm, sc.rec, sc.emit, lo, hi)
			})
		}
		e.pc.fwd.Add(1)
		acc.phi = append(acc.phi, e.p.sumPhi(sc.rec, sc.emit))
		for i, r := range sc.rec {
			acc.rec[i] += r
		}
		if !withSuffix {
			continue
		}
		for l := e.p.numLevels() - 1; l >= 0; l-- {
			e.p.runLevel(l, procs, func(_, lo, hi int) {
				e.sampledSuffixRange(ps, fm, sc.suf, lo, hi)
			})
		}
		e.pc.suf.Add(1)
		for i, sv := range sc.suf {
			acc.suf[i] += sv
		}
		// Per-pass marginal gains: the closed form evaluated on ONE
		// pass's coherent (rec, suf) pair, then averaged across passes.
		// Averaging the products (not products of averages) keeps the
		// estimate an upper-bound-leaning one near rec ≈ 1, which is the
		// safe direction for CELF bounds.
		for i := 0; i < n; i++ {
			v := perm[i]
			if isSrc[v] || (filters != nil && filters[v]) {
				continue
			}
			if r := sc.rec[i]; r > 1 {
				acc.gain[v] += (r - 1) * sc.suf[i]
			}
		}
	}
	return acc
}

// mcFromSamples folds per-pass Φ samples into a mean ± stderr result.
func mcFromSamples(phi []float64) MCResult {
	n := float64(len(phi))
	var sum, sumSq float64
	for _, f := range phi {
		sum += f
		sumSq += f * f
	}
	mean := sum / n
	variance := 0.0
	if len(phi) > 1 {
		variance = (sumSq - n*mean*mean) / (n - 1)
		if variance < 0 {
			variance = 0
		}
	}
	return MCResult{Mean: mean, StdErr: math.Sqrt(variance / n), Runs: len(phi)}
}

// PhiEstimate estimates Φ(A,V) with a confidence interval from the
// spread of the Samples independent sampled passes. When every row falls
// below the sampling floor the passes are exact and StdErr is 0.
func (e *SamplingEngine) PhiEstimate(filters []bool) MCResult {
	if filters == nil && e.phiEmpty.Runs > 0 {
		return e.phiEmpty
	}
	acc := e.estimate(filters, false)
	return mcFromSamples(acc.phi)
}

// Phi implements Evaluator; it is PhiEstimate's mean.
func (e *SamplingEngine) Phi(filters []bool) float64 {
	if filters == nil {
		return e.phiEmpty.Mean
	}
	return e.PhiEstimate(filters).Mean
}

// Received implements Evaluator: the mean per-node received estimate.
func (e *SamplingEngine) Received(filters []bool) []float64 {
	acc := e.estimate(filters, false)
	out := make([]float64, e.p.n)
	inv := 1 / float64(e.opts.Samples)
	for i, r := range acc.rec {
		out[e.p.perm[i]] = r * inv
	}
	return out
}

// Suffix implements Evaluator: the mean per-node suffix estimate.
func (e *SamplingEngine) Suffix(filters []bool) []float64 {
	sc := e.scratch()
	fm := e.p.fillMask(sc.fmask, filters)
	acc := e.accumulators()
	clear(acc.suf)
	procs := e.opts.Parallelism
	for s := 0; s < e.opts.Samples; s++ {
		ps := e.passSeed(s)
		for l := e.p.numLevels() - 1; l >= 0; l-- {
			e.p.runLevel(l, procs, func(_, lo, hi int) {
				e.sampledSuffixRange(ps, fm, sc.suf, lo, hi)
			})
		}
		e.pc.suf.Add(1)
		for i, sv := range sc.suf {
			acc.suf[i] += sv
		}
	}
	out := make([]float64, e.p.n)
	inv := 1 / float64(e.opts.Samples)
	for i, sv := range acc.suf {
		out[e.p.perm[i]] = sv * inv
	}
	return out
}

// Impacts implements Evaluator: mean estimated marginal gains, 0 for
// sources and current filters.
func (e *SamplingEngine) Impacts(filters []bool) []float64 {
	acc := e.estimate(filters, true)
	out := make([]float64, e.p.n)
	inv := 1 / float64(e.opts.Samples)
	for v := range out {
		out[v] = acc.gain[v] * inv
	}
	return out
}

// ArgmaxImpact implements Evaluator over the estimated gains, breaking
// ties toward the smaller node id like the exact engines.
func (e *SamplingEngine) ArgmaxImpact(filters, banned []bool) (int, float64) {
	imp := e.Impacts(filters)
	best, bestGain := -1, 0.0
	for v, g := range imp {
		if banned != nil && banned[v] {
			continue
		}
		if g > bestGain {
			best, bestGain = v, g
		}
	}
	return best, bestGain
}

// F implements Evaluator against the cached Φ(∅,V) estimate.
func (e *SamplingEngine) F(filters []bool) float64 {
	return e.phiEmpty.Mean - e.Phi(filters)
}

// MaxF implements Evaluator; the F(V) estimate is computed on first use
// and cached.
func (e *SamplingEngine) MaxF() float64 {
	if !e.maxFSet {
		e.maxF = e.phiEmpty.Mean - e.PhiEstimate(AllFilters(e.m)).Mean
		e.maxFSet = true
	}
	return e.maxF
}

// Interface conformance.
var (
	_ Evaluator       = (*SamplingEngine)(nil)
	_ Cloner          = (*SamplingEngine)(nil)
	_ ScratchReleaser = (*SamplingEngine)(nil)
	_ PassCounter     = (*SamplingEngine)(nil)
)
