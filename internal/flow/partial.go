package flow

import "fmt"

// Partial (lossy) filters — the paper's footnote 1: "Generalizations that
// allow for a percentage of duplicates to make it through a filter are
// straightforward." A filter with leak ρ ∈ [0, 1] forwards the first copy
// plus a ρ fraction of the duplicates:
//
//	emit(v) = min(rec(v), 1 + ρ·(rec(v) − 1))
//
// ρ = 0 is the paper's perfect filter; ρ = 1 is no filtering at all. The
// closed-form marginal gain generalizes: with the leak-aware suffix
//
//	suffix(v) = Σ_{c ∈ Out(v)} w(v,c) · (1 + damp(c)·suffix(c)),
//	damp(c)   = ρ if c is a filter, 1 otherwise,
//
// the gain of adding a filter at v is (1−ρ)·(rec(v)−1)·suffix(v). The leak
// is a parameter of the plan kernels (forwardRange/suffixRange), so lossy
// passes run on the same flat sweeps as perfect ones: on unweighted,
// weighted and coarse (Coarsen quotient) models alike, with ρ = 0 giving
// exactly the perfect-filter results. Partial semantics involve
// real-valued emissions, so they are implemented on the float engine only.

// PartialEvaluator is implemented by evaluators supporting lossy filters.
type PartialEvaluator interface {
	Evaluator
	// PhiPartial is Φ(A, V) when every filter leaks a ρ fraction of
	// duplicates.
	PhiPartial(filters []bool, leak float64) float64
	// ImpactsPartial returns the exact marginal gain of upgrading each
	// non-filter node to a ρ-leaky filter.
	ImpactsPartial(filters []bool, leak float64) []float64
}

// checkLeak panics on a leak outside [0, 1].
func checkLeak(leak float64) {
	if leak < 0 || leak > 1 {
		panic(fmt.Sprintf("flow: leak %v outside [0,1]", leak))
	}
}

// PhiPartial implements PartialEvaluator.
func (e *FloatEngine) PhiPartial(filters []bool, leak float64) float64 {
	checkLeak(leak)
	sc := e.passes(filters, leak, false, 1)
	return e.p.sumPhi(sc.rec, sc.emit)
}

// SuffixPartial returns the leak-aware downstream amplification.
func (e *FloatEngine) SuffixPartial(filters []bool, leak float64) []float64 {
	checkLeak(leak)
	sc := e.scratch()
	fm := e.p.fillMask(sc.fmask, filters)
	e.p.suffixLevels(fm, leak, sc.suf, 1)
	e.pc.suf.Add(1)
	return e.p.scatter(sc.suf)
}

// ImpactsPartial implements PartialEvaluator.
func (e *FloatEngine) ImpactsPartial(filters []bool, leak float64) []float64 {
	checkLeak(leak)
	return e.impacts(filters, leak, 1)
}

// FPartial is Φ(∅,V) − Φ_ρ(A,V): the reduction achieved by ρ-leaky filters
// at A, measured against the unfiltered network.
func (e *FloatEngine) FPartial(filters []bool, leak float64) float64 {
	return e.phiEmpty - e.PhiPartial(filters, leak)
}

// FRPartial is the Filter Ratio of a ρ-leaky placement against the
// *perfect-filter* optimum F(V), so curves for different leaks share a
// scale: a leaky placement can approach at most (1−ρ)-ish of the perfect
// reduction on most graphs.
func (e *FloatEngine) FRPartial(filters []bool, leak float64) float64 {
	den := e.MaxF()
	if den <= 0 {
		return 1
	}
	return filterRatio(e.FPartial(filters, leak), den)
}
