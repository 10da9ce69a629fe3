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
// the gain of adding a filter at v is (1−ρ)·(rec(v)−1)·suffix(v). Partial
// semantics involve real-valued emissions, so they are implemented on the
// float engine only.

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

// forwardPartial is the leak-aware forward pass.
func (e *FloatEngine) forwardPartial(filters []bool, leak float64) (rec, emit []float64) {
	if leak < 0 || leak > 1 {
		panic(fmt.Sprintf("flow: leak %v outside [0,1]", leak))
	}
	g := e.m.g
	rec = make([]float64, g.N())
	emit = make([]float64, g.N())
	for _, v := range e.m.topo {
		r := 0.0
		for _, p := range g.In(v) {
			r += e.weight(p, v) * emit[p]
		}
		rec[v] = r
		switch {
		case e.m.isSrc[v]:
			emit[v] = 1
		case filters != nil && filters[v]:
			filtered := 1 + leak*(r-1)
			if filtered < r {
				emit[v] = filtered
			} else {
				emit[v] = r
			}
		default:
			emit[v] = r
		}
	}
	return rec, emit
}

// PhiPartial implements PartialEvaluator.
func (e *FloatEngine) PhiPartial(filters []bool, leak float64) float64 {
	rec, _ := e.forwardPartial(filters, leak)
	total := 0.0
	for _, r := range rec {
		total += r
	}
	return total
}

// SuffixPartial returns the leak-aware downstream amplification.
func (e *FloatEngine) SuffixPartial(filters []bool, leak float64) []float64 {
	g := e.m.g
	suf := make([]float64, g.N())
	topo := e.m.topo
	for i := len(topo) - 1; i >= 0; i-- {
		v := topo[i]
		s := 0.0
		for _, c := range g.Out(v) {
			w := e.weight(v, c)
			damp := 1.0
			if filters != nil && filters[c] {
				damp = leak
			}
			s += w * (1 + damp*suf[c])
		}
		suf[v] = s
	}
	return suf
}

// ImpactsPartial implements PartialEvaluator.
func (e *FloatEngine) ImpactsPartial(filters []bool, leak float64) []float64 {
	rec, _ := e.forwardPartial(filters, leak)
	suf := e.SuffixPartial(filters, leak)
	gains := make([]float64, len(rec))
	for v := range gains {
		if e.m.isSrc[v] || (filters != nil && filters[v]) || rec[v] <= 1 {
			continue
		}
		gains[v] = (1 - leak) * (rec[v] - 1) * suf[v]
	}
	return gains
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
