package flow

import "repro/internal/sched"

// Parallel evaluation support. Greedy placement is embarrassingly parallel
// per round — the closed-form gains all derive from one forward and one
// backward topological pass, and the passes themselves decompose by
// topological level: every node of a level depends only on nodes of
// earlier levels, so a level's nodes can be computed concurrently. The
// level structure and the level-packed iteration order live in the
// model's shared Plan; each node is still computed by the same flat kernel
// (forwardRange/suffixRange for floats, stepForwardBig/stepSuffixBig for
// exact integers) with the same neighbor accumulation order as the serial
// pass, so parallel results are bit-for-bit identical to serial ones
// regardless of worker count or chunk boundaries.
//
// Chunks are cut by sched.Split (through split below, which keeps short
// spans inline) and run as one batch on the process-wide scheduler, so
// concurrent placements from many graphs interleave on the shared workers
// instead of spawning goroutines per call.

// Cloner is implemented by evaluators that can duplicate themselves
// cheaply for concurrent use: the clone shares the immutable Model (and
// any cached invariants) but owns private scratch state. core.Place uses
// clones to shard per-candidate gain evaluations across the scheduler.
type Cloner interface {
	Evaluator
	// Clone returns an evaluator that may be used concurrently with the
	// receiver and with other clones. Results are bit-for-bit identical
	// to the receiver's.
	Clone() Evaluator
}

// ScratchReleaser is implemented by evaluators whose working memory is
// borrowed from a shared arena (the plan's scratch pool). Callers that
// retire an evaluator — core.Place when its candidate-shard clones finish
// — call ReleaseScratch so the arena is reused by the next placement
// instead of re-allocated.
type ScratchReleaser interface {
	// ReleaseScratch returns borrowed buffers to their pool. The
	// evaluator remains usable afterwards (buffers are re-borrowed on
	// demand) but must be quiescent when called.
	ReleaseScratch()
}

// ParallelEvaluator is implemented by evaluators whose passes parallelize
// internally. The *P methods behave exactly like their serial
// counterparts — including tie-breaking and floating-point results — using
// up to procs concurrent chunks; procs ≤ 1 is the serial path. Both
// FloatEngine and BigEngine implement it (BigEngine with exact integer
// arithmetic in every kernel).
type ParallelEvaluator interface {
	Evaluator
	// ArgmaxImpactP is ArgmaxImpact with level-parallel passes.
	ArgmaxImpactP(filters, banned []bool, procs int) (v int, gain float64)
	// ImpactsP is Impacts with level-parallel passes.
	ImpactsP(filters []bool, procs int) []float64
}

// minParallelSpan is the span below which a level runs serially:
// scheduling chunks costs more than computing a few dozen nodes.
const minParallelSpan = 128

// split runs fn over [lo, hi) in at most procs chunks on the shared
// scheduler (sched.Split); spans shorter than minParallelSpan run inline.
func split(lo, hi, procs int, fn func(i, lo, hi int)) {
	if hi-lo < minParallelSpan {
		procs = 1
	}
	sched.Split("", lo, hi, procs, fn)
}

// ArgmaxImpactP implements ParallelEvaluator. The scan shards into
// contiguous original-id ranges whose local maxima are reduced in
// ascending order under the same strict-improvement rule as the serial
// scan, so ties break toward the smaller node id exactly as ArgmaxImpact
// does. procs ≤ 1 scans directly, allocation-free.
func (e *FloatEngine) ArgmaxImpactP(filters, banned []bool, procs int) (int, float64) {
	sc := e.passes(filters, 0, true, procs)
	if procs <= 1 {
		return e.argmaxGains(sc, filters, banned, 0, e.p.n)
	}
	type local struct {
		v    int
		gain float64
	}
	// A slot no chunk writes keeps gain 0, which never wins the scan.
	locals := make([]local, procs)
	split(0, e.p.n, procs, func(i, lo, hi int) {
		v, gain := e.argmaxGains(sc, filters, banned, lo, hi)
		locals[i] = local{v, gain}
	})
	best, bestGain := -1, 0.0
	for _, l := range locals {
		if l.v >= 0 && l.gain > bestGain {
			best, bestGain = l.v, l.gain
		}
	}
	return best, bestGain
}

// ImpactsP implements ParallelEvaluator.
func (e *FloatEngine) ImpactsP(filters []bool, procs int) []float64 {
	return e.impacts(filters, 0, procs)
}

// impacts returns the ρ-leaky marginal gain of every node from passes
// and an assembly loop sharded across procs chunks.
func (e *FloatEngine) impacts(filters []bool, leak float64, procs int) []float64 {
	sc := e.passes(filters, leak, true, procs)
	gains := make([]float64, e.p.n)
	if procs <= 1 {
		e.gainsInto(gains, sc, filters, leak, 0, e.p.n)
		return gains
	}
	split(0, e.p.n, procs, func(_, lo, hi int) {
		e.gainsInto(gains, sc, filters, leak, lo, hi)
	})
	return gains
}
