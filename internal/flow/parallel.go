package flow

import "repro/internal/sched"

// Parallel evaluation support. Greedy placement is embarrassingly parallel
// per round — the closed-form gains all derive from one forward and one
// backward topological pass, and the passes themselves decompose by
// topological level: every node of a level depends only on nodes of
// earlier levels, so a level's nodes can be computed concurrently. The
// level structure, the level-packed iteration order and the precomputed
// chunk boundaries all live in the model's shared Plan; each node is still
// computed by the same flat kernel (forwardRange/suffixRange for floats,
// stepForwardBig/stepSuffixBig for exact integers) with the same neighbor
// accumulation order as the serial pass, so parallel results are
// bit-for-bit identical to serial ones regardless of worker count or
// shard boundaries.
//
// Execution runs on the process-wide sched.Default pool: the pass
// machinery only SPLITS work (into the same chunks at any setting) and
// submits the chunks as one sched batch, so concurrent placements from
// many graphs interleave on the shared workers instead of spawning
// goroutines per call.

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

// parallelFor splits [0, n) into at most procs contiguous chunks and runs
// fn on each through the shared scheduler, returning when all complete.
// Small spans run inline. Chunk boundaries depend only on (n, procs),
// never on pool size, so any fn whose chunks are independent produces
// identical results at every setting.
func parallelFor(n, procs int, fn func(lo, hi int)) {
	if procs > n {
		procs = n
	}
	if procs <= 1 || n < minParallelSpan {
		fn(0, n)
		return
	}
	chunk := (n + procs - 1) / procs
	b := sched.Default().NewBatch()
	for lo := 0; lo < n; lo += chunk {
		lo, hi := lo, min(lo+chunk, n)
		b.Go(func() { fn(lo, hi) })
	}
	b.Wait()
}

// parallelForChunks is parallelFor returning fn's per-chunk results in
// ascending chunk order, so callers can reduce them with the same
// left-to-right rule a serial scan would apply.
func parallelForChunks[T any](n, procs int, fn func(lo, hi int) T) []T {
	if procs > n {
		procs = n
	}
	if procs <= 1 || n < minParallelSpan {
		return []T{fn(0, n)}
	}
	chunk := (n + procs - 1) / procs
	out := make([]T, (n+chunk-1)/chunk)
	b := sched.Default().NewBatch()
	for i := range out {
		i, lo, hi := i, i*chunk, min((i+1)*chunk, n)
		b.Go(func() { out[i] = fn(lo, hi) })
	}
	b.Wait()
	return out
}

// passesP is passes with level-parallel plan execution.
func (e *FloatEngine) passesP(filters []bool, procs int) *floatScratch {
	sc := e.scratch()
	fm := e.p.fillMask(sc.fmask, filters)
	e.p.forwardLevels(e.src, fm, sc.rec, sc.emit, procs)
	e.p.suffixLevels(fm, sc.suf, procs)
	e.pc.fwd.Add(1)
	e.pc.suf.Add(1)
	return sc
}

// ArgmaxImpactP implements ParallelEvaluator. The scan shards into
// contiguous original-id ranges whose local maxima are reduced in
// ascending order under the same strict-improvement rule as the serial
// scan, so ties break toward the smaller node id exactly as ArgmaxImpact
// does.
func (e *FloatEngine) ArgmaxImpactP(filters, banned []bool, procs int) (int, float64) {
	if procs <= 1 {
		return e.ArgmaxImpact(filters, banned)
	}
	sc := e.passesP(filters, procs)
	type local struct {
		v    int
		gain float64
	}
	locals := parallelForChunks(e.p.n, procs, func(lo, hi int) local {
		v, gain := e.argmaxGains(sc, filters, banned, lo, hi)
		return local{v, gain}
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
	if procs <= 1 {
		return e.Impacts(filters)
	}
	sc := e.passesP(filters, procs)
	gains := make([]float64, e.p.n)
	parallelFor(e.p.n, procs, func(lo, hi int) {
		e.gainsInto(gains, sc, filters, 0, lo, hi)
	})
	return gains
}
