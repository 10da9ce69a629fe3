package flow

import "sync/atomic"

// passCount aggregates topological-pass executions for one engine and
// every clone derived from it. It is a shared pointer: candidate-shard
// clones created by core.Place accumulate into their root's counters, so
// the total reflects the placement's real pass workload no matter how
// the work was sharded. Counts are recorded around whole passes — never
// inside forwardRange/suffixRange or the per-node big kernels — so the
// bit-identical hot paths stay untouched.
type passCount struct {
	fwd atomic.Int64
	suf atomic.Int64
}

// PassCounter is implemented by evaluators that count the topological
// passes they execute. The counts are cumulative over the engine's
// lifetime, including the Φ(∅)/F(V) invariant passes when the engine was
// the first of its kind on its model — one forward pass for an unweighted
// FloatEngine, two for a weighted one or a BigEngine — while later
// engines find them cached. Callers interested in one placement's cost
// take a before/after delta, as core.Place does for Result.Passes.
//
// Unlike OracleStats, pass counts reflect actual execution, so they are
// a cost measurement rather than part of any determinism contract.
type PassCounter interface {
	// Passes returns the cumulative forward and suffix pass counts.
	Passes() (forward, suffix int64)
}
