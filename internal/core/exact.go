package core

import (
	"context"

	"repro/internal/flow"
)

// The exact greedy path: greedy-all, celf and ml-celf all run placeExact.
//
// Greedy's cost is its closed-form sweeps: one per round, each a forward
// + suffix pass over all V nodes and E edges. On chain-heavy graphs most
// of those nodes provably cannot beat their neighbors — the interior of a
// relay chain is strictly dominated by the chain's head. flow.Coarsen
// contracts the graph losslessly (chain folding, then sink absorption),
// so every sweep on the quotient touches only the contracted node set.
//
// Both rules are Φ-exact: the quotient's Φ, marginal gains and argmax are
// bit-for-bit the original's at every matching filter set, and quotient
// ids ascend with head ids, so greedy's tie-breaking is preserved. The
// projected picks are EXACTLY the filter set the loop returns on the
// uncoarsened graph — same ids, same order — and the paper's greedy
// guarantee carries over unchanged. So whether a placement coarsens first
// is purely a question of cost, which coarsenPays answers before any
// contraction runs.
//
// Models Coarsen cannot contract (weighted or already-coarse ones) and
// engines that cannot be rebuilt on a quotient (simulators, custom
// evaluators) run the loop on the original graph, with the same result
// and no Result.CoarsenStats.

// Coarsening's price on the float engine, in units of one node or edge of
// a full-graph sweep: the contraction plus greedy's R quotient sweeps cost
// about coarsenFixed·(n+m) + (coarsenPerQuotient+R)·(qn+qm), against
// R·(n+m) for the rounds on the original. The constants are a
// least-squares fit of that total to the measured cost of Coarsen and of
// single sweeps on twitter, chain, random, power-law and deep DAGs (see
// CHANGES.md); they absorb that a quotient sweep costs somewhat less per
// node or edge than a full one.
const (
	coarsenFixed       = 1.6
	coarsenPerQuotient = 1.9
)

// coarsenPays reports whether greedy's rounds on ev's model, at budget k,
// are cheaper on the quotient Coarsen would build (qn nodes, qm edges)
// than on the n-node, m-edge original. It prices at most R = min(k, n)+1
// sweeps: greedy stops at k picks, or after a sweep that finds no gain.
// A big-engine sweep costs several times a whole contraction, so the big
// engine coarsens whenever the quotient is smaller at all.
func coarsenPays(ev flow.Evaluator, k, n, m, qn, qm int) bool {
	if k <= 0 || qn >= n {
		return false // no rounds to save, or nothing to contract
	}
	if _, ok := ev.(*flow.BigEngine); ok {
		return true
	}
	r := float64(min(k, n) + 1)
	s, sq := float64(n+m), float64(qn+qm)
	return coarsenFixed*s+(coarsenPerQuotient+r)*sq < r*s
}

// placeExact runs greedy-all's loop, on the lossless quotient when
// coarsenPays says it is cheaper and on the original graph otherwise.
func placeExact(ctx context.Context, ev flow.Evaluator, k int, opts Options, res *Result) error {
	// The quotient evaluator mirrors the caller's engine so the quotient
	// solve reproduces its arithmetic exactly.
	m := ev.Model()
	var build func(*flow.Model) flow.Evaluator
	switch ev.(type) {
	case *flow.FloatEngine:
		build = func(qm *flow.Model) flow.Evaluator { return flow.NewFloat(qm) }
	case *flow.BigEngine:
		build = func(qm *flow.Model) flow.Evaluator { return flow.NewBig(qm) }
	}
	if build == nil || m.Weighted() || m.Coarse() {
		return greedyLoop(ctx, ev, k, opts, res)
	}
	if qn, qe := flow.CoarsenSize(m); !coarsenPays(ev, k, m.N(), m.Plan().M(), qn, qe) {
		return greedyLoop(ctx, ev, k, opts, res)
	}

	csp := opts.Trace.Begin("coarsen")
	qm, cm, cst, err := flow.Coarsen(m, flow.CoarsenOptions{})
	csp.End()
	if err != nil {
		return err
	}
	res.CoarsenStats = &cst

	qev := build(qm)
	if r, ok := qev.(flow.ScratchReleaser); ok {
		defer r.ReleaseScratch()
	}
	// Quotient passes are charged to this placement too. Snapshot after
	// construction so the quotient engine's invariant passes stay
	// excluded, mirroring Place's accounting of the caller's engine.
	var qf0, qs0 int64
	qpc, hasQPasses := qev.(flow.PassCounter)
	if hasQPasses {
		qf0, qs0 = qpc.Passes()
	}
	err = greedyLoop(ctx, qev, k, opts, res)
	if hasQPasses {
		f, s := qpc.Passes()
		res.Passes.Forward += f - qf0
		res.Passes.Suffix += s - qs0
	}
	if err != nil {
		return err
	}
	res.Filters = cm.ProjectFilters(res.Filters)
	return nil
}

// greedyLoop runs the closed-form greedy: per round one forward and one
// backward pass yield every candidate's exact gain.
func greedyLoop(ctx context.Context, ev flow.Evaluator, k int, opts Options, res *Result) error {
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
