package core

import (
	"context"

	"repro/internal/flow"
)

// Multilevel placement: coarsen losslessly, run exact greedy on the
// quotient, project each pick to its supernode head.
//
// Greedy's cost is its closed-form sweeps: one per round, each a forward
// + suffix pass over all V nodes and E edges. On chain-heavy graphs most
// of those nodes provably cannot beat their neighbors — the interior of a
// relay chain is strictly dominated by the chain's head. ml-celf
// contracts the graph first (flow.Coarsen: chain folding, then sink
// absorption), so every sweep touches only the contracted node set.
//
// Both rules are Φ-exact: the quotient's Φ, marginal gains and argmax are
// bit-for-bit the original's at every matching filter set, and quotient
// ids ascend with head ids, so greedy's tie-breaking is preserved. The
// projected picks are EXACTLY the filter set celf and greedy-all return
// on the uncoarsened graph — same ids, same order — and the paper's
// greedy guarantee carries over unchanged.
//
// Models Coarsen cannot contract (weighted or already-coarse ones) and
// engines that cannot be rebuilt on a quotient (simulators, custom
// evaluators) run greedy on the original graph instead, with the same
// result and no Result.CoarsenStats.
func placeMultilevel(ctx context.Context, ev flow.Evaluator, k int, opts Options, res *Result) error {
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
		return placeGreedyAll(ctx, ev, k, opts, res)
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
	err = placeGreedyAll(ctx, qev, k, opts, res)
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
