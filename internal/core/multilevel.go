package core

import (
	"context"

	"repro/internal/flow"
)

// Multilevel placement: coarsen, solve on the quotient, project back,
// refine.
//
// CELF's cost is dominated by oracle work proportional to the graph size:
// the exact init sweep is V evaluations and every pass the oracle runs is
// O(V + E). On chain-heavy graphs most of that work is spent on nodes
// that provably cannot beat their neighbors — the interior of a relay
// chain is strictly dominated by the chain's head. ml-celf contracts the
// graph first (flow.Coarsen: chain folding, sink absorption and — in
// bounded mode — twin merging), runs CELF on the quotient where every
// pass touches only the contracted node set, then projects the quotient
// picks back to their supernode heads.
//
// Quality contract, two regimes:
//
//   - Lossless (Options.Coarsen.Lossless, or when no twin merge fired —
//     Result.CoarsenStats.LosslessOnly): the quotient's Φ, marginal gains
//     and argmax are bit-for-bit the original's at every matching filter
//     set, and supernode heads strictly dominate their fiber members. The
//     projected picks are EXACTLY the filter set plain celf returns on
//     the uncoarsened graph — same ids, same order — so no refinement
//     runs.
//
//   - Bounded (twin merges fired): the quotient objective is a tight
//     bound rather than an identity, so each projected pick is locally
//     refined — every member of the pick's fiber is re-evaluated with the
//     EXACT oracle on the original graph (conditioned on the other picks)
//     and the best member replaces the head when it wins. Exact work is
//     Σ|fiber(pick)|, scaling with k and fiber width, never with V.
//
// Determinism matches the rest of the package: coarsening is
// single-threaded and deterministic, the quotient solve inherits CELF's
// bit-identical-at-any-parallelism contract, and refinement evaluates
// fibers in pick order with ascending-id tie-breaking through the same
// evalPool arithmetic as celf/naive.
func placeMultilevel(ctx context.Context, ev flow.Evaluator, k int, opts Options, res *Result) error {
	// The quotient evaluator mirrors the caller's engine so lossless runs
	// reproduce its arithmetic exactly. Engines we cannot rebuild on a
	// quotient model (simulators, custom evaluators) fall back to plain
	// CELF on the original graph — correct, just uncoarsened.
	var build func(*flow.Model) flow.Evaluator
	switch ev.(type) {
	case *flow.FloatEngine:
		build = func(qm *flow.Model) flow.Evaluator { return flow.NewFloat(qm) }
	case *flow.BigEngine:
		build = func(qm *flow.Model) flow.Evaluator { return flow.NewBig(qm) }
	default:
		return placeCELF(ctx, ev, k, opts, res)
	}
	m := ev.Model()

	csp := opts.Trace.Begin("coarsen")
	qm, cm, cst, err := flow.Coarsen(m, opts.Coarsen)
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

	// Solve on the quotient: exact CELF by default, estimate-driven
	// approx-celf when the caller asked for sampled quality (the same
	// knobs approx-celf itself reads).
	sub := Result{}
	if sampleRequested(opts.Quality, opts.SampleBudget) {
		err = placeApproxCELF(ctx, qev, k, opts, &sub)
	} else {
		err = placeCELF(ctx, qev, k, opts, &sub)
	}
	res.Stats.GainEvaluations += sub.Stats.GainEvaluations
	res.Stats.SampledEvaluations += sub.Stats.SampledEvaluations
	res.Stats.Iterations += sub.Stats.Iterations
	res.Parallelism = max(res.Parallelism, sub.Parallelism)
	if hasQPasses {
		f, s := qpc.Passes()
		res.Passes.Forward += f - qf0
		res.Passes.Suffix += s - qs0
	}
	if err != nil {
		return err
	}

	heads := cm.ProjectFilters(sub.Filters)
	if cst.LosslessOnly {
		// The quotient solve IS the original solve: heads are the exact
		// celf picks and the sampled CI (if any) estimates the original Φ.
		res.Filters = heads
		res.PhiCI = sub.PhiCI
		return nil
	}
	// Bounded quotient: the CI estimated the quotient objective and the
	// picks are about to move within their fibers, so the CI is dropped
	// rather than misreported.
	return refineFibers(ctx, ev, cm, sub.Filters, heads, opts, res)
}

// refineFibers replaces each projected pick with the exact-gain argmax of
// its supernode fiber, conditioned on all other picks. Fibers are
// disjoint, so picks stay distinct; evaluation order is pick order and
// ties break toward the smaller original id.
func refineFibers(ctx context.Context, ev flow.Evaluator, cm *flow.CoarsenMap, qPicks, heads []int, opts Options, res *Result) error {
	m := ev.Model()
	pool := newEvalPool(ev, opts.Parallelism, opts.Tenant)
	defer pool.close()
	res.Parallelism = max(res.Parallelism, pool.width())
	filters := make([]bool, m.N())
	for _, h := range heads {
		filters[h] = true
	}
	chosen := make([]int, 0, len(heads))
	var cands []int
	for i, h := range heads {
		fiber := cm.Fiber(qPicks[i])
		if len(fiber) == 1 {
			chosen = append(chosen, h)
			continue
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		filters[h] = false
		cands = cands[:0]
		for _, v32 := range fiber {
			if v := int(v32); !filters[v] && !m.IsSource(v) {
				cands = append(cands, v)
			}
		}
		rsp := opts.Trace.Begin("refine")
		gains, err := pool.gains(ctx, filters, cands)
		rsp.AddEvals(int64(len(cands)))
		rsp.SetWorkers(pool.width())
		rsp.End()
		if err != nil {
			return err
		}
		res.Stats.GainEvaluations += len(cands)
		// cands ascend (fibers are sorted), so strict > keeps the
		// smallest id among equal gains.
		best, bestGain := h, 0.0
		for j, v := range cands {
			if gains[j] > bestGain {
				best, bestGain = v, gains[j]
			}
		}
		filters[best] = true
		chosen = append(chosen, best)
	}
	res.Filters = chosen
	return nil
}
