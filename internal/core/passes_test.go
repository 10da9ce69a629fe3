package core

import (
	"context"
	"runtime"
	"testing"

	"repro/internal/flow"
	"repro/internal/obs"
)

// TestPlacePassStats pins the pass-accounting contract: Result.Passes is
// the placement's own delta (engine-construction passes excluded), and
// for the round-structured strategies the counts follow directly from
// the algorithm shape.
func TestPlacePassStats(t *testing.T) {
	m := placeTestModel(t, 120, 0.06, 11)
	ev := flow.NewFloat(m)

	res, err := Place(context.Background(), ev, 8, Options{Strategy: StrategyGreedyAll})
	if err != nil {
		t.Fatal(err)
	}
	// Greedy_All costs exactly one forward + one suffix pass per round,
	// and every round (including a final unproductive one, if any) scans
	// all n candidates of the graph it ran on: the quotient's, when it
	// coarsened first.
	n := m.N()
	if cs := res.CoarsenStats; cs != nil {
		n = cs.NodesAfter
	}
	rounds := int64(res.Stats.GainEvaluations / n)
	if res.Passes.Forward != rounds || res.Passes.Suffix != rounds {
		t.Errorf("greedy-all passes = %+v, want forward=suffix=%d rounds", res.Passes, rounds)
	}
	if res.Passes.Forward == 0 {
		t.Fatal("greedy-all recorded zero passes")
	}

	// A second placement on the same engine must report its own delta,
	// not the cumulative engine total.
	res2, err := Place(context.Background(), ev, 8, Options{Strategy: StrategyGreedyAll})
	if err != nil {
		t.Fatal(err)
	}
	if res2.Passes != res.Passes {
		t.Errorf("repeat placement passes = %+v, first = %+v; delta accounting broken", res2.Passes, res.Passes)
	}

	// Naive re-evaluates every candidate per round: one forward pass per
	// gain evaluation plus one base Φ(A) per round, no suffix passes.
	nres, err := Place(context.Background(), ev, 4, Options{Strategy: StrategyNaive})
	if err != nil {
		t.Fatal(err)
	}
	wantFwd := int64(nres.Stats.GainEvaluations + nres.Stats.Iterations)
	if nres.Passes.Forward != wantFwd || nres.Passes.Suffix != 0 {
		t.Errorf("naive passes = %+v, want forward=%d suffix=0", nres.Passes, wantFwd)
	}
}

// TestPlacePassStatsParallelGreedyAll: greedy-all's level-parallel passes
// run the same one forward + one suffix per round, so pass counts match
// the serial run exactly. TestCELFPassBudget pins the same for CELF.
func TestPlacePassStatsParallelGreedyAll(t *testing.T) {
	m := placeTestModel(t, 150, 0.05, 5)
	serial, err := Place(context.Background(), flow.NewFloat(m), 10, Options{Strategy: StrategyGreedyAll})
	if err != nil {
		t.Fatal(err)
	}
	par, err := Place(context.Background(), flow.NewFloat(m), 10,
		Options{Strategy: StrategyGreedyAll, Parallelism: runtime.GOMAXPROCS(0)})
	if err != nil {
		t.Fatal(err)
	}
	if par.Passes != serial.Passes {
		t.Errorf("parallel greedy-all passes %+v != serial %+v", par.Passes, serial.Passes)
	}
}

// TestCELFPassBudget pins celf's pass budget: one closed-form sweep per
// round, the last one possibly finding no positive gain, each one forward
// + one suffix pass, so Forward == Suffix ≤ Iterations+1 — and, since the
// sweeps are level-parallel rather than speculative, identical at every
// Parallelism.
func TestCELFPassBudget(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		m := placeTestModel(t, 150, 0.05, seed)
		engines := map[string]func() flow.Evaluator{
			"float": func() flow.Evaluator { return flow.NewFloat(m) },
			"big":   func() flow.Evaluator { return flow.NewBig(m) },
		}
		for engName, mk := range engines {
			var serial PassStats
			for _, procs := range []int{1, 4} {
				res, err := Place(context.Background(), mk(), 12, Options{Strategy: StrategyCELF, Parallelism: procs})
				if err != nil {
					t.Fatal(err)
				}
				p := res.Passes
				if p.Forward == 0 || p.Forward != p.Suffix || p.Forward > int64(res.Stats.Iterations+1) {
					t.Errorf("seed %d %s P=%d: passes %+v, want forward == suffix in [1, %d]",
						seed, engName, procs, p, res.Stats.Iterations+1)
				}
				if procs == 1 {
					serial = p
				} else if p != serial {
					t.Errorf("seed %d %s P=%d: passes %+v != serial %+v", seed, engName, procs, p, serial)
				}
			}
		}
	}
}

// TestPlaceTraceStages: a Trace passed through Options records the
// strategy's stage spans without perturbing results.
func TestPlaceTraceStages(t *testing.T) {
	m := placeTestModel(t, 120, 0.06, 3)
	cases := map[Strategy]string{
		StrategyGreedyAll: "greedy-round",
		StrategyCELF:      "greedy-round",
		StrategyNaive:     "naive-round",
	}
	for strat, wantStage := range cases {
		tr := obs.NewTrace()
		plain, err := Place(context.Background(), flow.NewFloat(m), 6, Options{Strategy: strat})
		if err != nil {
			t.Fatal(err)
		}
		traced, err := Place(context.Background(), flow.NewFloat(m), 6, Options{Strategy: strat, Trace: tr})
		if err != nil {
			t.Fatal(err)
		}
		if traced.Stats != plain.Stats {
			t.Errorf("%s: tracing changed stats: %+v vs %+v", strat, traced.Stats, plain.Stats)
		}
		found := false
		for _, rec := range tr.Snapshot() {
			if rec.Name == wantStage {
				found = true
				if rec.Count <= 0 || rec.Evals <= 0 {
					t.Errorf("%s: stage %q record %+v lacks count/evals", strat, wantStage, rec)
				}
			}
		}
		if !found {
			t.Errorf("%s: trace missing stage %q: %+v", strat, wantStage, tr.Snapshot())
		}
	}
}
