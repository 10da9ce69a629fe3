package core

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/flow"
	"repro/internal/gen"
)

// TestCELFIdentity pins CELF's closed-form rechecks to the strategies that
// price gains independently: celf, greedy-all and naive (one Φ pass per
// candidate) place the same filters on the float and big engines at P=1
// and P=2. The short-chain graph is tie-heavy — many candidates share a
// gain exactly — so the heap's smaller-id tie-breaking is exercised too.
func TestCELFIdentity(t *testing.T) {
	cg, src := gen.ChainDAG(300, 2, 4)
	ties, err := flow.NewModel(cg, []int{src})
	if err != nil {
		t.Fatal(err)
	}
	if !hasGainTie(flow.NewFloat(ties).Impacts(nil)) {
		t.Fatal("short-chain graph has no tied positive gains")
	}
	models := map[string]*flow.Model{
		"random-150":   placeTestModel(t, 150, 0.05, 1),
		"random-200":   placeTestModel(t, 200, 0.04, 5),
		"short-chains": ties,
	}
	for name, m := range models {
		engines := map[string]func() flow.Evaluator{
			"float": func() flow.Evaluator { return flow.NewFloat(m) },
			"big":   func() flow.Evaluator { return flow.NewBig(m) },
		}
		for engName, mk := range engines {
			for _, procs := range []int{1, 2} {
				place := func(s Strategy) []int {
					res, err := Place(context.Background(), mk(), 12, Options{Strategy: s, Parallelism: procs})
					if err != nil {
						t.Fatalf("%s/%s P=%d %s: %v", name, engName, procs, s, err)
					}
					return res.Filters
				}
				celf := place(StrategyCELF)
				if len(celf) == 0 {
					t.Fatalf("%s/%s P=%d: celf placed nothing", name, engName, procs)
				}
				for _, s := range []Strategy{StrategyGreedyAll, StrategyNaive} {
					if got := place(s); !reflect.DeepEqual(got, celf) {
						t.Errorf("%s/%s P=%d: %s %v != celf %v", name, engName, procs, s, got, celf)
					}
				}
			}
		}
	}
}

// hasGainTie reports whether two candidates share a positive gain.
func hasGainTie(gains []float64) bool {
	seen := make(map[float64]bool)
	for _, g := range gains {
		if g > 0 && seen[g] {
			return true
		}
		seen[g] = true
	}
	return false
}

// TestCELFOracleStatsPinned pins CELF's and ml-celf's gain evaluations on
// fixed graphs to their values under per-candidate Φ rechecks. Cheaper
// rechecks may lower these counts; they must never raise them.
func TestCELFOracleStatsPinned(t *testing.T) {
	cases := []struct {
		name  string
		m     *flow.Model
		strat Strategy
		want  int
	}{
		{"celf", placeTestModel(t, 200, 0.04, 5), StrategyCELF, 324},
		{"ml-celf", chainTestModel(t, 400, 1), StrategyMLCELF, 140},
	}
	for _, c := range cases {
		for _, procs := range []int{1, 2} {
			res, err := Place(context.Background(), flow.NewFloat(c.m), 10, Options{Strategy: c.strat, Parallelism: procs})
			if err != nil {
				t.Fatal(err)
			}
			if got := res.Stats.GainEvaluations; got > c.want {
				t.Errorf("%s P=%d: %d gain evaluations, pinned at most %d", c.name, procs, got, c.want)
			}
		}
	}
}
