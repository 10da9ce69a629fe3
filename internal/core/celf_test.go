package core

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/flow"
	"repro/internal/gen"
)

// TestCELFIdentity pins celf and ml-celf to the strategies that price
// gains independently: celf, greedy-all and naive (one Φ pass per
// candidate) place the same filters on the float and big engines at P=1
// and P=2. The short-chain graph is tie-heavy — many candidates share a
// gain exactly — so smaller-id tie-breaking is exercised too. Diamond
// chains push Φ(∅) past 2^120, where gains are no longer exact float64
// values: on the big engine celf and ml-celf must still pick big
// greedy-all's exact argmax.
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
	for _, d := range []int{120, 200} {
		g, src := gen.DiamondChain(d)
		m, err := flow.NewModel(g, []int{src})
		if err != nil {
			t.Fatal(err)
		}
		for _, procs := range []int{1, 2} {
			place := func(s Strategy) []int {
				res, err := Place(context.Background(), flow.NewBig(m), 3, Options{Strategy: s, Parallelism: procs})
				if err != nil {
					t.Fatalf("diamonds-%d/big P=%d %s: %v", d, procs, s, err)
				}
				return res.Filters
			}
			gall := place(StrategyGreedyAll)
			for _, s := range []Strategy{StrategyCELF, StrategyMLCELF} {
				if got := place(s); !reflect.DeepEqual(got, gall) {
					t.Errorf("diamonds-%d/big P=%d: %s %v != greedy-all %v", d, procs, s, got, gall)
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

// TestCELFOracleStatsPinned pins celf's and ml-celf's topological passes
// on fixed graphs to their values under lazy-heap CELF (10 forward and 10
// suffix passes at P=1 and P=2 on both models): running greedy-all's loop
// must never cost more passes. celf is greedy-all under another name, so
// its Stats and Passes must equal greedy-all's too.
func TestCELFOracleStatsPinned(t *testing.T) {
	cases := []struct {
		name  string
		m     *flow.Model
		strat Strategy
		want  PassStats
	}{
		{"celf", placeTestModel(t, 200, 0.04, 5), StrategyCELF, PassStats{Forward: 10, Suffix: 10}},
		{"ml-celf", chainTestModel(t, 400, 1), StrategyMLCELF, PassStats{Forward: 10, Suffix: 10}},
	}
	for _, c := range cases {
		for _, procs := range []int{1, 2} {
			place := func(s Strategy) Result {
				res, err := Place(context.Background(), flow.NewFloat(c.m), 10, Options{Strategy: s, Parallelism: procs})
				if err != nil {
					t.Fatal(err)
				}
				return res
			}
			res := place(c.strat)
			if got := res.Passes; got.Forward > c.want.Forward || got.Suffix > c.want.Suffix {
				t.Errorf("%s P=%d: passes %+v, pinned at most %+v", c.name, procs, got, c.want)
			}
			if c.strat != StrategyCELF {
				continue
			}
			gall := place(StrategyGreedyAll)
			if res.Stats != gall.Stats || res.Passes != gall.Passes {
				t.Errorf("celf P=%d: stats %+v passes %+v, greedy-all stats %+v passes %+v",
					procs, res.Stats, res.Passes, gall.Stats, gall.Passes)
			}
		}
	}
}
