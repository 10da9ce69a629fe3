// Package experiments reproduces every figure of the paper's evaluation
// (§5): the in-degree CDFs (Figures 4 and 6), the Filter-Ratio-vs-k curves
// for the synthetic and real-like datasets (Figures 5, 7, 8, 9), the toy
// worked examples (Figures 1–3), the Figure-10 bottleneck motif, the
// running-time comparison (Figure 11), plus Proposition 1 and this
// reproduction's own ablations (CELF laziness, exact-vs-float engines,
// probabilistic propagation). Each experiment produces a Report whose rows
// are the same series the paper plots.
package experiments

import (
	"context"
	"math/rand"

	"repro/internal/core"
	"repro/internal/flow"
)

// Algorithm is a named filter-placement strategy in the paper's legend
// form.
type Algorithm struct {
	// Name as in the paper's figure legends (G_ALL, G_Max, G_1, G_L,
	// Rand_W, Rand_I, Rand_K).
	Name string
	// Place returns up to k filter nodes. rng is consulted only when
	// Randomized.
	Place func(ev flow.Evaluator, k int, rng *rand.Rand) []int
	// Randomized marks the baselines that must be averaged over runs.
	Randomized bool
	// Incremental marks algorithms whose length-i output prefix equals
	// their budget-i output, letting FR curves reuse one placement.
	Incremental bool
}

// place adapts core.Place to the Algorithm closure shape, discarding the
// error: the background context never cancels and every strategy name is
// valid by construction.
func place(ev flow.Evaluator, strat core.Strategy, k, parallelism int, rng *rand.Rand) []int {
	res, _ := core.Place(context.Background(), ev, k, core.Options{
		Strategy:    strat,
		Parallelism: parallelism,
		Rand:        rng,
	})
	return res.Filters
}

// StandardAlgorithms returns the paper's seven algorithms in legend order.
// The optional argument is the core.Place parallelism (results are
// identical at any setting; it only changes how many goroutines evaluate
// marginal gains).
func StandardAlgorithms(parallelism ...int) []Algorithm {
	par := 1
	if len(parallelism) > 0 {
		par = parallelism[0]
	}
	legend := []struct {
		name  string
		strat core.Strategy
	}{
		{"G_ALL", core.StrategyGreedyAll},
		{"G_Max", core.StrategyGreedyMax},
		{"G_1", core.StrategyGreedy1},
		{"G_L", core.StrategyGreedyL},
		{"Rand_W", core.StrategyRandW},
		{"Rand_I", core.StrategyRandI},
		{"Rand_K", core.StrategyRandK},
	}
	algos := make([]Algorithm, len(legend))
	for i, l := range legend {
		info, _ := core.LookupStrategy(string(l.strat))
		algos[i] = Algorithm{
			Name: l.name,
			Place: func(ev flow.Evaluator, k int, rng *rand.Rand) []int {
				return place(ev, l.strat, k, par, rng)
			},
			Randomized: info.Randomized,
			// The legend's deterministic strategies are all greedy: their
			// budget-i output is the prefix of their budget-k output.
			Incremental: !info.Randomized,
		}
	}
	return algos
}

// GreedyAlgorithms returns only the four deterministic algorithms, the set
// the paper times in Figure 11.
func GreedyAlgorithms(parallelism ...int) []Algorithm {
	all := StandardAlgorithms(parallelism...)
	var out []Algorithm
	for _, a := range all {
		if !a.Randomized {
			out = append(out, a)
		}
	}
	return out
}
