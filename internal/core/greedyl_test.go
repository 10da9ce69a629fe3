package core

import (
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/flow"
	"repro/internal/gen"
)

// The greedy-l tests compare Place's greedy-l, which takes the
// incremental path on the float engine, against greedyLPasses, the
// one-forward-pass-per-round reference.

func TestGreedyLFastMatchesGreedyL(t *testing.T) {
	f := func(seed int64) bool {
		g, src := gen.RandomDAG(40, 0.12, seed)
		ev := flow.NewFloat(flow.MustModel(g, []int{src}))
		a := greedyLPasses(ev, 6)
		b := placeFilters(t, ev, 6, StrategyGreedyL)
		if !reflect.DeepEqual(a, b) {
			t.Logf("seed %d: passes %v vs incremental %v", seed, a, b)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestGreedyLFastOnDatasets(t *testing.T) {
	for name, mk := range map[string]func() (*flow.Model, error){
		"quote": func() (*flow.Model, error) {
			g, s := gen.QuoteLike(1)
			return flow.NewModel(g, []int{s})
		},
		"citation": func() (*flow.Model, error) {
			g, s := gen.CitationLike(1)
			return flow.NewModel(g, []int{s})
		},
		"twitter-small": func() (*flow.Model, error) {
			g, s := gen.TwitterLike(0.02, 1)
			return flow.NewModel(g, []int{s})
		},
	} {
		m, err := mk()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		ev := flow.NewFloat(m)
		a := greedyLPasses(ev, 10)
		b := placeFilters(t, ev, 10, StrategyGreedyL)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: passes %v vs incremental %v", name, a, b)
		}
		// The legacy name resolves to the same strategy.
		if c := placeFilters(t, ev, 10, "greedy-l-fast"); !reflect.DeepEqual(a, c) {
			t.Errorf("%s: greedy-l-fast %v vs greedy-l %v", name, c, a)
		}
	}
}

func TestGreedyLFastWeightedFallback(t *testing.T) {
	g, src := gen.RandomDAG(30, 0.15, 2)
	m := flow.MustModel(g, []int{src}).WithWeights(func(u, v int) float64 { return 0.8 })
	ev := flow.NewFloat(m)
	a := greedyLPasses(ev, 4)
	b := placeFilters(t, ev, 4, StrategyGreedyL)
	if !reflect.DeepEqual(a, b) {
		t.Errorf("weighted fallback differs: %v vs %v", a, b)
	}
}

func BenchmarkGreedyLPlain(b *testing.B) {
	g, src := gen.CitationLike(1)
	ev := flow.NewFloat(flow.MustModel(g, []int{src}))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		greedyLPasses(ev, 10)
	}
}

func BenchmarkGreedyLFast(b *testing.B) {
	g, src := gen.CitationLike(1)
	ev := flow.NewFloat(flow.MustModel(g, []int{src}))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		greedyLIncremental(ev, 10)
	}
}
