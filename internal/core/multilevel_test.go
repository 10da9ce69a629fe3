package core

import (
	"context"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/flow"
	"repro/internal/gen"
	"repro/internal/graph"
)

// chainTestModel builds a chain-heavy DAG: a small random core with long
// single-in relay chains hanging off it — the structure ml-celf's lossless
// rules contract hardest.
func chainTestModel(t testing.TB, n int, seed int64) *flow.Model {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	core := n / 5
	if core < 4 {
		core = 4
	}
	b := graph.NewBuilder(n)
	for v := 1; v < core; v++ {
		d := 1 + rng.Intn(3)
		for j := 0; j < d; j++ {
			b.AddEdge(rng.Intn(v), v)
		}
	}
	v := core
	for v < n {
		length := 2 + rng.Intn(6)
		if v+length > n {
			length = n - v
		}
		origin := rng.Intn(core)
		at := origin
		for j := 0; j < length; j++ {
			b.AddEdge(at, v)
			at = v
			v++
		}
		if rng.Intn(2) == 0 && origin+1 < core {
			b.AddEdge(at, origin+1+rng.Intn(core-origin-1))
		}
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	m, err := flow.NewModel(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestMLCELFLosslessEqualsCELF is ml-celf's contract: with default
// options it returns EXACTLY celf's filter set — same ids, same pick
// order, same F(A) — on both arithmetic engines at P=1 and P=2.
// twitter-23k contracts to a handful of supernodes, where any lossy
// contraction would drop most of celf's picks.
func TestMLCELFLosslessEqualsCELF(t *testing.T) {
	ctx := context.Background()
	tg, tsrc := gen.TwitterLike(0.25, 1)
	models := map[string]struct {
		m *flow.Model
		k int
	}{
		"chain-heavy-300": {chainTestModel(t, 300, 1), 8},
		"chain-heavy-500": {chainTestModel(t, 500, 2), 8},
		"random-sparse":   {placeTestModel(t, 150, 0.03, 3), 8},
		"twitter-23k":     {flow.MustModel(tg, []int{tsrc}), 20},
	}
	for name, tc := range models {
		m := tc.m
		engines := map[string]func() flow.Evaluator{
			"float": func() flow.Evaluator { return flow.NewFloat(m) },
			"big":   func() flow.Evaluator { return flow.NewBig(m) },
		}
		for engName, mk := range engines {
			for _, procs := range []int{1, 2} {
				ref, err := Place(ctx, mk(), tc.k, Options{Strategy: StrategyCELF, Parallelism: procs})
				if err != nil {
					t.Fatalf("%s/%s P=%d celf: %v", name, engName, procs, err)
				}
				ml, err := Place(ctx, mk(), tc.k, Options{Strategy: StrategyMLCELF, Parallelism: procs})
				if err != nil {
					t.Fatalf("%s/%s P=%d ml-celf: %v", name, engName, procs, err)
				}
				cst := ml.CoarsenStats
				if cst == nil {
					t.Fatalf("%s/%s P=%d: ml-celf reported no coarsening", name, engName, procs)
				}
				if !reflect.DeepEqual(ml.Filters, ref.Filters) {
					t.Fatalf("%s/%s P=%d: ml-celf picked %v, celf picked %v (coarsen %+v)",
						name, engName, procs, ml.Filters, ref.Filters, *cst)
				}
				ev := mk()
				if got, want := ev.F(flow.MaskOf(m.N(), ml.Filters)), ev.F(flow.MaskOf(m.N(), ref.Filters)); got != want {
					t.Fatalf("%s/%s P=%d: F mismatch %v vs %v", name, engName, procs, got, want)
				}
				// Every pass ran on the quotient: greedy's budget of one
				// sweep per round, plus a last sweep that may find no gain.
				if p := ml.Passes; p.Forward == 0 || p.Forward != p.Suffix || p.Forward > int64(ml.Stats.Iterations+1) {
					t.Fatalf("%s/%s P=%d: passes %+v, want forward == suffix in [1, %d]",
						name, engName, procs, p, ml.Stats.Iterations+1)
				}
				// The quotient solve must touch fewer candidates than celf's
				// V-sized sweeps on graphs that actually contract.
				if cst.NodesAfter < cst.NodesBefore/2 && ml.Stats.GainEvaluations >= ref.Stats.GainEvaluations {
					t.Fatalf("%s/%s P=%d: ml-celf spent %d gain evals, celf %d, despite %d→%d contraction",
						name, engName, procs, ml.Stats.GainEvaluations, ref.Stats.GainEvaluations,
						cst.NodesBefore, cst.NodesAfter)
				}
			}
		}
	}
}

// TestMLCELFFallsBackToCELF: on models Coarsen cannot contract — weighted
// ones and quotients it already built — ml-celf runs greedy-all on the
// original graph and returns celf's filters without coarsen stats.
func TestMLCELFFallsBackToCELF(t *testing.T) {
	ctx := context.Background()
	tg, tsrc := gen.TwitterLike(0.02, 1)
	weighted := flow.MustModel(tg, []int{tsrc}).WithWeights(func(u, v int) float64 { return 0.9 })
	quotient, _, _, err := flow.Coarsen(chainTestModel(t, 300, 1), flow.CoarsenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !quotient.Coarse() {
		t.Fatal("chain-heavy quotient carries no multiplicity weights")
	}
	for name, m := range map[string]*flow.Model{"weighted": weighted, "quotient": quotient} {
		ref, err := Place(ctx, flow.NewFloat(m), 5, Options{Strategy: StrategyCELF})
		if err != nil {
			t.Fatalf("%s celf: %v", name, err)
		}
		ml, err := Place(ctx, flow.NewFloat(m), 5, Options{Strategy: StrategyMLCELF})
		if err != nil {
			t.Fatalf("%s ml-celf: %v", name, err)
		}
		if !reflect.DeepEqual(ml.Filters, ref.Filters) || ml.Stats != ref.Stats {
			t.Fatalf("%s: ml-celf %v %+v, celf %v %+v", name, ml.Filters, ml.Stats, ref.Filters, ref.Stats)
		}
		if ml.CoarsenStats != nil {
			t.Fatalf("%s: fallback reported coarsen stats %+v", name, *ml.CoarsenStats)
		}
		if name == "weighted" && !reflect.DeepEqual(ref.Filters, []int{4, 3, 19, 21, 20}) {
			t.Fatalf("weighted celf placed %v, want [4 3 19 21 20]", ref.Filters)
		}
	}
}

// TestMLCELFParallelDeterminism: filters and OracleStats are bit-identical
// at every Parallelism setting.
func TestMLCELFParallelDeterminism(t *testing.T) {
	ctx := context.Background()
	for seed := int64(1); seed <= 2; seed++ {
		m := chainTestModel(t, 400, seed)
		opts := Options{Strategy: StrategyMLCELF}
		serial, err := Place(ctx, flow.NewFloat(m), 10, opts)
		if err != nil {
			t.Fatal(err)
		}
		for _, procs := range []int{4, runtime.GOMAXPROCS(0)} {
			opts.Parallelism = procs
			par, err := Place(ctx, flow.NewFloat(m), 10, opts)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(par.Filters, serial.Filters) {
				t.Fatalf("seed %d procs=%d: filters %v != serial %v", seed, procs, par.Filters, serial.Filters)
			}
			if par.Stats != serial.Stats {
				t.Fatalf("seed %d procs=%d: stats %+v != serial %+v", seed, procs, par.Stats, serial.Stats)
			}
		}
	}
}

// TestOptionsValidate pins the centralized validation contract shared by
// core.Place, the HTTP layer and the CLI.
func TestOptionsValidate(t *testing.T) {
	good := []Options{
		{},
		{Strategy: StrategyMLCELF},
		{Quality: 0.5, SampleBudget: 3},
		{Parallelism: 8},
	}
	for i, o := range good {
		if err := o.Validate(); err != nil {
			t.Fatalf("good[%d] rejected: %v", i, err)
		}
	}
	bad := []Options{
		{Strategy: "no-such-strategy"},
		{Parallelism: -1},
		{Quality: -0.1},
		{Quality: 0.6},
		{SampleBudget: -1},
	}
	for i, o := range bad {
		if err := o.Validate(); err == nil {
			t.Fatalf("bad[%d] accepted: %+v", i, o)
		}
		// Place must surface the identical error.
		m := placeTestModel(t, 10, 0.2, 1)
		if _, err := Place(context.Background(), flow.NewFloat(m), 2, o); err == nil {
			t.Fatalf("Place accepted bad[%d]: %+v", i, o)
		}
	}
}
