package core

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"sync"
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
				// Each round prices the quotient's candidates, not the
				// original's V. celf runs the same path, so its charge is
				// the same.
				if rounds := int(ml.Passes.Forward); ml.Stats.GainEvaluations != rounds*cst.NodesAfter ||
					ref.Stats != ml.Stats || ref.CoarsenStats == nil || *ref.CoarsenStats != *cst {
					t.Fatalf("%s/%s P=%d: ml-celf spent %d gain evals over %d rounds (%d→%d contraction), celf %+v coarsen %v",
						name, engName, procs, ml.Stats.GainEvaluations, rounds,
						cst.NodesBefore, cst.NodesAfter, ref.Stats, ref.CoarsenStats)
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

// relabeledModel renames g's nodes by a seeded permutation, so plan
// positions and node ids differ as they do for uploaded graphs.
func relabeledModel(t testing.TB, g *graph.Digraph, src int, seed int64) *flow.Model {
	t.Helper()
	perm := rand.New(rand.NewSource(seed)).Perm(g.N())
	b := graph.NewBuilder(g.N())
	for u := 0; u < g.N(); u++ {
		for _, v := range g.Out(u) {
			b.AddEdge(perm[u], perm[v])
		}
	}
	return flow.MustModel(b.MustBuild(), []int{perm[src]})
}

// TestExactStrategiesOnePath: greedy-all, celf and ml-celf are one path.
// On every input, engine and parallelism they return the same filters,
// Stats, Passes and CoarsenStats, and those filters are the plain
// full-graph loop's. The size check declines where the quotient is
// nearly the whole graph (random-3k at k=5 on the float engine) and takes
// where it is tiny (twitter, chain); the big engine coarsens whenever the
// quotient is smaller at all.
func TestExactStrategiesOnePath(t *testing.T) {
	ctx := context.Background()
	mk := func(g *graph.Digraph, src int) *flow.Model { return flow.MustModel(g, []int{src}) }
	tg, tsrc := gen.TwitterLike(0.05, 1)
	t9, t9src := gen.TwitterLike(0.02, 2)
	cg, csrc := gen.ChainDAG(5000, 8, 1)
	rg, rsrc := gen.RandomDAG(3000, 0.005, 1)
	pg, psrc := gen.PowerLawDAG(2000, 3, 1)
	dg, dsrc := gen.DeepDAG(2000, 40, 1)
	powerlaw := mk(pg, psrc)
	cases := []struct {
		name string
		m    *flow.Model
		k    int
		// coarsen is whether the float engine's size check must take
		// (+1), must decline (-1) or may go either way (0).
		coarsen int
	}{
		{"twitter", relabeledModel(t, tg, tsrc, 1), 20, +1},
		{"chain", relabeledModel(t, cg, csrc, 2), 20, +1},
		{"twitter-small", relabeledModel(t, t9, t9src, 3), 12, +1},
		{"random-3k", mk(rg, rsrc), 5, -1},
		{"powerlaw/k=5", powerlaw, 5, 0},
		{"powerlaw/k=20", powerlaw, 20, 0},
		{"deep", mk(dg, dsrc), 5, 0},
	}
	engines := map[string]func(*flow.Model) flow.Evaluator{
		"float": func(m *flow.Model) flow.Evaluator { return flow.NewFloat(m) },
		"big":   func(m *flow.Model) flow.Evaluator { return flow.NewBig(m) },
	}
	for _, tc := range cases {
		for engName, newEv := range engines {
			for _, procs := range []int{1, 2} {
				where := fmt.Sprintf("%s/%s P=%d", tc.name, engName, procs)
				var plain Result
				if err := greedyLoop(ctx, newEv(tc.m), tc.k, Options{Parallelism: procs}, &plain); err != nil {
					t.Fatalf("%s: plain loop: %v", where, err)
				}
				gall, err := Place(ctx, newEv(tc.m), tc.k, Options{Strategy: StrategyGreedyAll, Parallelism: procs})
				if err != nil {
					t.Fatalf("%s greedy-all: %v", where, err)
				}
				if !reflect.DeepEqual(gall.Filters, plain.Filters) {
					t.Fatalf("%s: greedy-all %v, plain loop %v", where, gall.Filters, plain.Filters)
				}
				for _, s := range []Strategy{StrategyCELF, StrategyMLCELF} {
					res, err := Place(ctx, newEv(tc.m), tc.k, Options{Strategy: s, Parallelism: procs})
					if err != nil {
						t.Fatalf("%s %s: %v", where, s, err)
					}
					if !reflect.DeepEqual(res.Filters, gall.Filters) || res.Stats != gall.Stats || res.Passes != gall.Passes ||
						!reflect.DeepEqual(res.CoarsenStats, gall.CoarsenStats) {
						t.Fatalf("%s: %s %v %+v %+v coarsen %v; greedy-all %v %+v %+v coarsen %v", where, s,
							res.Filters, res.Stats, res.Passes, res.CoarsenStats, gall.Filters, gall.Stats, gall.Passes, gall.CoarsenStats)
					}
				}
				cst := gall.CoarsenStats
				want := tc.coarsen
				if engName == "big" {
					want = +1 // every input here contracts somewhat
				}
				switch {
				case want > 0 && cst == nil:
					t.Errorf("%s: the size check declined", where)
				case want < 0 && cst != nil:
					t.Errorf("%s: the size check took (%d→%d nodes)", where, cst.NodesBefore, cst.NodesAfter)
				}
				// Each round prices the candidates of the graph it ran on.
				n := tc.m.N()
				if cst != nil {
					n = cst.NodesAfter
				}
				if rounds := int(gall.Passes.Forward); gall.Stats.GainEvaluations != rounds*n || gall.Passes.Suffix != gall.Passes.Forward {
					t.Errorf("%s: %+v over passes %+v, want %d evals per round", where, gall.Stats, gall.Passes, n)
				}
			}
		}
	}
}

// TestExactPathConcurrent: placements racing on one fresh model — its
// cached size check and the pooled coarsen scratch shared between them —
// each return what a lone placement returns. Run it under -race.
func TestExactPathConcurrent(t *testing.T) {
	ctx := context.Background()
	g, src := gen.ChainDAG(2000, 8, 3)
	want, err := Place(ctx, flow.NewFloat(flow.MustModel(g, []int{src})), 10, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if want.CoarsenStats == nil {
		t.Fatal("chain graph did not coarsen")
	}
	m := flow.MustModel(g, []int{src})
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		strat := []Strategy{StrategyGreedyAll, StrategyCELF, StrategyMLCELF}[i%3]
		wg.Add(1)
		go func() {
			defer wg.Done()
			got, err := Place(ctx, flow.NewFloat(m), 10, Options{Strategy: strat, Parallelism: 1 + i%2})
			if err != nil {
				t.Error(err)
				return
			}
			if !reflect.DeepEqual(got.Filters, want.Filters) || got.Stats != want.Stats || !reflect.DeepEqual(got.CoarsenStats, want.CoarsenStats) {
				t.Errorf("%s: %v %+v %+v, alone %v %+v %+v", strat, got.Filters, got.Stats, got.CoarsenStats, want.Filters, want.Stats, want.CoarsenStats)
			}
		}()
	}
	wg.Wait()
}
