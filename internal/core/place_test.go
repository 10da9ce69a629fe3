package core

import (
	"context"
	"math/rand"
	"reflect"
	"runtime"
	"testing"
	"time"

	"repro/internal/flow"
	"repro/internal/graph"
)

// placeTestModel builds a random DAG model (edges low→high id, always
// acyclic) dense enough that every strategy places a full budget.
func placeTestModel(t testing.TB, n int, p float64, seed int64) *flow.Model {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	b := graph.NewBuilder(n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if rng.Float64() < p {
				b.AddEdge(u, v)
			}
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

// TestPlaceParallelDeterminism is the acceptance gate of the parallel
// refactor: on random DAGs, Place at P = 1, 4 and GOMAXPROCS returns
// exactly the serial path's filter sets AND OracleStats for every
// strategy, on both engines.
func TestPlaceParallelDeterminism(t *testing.T) {
	strategies := []Strategy{
		StrategyGreedyAll, StrategyCELF, StrategyNaive, StrategyMLCELF,
		StrategyGreedyMax, StrategyGreedy1, StrategyGreedyL,
		StrategyRandK, StrategyRandI, StrategyRandW, StrategyProp1,
	}
	procsList := []int{1, 4, runtime.GOMAXPROCS(0)}
	for seed := int64(1); seed <= 3; seed++ {
		m := placeTestModel(t, 150, 0.05, seed)
		engines := map[string]flow.Evaluator{
			"float": flow.NewFloat(m),
			"big":   flow.NewBig(m),
		}
		for engName, ev := range engines {
			for _, strat := range strategies {
				serial, err := Place(context.Background(), ev, 12, Options{Strategy: strat, Seed: 7})
				if err != nil {
					t.Fatalf("seed %d %s/%s serial: %v", seed, engName, strat, err)
				}
				for _, procs := range procsList {
					par, err := Place(context.Background(), ev, 12, Options{Strategy: strat, Seed: 7, Parallelism: procs})
					if err != nil {
						t.Fatalf("seed %d %s/%s P=%d: %v", seed, engName, strat, procs, err)
					}
					if !reflect.DeepEqual(par.Filters, serial.Filters) {
						t.Errorf("seed %d %s/%s P=%d: filters %v, serial %v",
							seed, engName, strat, procs, par.Filters, serial.Filters)
					}
					if par.Stats != serial.Stats {
						t.Errorf("seed %d %s/%s P=%d: stats %+v, serial %+v",
							seed, engName, strat, procs, par.Stats, serial.Stats)
					}
				}
			}
		}
	}
}

// TestPlaceMatchesLegacy pins every strategy to an independent
// reference: the serial closed-form greedy for its cost profiles, and the
// standalone implementations the heuristics and baselines wrap.
func TestPlaceMatchesLegacy(t *testing.T) {
	m := placeTestModel(t, 120, 0.06, 11)
	ev := flow.NewFloat(m)
	k := 10
	ctx := context.Background()

	check := func(name string, got, want []int) {
		t.Helper()
		if len(got) == 0 && len(want) == 0 {
			return
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: Place %v, reference %v", name, got, want)
		}
	}
	greedy := placeFilters(t, ev, k, StrategyGreedyAll)
	res, _ := Place(ctx, ev, k, Options{Strategy: StrategyGreedyAll, Parallelism: 4})
	check("greedy-all", res.Filters, greedy)

	res, _ = Place(ctx, ev, k, Options{Strategy: StrategyCELF, Parallelism: 4})
	check("celf", res.Filters, greedy)

	res, _ = Place(ctx, ev, k, Options{Strategy: StrategyNaive, Parallelism: 4})
	check("naive", res.Filters, greedy)

	res, _ = Place(ctx, ev, k, Options{Strategy: StrategyGreedyMax, Parallelism: 4})
	check("greedy-max", res.Filters, topK(ev.Impacts(nil), k))

	res, _ = Place(ctx, ev, k, Options{Strategy: StrategyGreedy1})
	check("greedy-1", res.Filters, greedy1(m.Graph(), k))

	res, _ = Place(ctx, ev, k, Options{Strategy: StrategyGreedyL})
	check("greedy-l", res.Filters, greedyLPasses(ev, k))

	res, _ = Place(ctx, ev, k, Options{Strategy: StrategyRandK, Seed: 3})
	check("rand-k", res.Filters, RandK(m, k, rand.New(rand.NewSource(3))))

	res, _ = Place(ctx, ev, k, Options{Strategy: StrategyProp1})
	check("prop1", res.Filters, UnboundedOptimal(m.Graph()))
}

// TestPlaceCELFStatsSaveWork sanity-checks the ablation invariant: lazy
// evaluation spends strictly fewer oracle calls than the naive profile on
// a non-trivial graph, at any parallelism.
func TestPlaceCELFStatsSaveWork(t *testing.T) {
	m := placeTestModel(t, 200, 0.04, 5)
	ev := flow.NewFloat(m)
	naive, err := Place(context.Background(), ev, 10, Options{Strategy: StrategyNaive})
	if err != nil {
		t.Fatal(err)
	}
	for _, procs := range []int{1, 4} {
		celf, err := Place(context.Background(), ev, 10, Options{Strategy: StrategyCELF, Parallelism: procs})
		if err != nil {
			t.Fatal(err)
		}
		if celf.Stats.GainEvaluations >= naive.Stats.GainEvaluations {
			t.Errorf("P=%d: CELF spent %d gain evaluations, naive %d — laziness saved nothing",
				procs, celf.Stats.GainEvaluations, naive.Stats.GainEvaluations)
		}
		if !reflect.DeepEqual(celf.Filters, naive.Filters) {
			t.Errorf("P=%d: CELF filters %v != naive %v", procs, celf.Filters, naive.Filters)
		}
	}
}

// TestPlaceCancellation checks that a context canceled mid-placement makes
// Place return promptly with ctx.Err() and without leaking goroutines
// beyond the process-wide scheduler pool.
func TestPlaceCancellation(t *testing.T) {
	m := placeTestModel(t, 400, 0.05, 9)
	ev := flow.NewFloat(m)
	// Warm the shared pool first: its workers are process-persistent by
	// design, so they must be part of the baseline, not counted as leaks.
	if _, err := Place(context.Background(), ev, 2, Options{Strategy: StrategyNaive, Parallelism: 2}); err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()
	for _, strat := range []Strategy{StrategyGreedyAll, StrategyCELF, StrategyNaive} {
		ctx, cancel := context.WithCancel(context.Background())
		cancel() // already canceled: must abort before the first round
		if _, err := Place(ctx, ev, 50, Options{Strategy: strat, Parallelism: 4}); err != context.Canceled {
			t.Errorf("%s pre-canceled: err = %v, want context.Canceled", strat, err)
		}

		// Cancel mid-flight from another goroutine.
		ctx, cancel = context.WithCancel(context.Background())
		done := make(chan error, 1)
		go func() {
			_, err := Place(ctx, ev, 200, Options{Strategy: strat, Parallelism: 4})
			done <- err
		}()
		time.Sleep(2 * time.Millisecond)
		cancel()
		select {
		case err := <-done:
			if err != nil && err != context.Canceled {
				t.Errorf("%s mid-flight: err = %v", strat, err)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("%s did not return within 10s of cancellation", strat)
		}
	}
	// Workers are joined before Place returns, so the goroutine count
	// settles back to the baseline (poll briefly: the runtime may retire
	// exiting goroutines asynchronously).
	deadline := time.Now().Add(5 * time.Second)
	for {
		if g := runtime.NumGoroutine(); g <= before {
			break
		} else if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d now, %d before", g, before)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestPlaceUnknownStrategy checks the error path.
func TestPlaceUnknownStrategy(t *testing.T) {
	m := placeTestModel(t, 20, 0.2, 1)
	if _, err := Place(context.Background(), flow.NewFloat(m), 3, Options{Strategy: "simulated-annealing"}); err == nil {
		t.Fatal("unknown strategy accepted")
	}
}

// TestPlaceMultiEngine checks Place runs (and parallelizes via cloning) on
// the multi-item evaluator.
func TestPlaceMultiEngine(t *testing.T) {
	m := placeTestModel(t, 100, 0.06, 13)
	me, err := flow.NewMulti(m.Graph(), []flow.Item{
		{Name: "a", Source: m.Sources()[0], Rate: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	serial, err := Place(context.Background(), me, 8, Options{Strategy: StrategyNaive})
	if err != nil {
		t.Fatal(err)
	}
	par, err := Place(context.Background(), me, 8, Options{Strategy: StrategyNaive, Parallelism: 3})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial.Filters, par.Filters) || serial.Stats != par.Stats {
		t.Fatalf("multi-engine parallel diverged: %v/%+v vs %v/%+v",
			par.Filters, par.Stats, serial.Filters, serial.Stats)
	}
	if par.Parallelism != 3 {
		t.Fatalf("multi-engine did not clone: parallelism %d", par.Parallelism)
	}
}

// TestPlaceNoCandidatesParallel is a regression test: an edgeless graph
// (every node a source, zero candidates) must return an empty placement,
// not divide by zero in the parallel sharding.
func TestPlaceNoCandidatesParallel(t *testing.T) {
	g, err := graph.FromEdges(3, nil)
	if err != nil {
		t.Fatal(err)
	}
	m, err := flow.NewModel(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, strat := range []Strategy{StrategyNaive, StrategyCELF, StrategyGreedyAll} {
		res, err := Place(context.Background(), flow.NewFloat(m), 2, Options{Strategy: strat, Parallelism: 4})
		if err != nil {
			t.Fatalf("%s: %v", strat, err)
		}
		if len(res.Filters) != 0 {
			t.Errorf("%s placed %v on an edgeless graph", strat, res.Filters)
		}
	}
}

// TestPlacePartialStatsOnCancel checks the canceled-run contract: no
// filters, but the oracle work done before the abort is reported.
func TestPlacePartialStatsOnCancel(t *testing.T) {
	m := placeTestModel(t, 300, 0.05, 21)
	ev := flow.NewFloat(m)
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(time.Millisecond)
		cancel()
	}()
	res, err := Place(ctx, ev, 200, Options{Strategy: StrategyNaive})
	if err == nil {
		t.Skip("placement finished before cancellation on this host")
	}
	if res.Filters != nil {
		t.Errorf("canceled Place returned filters %v", res.Filters)
	}
	// Stats may legitimately be zero if the cancel landed before round 1,
	// but the field must reflect whatever was counted — exercised here by
	// just reading it; the stats-parity test pins the accounting itself.
	_ = res.Stats
}
