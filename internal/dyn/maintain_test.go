package dyn

import (
	"context"
	"errors"
	"math"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/flow"
	"repro/internal/gen"
	"repro/internal/graph"
)

// greedyF computes the from-scratch Greedy_All objective on the overlay's
// current snapshot — the quality reference for maintenance.
func greedyF(t *testing.T, d *Dynamic, k int) float64 {
	t.Helper()
	m, err := flow.NewModel(d.Snapshot(), d.Sources())
	if err != nil {
		t.Fatal(err)
	}
	ev := flow.NewFloat(m)
	res, err := core.Place(context.Background(), ev, k, core.Options{Strategy: core.StrategyGreedyAll})
	if err != nil {
		t.Fatal(err)
	}
	return ev.F(flow.MaskOf(m.N(), res.Filters))
}

func TestMaintainInitialMatchesGreedyAll(t *testing.T) {
	g, root := gen.QuoteLike(1)
	d, err := FromDigraph(g, []int{root})
	if err != nil {
		t.Fatal(err)
	}
	mt, err := NewMaintainer(d, Options{K: 8}, nil)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := mt.Maintain(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Strategy != StrategyInitial {
		t.Fatalf("strategy = %q, want initial", rep.Strategy)
	}
	if want := greedyF(t, d, 8); math.Abs(rep.FAfter-want) > 1e-6*want {
		t.Fatalf("initial F = %v, GreedyAll = %v", rep.FAfter, want)
	}
	if len(rep.Filters) == 0 || len(rep.Filters) > 8 {
		t.Fatalf("filters = %v", rep.Filters)
	}
}

// TestMaintainQualityUnderChurn is the acceptance criterion: on a churned
// Twitter-style graph, incremental maintenance must stay within 1% of
// from-scratch Greedy_All.
func TestMaintainQualityUnderChurn(t *testing.T) {
	const k = 10
	g, root := gen.TwitterLike(0.02, 1) // ≈2K nodes: CI-sized, same shape
	d, err := FromDigraph(g, []int{root})
	if err != nil {
		t.Fatal(err)
	}
	mt, err := NewMaintainer(d, Options{K: k}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mt.Maintain(context.Background()); err != nil {
		t.Fatal(err)
	}

	stream := gen.TwitterChurn(g, 8, 0.01, 2)
	incremental := 0
	for i, mu := range stream {
		if _, err := mt.Apply(Batch{Add: mu.Add, Remove: mu.Remove}); err != nil {
			t.Fatalf("batch %d: %v", i, err)
		}
		rep, err := mt.Maintain(context.Background())
		if err != nil {
			t.Fatalf("maintain %d: %v", i, err)
		}
		if rep.Strategy == StrategyIncremental {
			incremental++
		}
		want := greedyF(t, d, k)
		if rep.FAfter < 0.99*want {
			t.Fatalf("batch %d (%s): F = %v below 99%% of GreedyAll's %v",
				i, rep.Strategy, rep.FAfter, want)
		}
		if math.Abs(rep.FAfter-mt.Objective()) > 1e-6*(1+want) {
			t.Fatalf("report F %v disagrees with state %v", rep.FAfter, mt.Objective())
		}
	}
	if incremental == 0 {
		t.Fatal("no batch took the incremental path; drift bound miscalibrated")
	}
}

// TestMaintainDriftFallback feeds one batch whose dirty cone spans the
// whole graph: on a 300-node path, the shortcut (0,2) doubles the copies
// every node below 2 receives, so the forward cone alone exceeds the
// maxDrift bound and Maintain must recompute.
func TestMaintainDriftFallback(t *testing.T) {
	const n = 300
	path := make([][2]int, n-1)
	for v := range path {
		path[v] = [2]int{v, v + 1}
	}
	d, err := FromDigraph(graph.MustFromEdges(n, path), []int{0})
	if err != nil {
		t.Fatal(err)
	}
	mt, err := NewMaintainer(d, Options{K: 5}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mt.Maintain(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, err := mt.Apply(Batch{Add: [][2]int{{0, 2}}}); err != nil {
		t.Fatal(err)
	}
	rep, err := mt.Maintain(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if touched := rep.TouchedForward + rep.TouchedBackward; float64(touched) <= maxDrift*n {
		t.Fatalf("dirty cone = %d visits, want > %v·%d", touched, maxDrift, n)
	}
	if rep.Strategy != StrategyRecompute {
		t.Fatalf("strategy = %q, want recompute past the drift bound", rep.Strategy)
	}
	if want := greedyF(t, d, 5); math.Abs(rep.FAfter-want) > 1e-6*(1+want) || want == 0 {
		t.Fatalf("recompute F = %v, GreedyAll = %v", rep.FAfter, want)
	}
}

// TestMaintainReportExact pins the report's invariants against a fresh
// engine: after every batch of a churn stream, Φ(∅,V), F(V) and F(A) equal
// a from-scratch FloatEngine's values on the overlay's snapshot exactly.
func TestMaintainReportExact(t *testing.T) {
	g, root := gen.TwitterLike(0.02, 3)
	d, err := FromDigraph(g, []int{root})
	if err != nil {
		t.Fatal(err)
	}
	mt, err := NewMaintainer(d, Options{K: 8}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mt.Maintain(context.Background()); err != nil {
		t.Fatal(err)
	}
	for i, mu := range gen.TwitterChurn(g, 32, 0.01, 4) {
		if _, err := mt.Apply(Batch{Add: mu.Add, Remove: mu.Remove}); err != nil {
			t.Fatalf("batch %d: %v", i, err)
		}
		rep, err := mt.Maintain(context.Background())
		if err != nil {
			t.Fatalf("maintain %d: %v", i, err)
		}
		m, err := flow.NewModel(d.Snapshot(), d.Sources())
		if err != nil {
			t.Fatal(err)
		}
		ev := flow.NewFloat(m)
		if got, want := rep.PhiEmpty, ev.Phi(nil); got != want {
			t.Fatalf("batch %d: PhiEmpty = %v, fresh engine %v", i, got, want)
		}
		if got, want := rep.MaxF, ev.MaxF(); got != want {
			t.Fatalf("batch %d: MaxF = %v, fresh engine %v", i, got, want)
		}
		if got, want := rep.FAfter, ev.F(flow.MaskOf(m.N(), rep.Filters)); got != want {
			t.Fatalf("batch %d: FAfter = %v, fresh engine %v", i, got, want)
		}
	}
}

func TestMaintainResyncAfterMissedBatch(t *testing.T) {
	g, root := gen.RandomDAG(200, 0.02, 5)
	d, err := FromDigraph(g, []int{root})
	if err != nil {
		t.Fatal(err)
	}
	mt, err := NewMaintainer(d, Options{K: 4}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mt.Maintain(context.Background()); err != nil {
		t.Fatal(err)
	}
	// Mutate the overlay directly, bypassing the maintainer.
	stream := gen.TwitterChurn(g, 1, 0.02, 6)
	if _, err := d.Apply(Batch{Add: stream[0].Add, Remove: stream[0].Remove}); err != nil {
		t.Fatal(err)
	}
	rep, err := mt.Maintain(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Strategy != StrategyRecompute {
		t.Fatalf("strategy = %q, want recompute after a missed batch", rep.Strategy)
	}
	if want := greedyF(t, d, 4); math.Abs(rep.FAfter-want) > 1e-6*(1+want) {
		t.Fatalf("resynced F = %v, GreedyAll = %v", rep.FAfter, want)
	}
}

// TestRejectedBatchLeavesFlowStateUntouched is the satellite's second half:
// after a rejected batch the maintained flow state must be exactly as
// before, and the next Maintain must still take the incremental path.
func TestRejectedBatchLeavesFlowStateUntouched(t *testing.T) {
	d := diamond(t)
	mt, err := NewMaintainer(d, Options{K: 2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mt.Maintain(context.Background()); err != nil {
		t.Fatal(err)
	}
	fBefore := mt.Objective()
	filtersBefore := mt.Filters()
	ordBefore := d.Order()

	if _, err := mt.Apply(Batch{Add: [][2]int{{1, 2}, {4, 1}}}); !errors.Is(err, ErrCycle) {
		t.Fatalf("err = %v, want ErrCycle", err)
	}
	if got := mt.Objective(); got != fBefore {
		t.Fatalf("objective moved across a rejected batch: %v → %v", fBefore, got)
	}
	if got := mt.Filters(); len(got) != len(filtersBefore) {
		t.Fatalf("filters moved across a rejected batch: %v → %v", filtersBefore, got)
	}
	for i := range ordBefore {
		if d.OrdOf(i) != ordBefore[i] {
			t.Fatalf("order moved across a rejected batch")
		}
	}
	rep, err := mt.Maintain(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Strategy != StrategyIncremental {
		t.Fatalf("strategy = %q after rejected batch, want incremental", rep.Strategy)
	}
	if rep.Delta != 0 || len(rep.Added) != 0 || len(rep.Removed) != 0 {
		t.Fatalf("maintenance after a no-op: %+v", rep)
	}
}

func TestMaintainReportsMoves(t *testing.T) {
	// Start from a chain where node 1 is the only junction, then graft a
	// much better junction and check the report names the move.
	b := [][2]int{{0, 1}, {0, 2}, {1, 3}, {2, 3}, {3, 4}}
	g, err := FromDigraph(graph.MustFromEdges(5, b), []int{0})
	if err != nil {
		t.Fatal(err)
	}
	mt, err := NewMaintainer(g, Options{K: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := mt.Maintain(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Filters) != 1 || rep.Filters[0] != 3 {
		t.Fatalf("initial filters = %v, want [3]", rep.Filters)
	}
	// Grow a wide fan under node 4 and a second path into it: node 4
	// becomes the dominant junction.
	batch := Batch{AddNodes: 6, Add: [][2]int{{2, 4}, {4, 5}, {4, 6}, {4, 7}, {4, 8}, {4, 9}, {4, 10}}}
	if _, err := mt.Apply(batch); err != nil {
		t.Fatal(err)
	}
	rep, err = mt.Maintain(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Filters) != 1 || rep.Filters[0] != 4 {
		t.Fatalf("maintained filters = %v, want [4] (strategy %s)", rep.Filters, rep.Strategy)
	}
	if rep.Strategy == StrategyIncremental {
		if len(rep.Added) != 1 || rep.Added[0] != 4 || len(rep.Removed) != 1 || rep.Removed[0] != 3 {
			t.Fatalf("moves = +%v −%v, want +[4] −[3]", rep.Added, rep.Removed)
		}
	}
	if rep.Delta <= 0 {
		t.Fatalf("delta = %v, want positive after the graph grew a junction", rep.Delta)
	}
}

func TestMaintainSetK(t *testing.T) {
	g, root := gen.QuoteLike(2)
	d, err := FromDigraph(g, []int{root})
	if err != nil {
		t.Fatal(err)
	}
	mt, err := NewMaintainer(d, Options{K: 6}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mt.Maintain(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := mt.SetK(3); err != nil {
		t.Fatal(err)
	}
	rep, err := mt.Maintain(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Filters) > 3 {
		t.Fatalf("filters = %v after shrinking K to 3", rep.Filters)
	}
	if rep.Strategy != StrategyRecompute {
		t.Fatalf("strategy = %q, want recompute when the budget shrinks", rep.Strategy)
	}
}

// TestMaintainParallelismDeterministic checks that the initial placement
// and recompute fallback with parallel Greedy_All produce exactly the
// serial placement.
func TestMaintainParallelismDeterministic(t *testing.T) {
	build := func(par int) []int {
		g, root := gen.QuoteLike(3)
		d, err := FromDigraph(g, []int{root})
		if err != nil {
			t.Fatal(err)
		}
		mt, err := NewMaintainer(d, Options{K: 6, Parallelism: par}, nil)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := mt.Maintain(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return rep.Filters
	}
	serial := build(1)
	parallel := build(8)
	if !reflect.DeepEqual(serial, parallel) {
		t.Fatalf("parallel maintainer placed %v, serial %v", parallel, serial)
	}
}

// TestMaintainerPlanTracksOverlay is the plan-repair integration check:
// across a churn stream routed through the maintainer, the overlay
// model's plan must describe exactly the overlay's current graph — same
// shape and bit-identical evaluator observables as a from-scratch model.
func TestMaintainerPlanTracksOverlay(t *testing.T) {
	g, root := gen.RandomDAG(400, 0.015, 11)
	d, err := FromDigraph(g, []int{root})
	if err != nil {
		t.Fatal(err)
	}
	mt, err := NewMaintainer(d, Options{K: 6}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mt.Maintain(context.Background()); err != nil {
		t.Fatal(err)
	}

	check := func(round int) {
		t.Helper()
		mp := d.Model()
		p := mp.Plan()
		ref, err := flow.NewModel(d.Snapshot(), d.Sources())
		if err != nil {
			t.Fatalf("round %d: reference model: %v", round, err)
		}
		refPlan := ref.Plan()
		if p.N() != refPlan.N() || p.M() != refPlan.M() ||
			p.Levels() != refPlan.Levels() || p.MaxWidth() != refPlan.MaxWidth() {
			t.Fatalf("round %d: plan shape (n=%d m=%d levels=%d width=%d) != reference (n=%d m=%d levels=%d width=%d)",
				round, p.N(), p.M(), p.Levels(), p.MaxWidth(),
				refPlan.N(), refPlan.M(), refPlan.Levels(), refPlan.MaxWidth())
		}
		got, want := flow.NewFloat(mp), flow.NewFloat(ref)
		if gp, wp := got.Phi(nil), want.Phi(nil); gp != wp {
			t.Fatalf("round %d: phi over the overlay plan = %v, from scratch = %v", round, gp, wp)
		}
		fm := flow.MaskOf(mp.N(), mt.Filters())
		gi, wi := got.Impacts(fm), want.Impacts(fm)
		for v := range gi {
			if gi[v] != wi[v] {
				t.Fatalf("round %d: impact[%d] over the overlay plan = %v, from scratch = %v", round, v, gi[v], wi[v])
			}
		}
		gv, gg := got.ArgmaxImpact(fm, fm)
		wv, wg := want.ArgmaxImpact(fm, fm)
		if gv != wv || gg != wg {
			t.Fatalf("round %d: argmax over the overlay plan = (%d, %v), from scratch = (%d, %v)", round, gv, gg, wv, wg)
		}
	}
	check(0)

	stream := gen.TwitterChurn(g, 12, 0.01, 12)
	for i, mu := range stream {
		if _, err := mt.Apply(Batch{Add: mu.Add, Remove: mu.Remove}); err != nil {
			t.Fatalf("batch %d: %v", i, err)
		}
		if _, err := mt.Maintain(context.Background()); err != nil {
			t.Fatalf("maintain %d: %v", i, err)
		}
		check(i + 1)
	}
}
