package fp_test

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	fp "repro"
)

// place runs a serial fp.Place and returns its filters, failing the test
// on error.
func place(t testing.TB, ev fp.Evaluator, k int, s fp.PlaceStrategy) []int {
	t.Helper()
	res, err := fp.Place(context.Background(), ev, k, fp.PlaceOptions{Strategy: s})
	if err != nil {
		t.Fatalf("Place %s: %v", s, err)
	}
	return res.Filters
}

// TestQuickstart mirrors the package-documentation session end to end.
func TestQuickstart(t *testing.T) {
	g := fp.MustFromEdges(4, [][2]int{{0, 1}, {0, 2}, {1, 3}, {2, 3}})
	model, err := fp.NewModel(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	ev := fp.NewFloat(model)
	if phi := ev.Phi(nil); phi != 4 { // 1 + 1 + 2 copies
		t.Fatalf("Φ(∅) = %v, want 4", phi)
	}
	filters := place(t, ev, 1, fp.StrategyGreedyAll)
	if len(filters) != 1 || filters[0] != 3 {
		// Node 3 is the only node with in-degree > 1... but it is a sink,
		// so no filter helps on the diamond.
		t.Logf("filters = %v", filters)
	}
	// The diamond's junction is its sink, so FR is vacuously 1 with any
	// placement (MaxF = 0).
	if fr := fp.FR(ev, fp.MaskOf(g.N(), filters)); fr != 1 {
		t.Errorf("FR = %v, want 1 (no removable redundancy)", fr)
	}
}

func TestFacadeEndToEndPipeline(t *testing.T) {
	// Generate → serialize → parse → model → place → evaluate, all
	// through the public API.
	g, src := fp.QuoteLike(3)
	var buf bytes.Buffer
	if err := fp.WriteEdgeList(&buf, g); err != nil {
		t.Fatal(err)
	}
	g2, err := fp.ReadEdgeList(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if g2.N() != g.N() || g2.M() != g.M() {
		t.Fatalf("round trip changed size: (%d,%d) vs (%d,%d)", g2.N(), g2.M(), g.N(), g.M())
	}
	model, err := fp.NewModel(g2, []int{src})
	if err != nil {
		t.Fatal(err)
	}
	ev := fp.NewBig(model)
	filters := place(t, ev, 4, fp.StrategyGreedyAll)
	if fr := fp.FR(ev, fp.MaskOf(g2.N(), filters)); fr != 1 {
		t.Errorf("FR after 4 greedy filters on QuoteLike = %v, want 1", fr)
	}
	// Proposition 1's unbounded set must match greedy's four picks as a
	// set on this graph.
	p1 := fp.UnboundedOptimal(g2)
	if len(p1) != 4 {
		t.Errorf("UnboundedOptimal returned %d nodes, want 4", len(p1))
	}
}

func TestFacadeCyclicPipeline(t *testing.T) {
	// A cyclic graph must be rejected by NewModel and repaired by Acyclic.
	b := fp.NewBuilder(4)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(2, 1) // cycle
	b.AddEdge(2, 3)
	g := b.MustBuild()
	if _, err := fp.NewModel(g, []int{0}); err == nil {
		t.Fatal("cyclic model accepted")
	}
	dag, st, err := fp.Acyclic(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	if st.Rejected != 1 {
		t.Errorf("rejected = %d, want 1", st.Rejected)
	}
	if _, err := fp.NewModel(dag, []int{0}); err != nil {
		t.Errorf("repaired graph rejected: %v", err)
	}
}

func TestFacadeAlgorithmsConsistent(t *testing.T) {
	g, src := fp.RandomDAG(60, 0.08, 11)
	model, err := fp.NewModel(g, []int{src})
	if err != nil {
		t.Fatal(err)
	}
	ev := fp.NewFloat(model)
	ref := place(t, ev, 5, fp.StrategyGreedyAll)
	celfRes, err := fp.Place(context.Background(), ev, 5, fp.PlaceOptions{Strategy: fp.StrategyCELF})
	if err != nil {
		t.Fatal(err)
	}
	celf, st := celfRes.Filters, celfRes.Stats
	if len(ref) != len(celf) {
		t.Fatalf("CELF differs: %v vs %v", celf, ref)
	}
	for i := range ref {
		if ref[i] != celf[i] {
			t.Fatalf("CELF differs at %d: %v vs %v", i, celf, ref)
		}
	}
	if st.GainEvaluations <= 0 {
		t.Error("CELF reported no work")
	}
	for _, nodes := range [][]int{
		place(t, ev, 5, fp.StrategyGreedyMax), place(t, ev, 5, "g1"), place(t, ev, 5, fp.StrategyGreedyL),
		fp.RandK(model, 5, rand.New(rand.NewSource(1))),
		fp.RandI(model, 5, rand.New(rand.NewSource(1))),
		fp.RandW(model, 5, rand.New(rand.NewSource(1))),
	} {
		fr := fp.FR(ev, fp.MaskOf(g.N(), nodes))
		if fr < 0 || fr > 1 {
			t.Errorf("FR out of range: %v", fr)
		}
	}
}

func TestFacadeTreeDP(t *testing.T) {
	g, src := fp.RandomCTree(30, 0.4, 5)
	filters, f, err := fp.TreeDP(g, src, 3)
	if err != nil {
		t.Fatal(err)
	}
	model, _ := fp.NewModel(g, []int{src})
	ev := fp.NewFloat(model)
	if got := ev.F(fp.MaskOf(g.N(), filters)); got != f {
		t.Errorf("TreeDP claims F=%v, evaluator says %v", f, got)
	}
	// On a tree the exact DP is at least as good as greedy.
	greedy := place(t, ev, 3, fp.StrategyGreedyAll)
	if gf := ev.F(fp.MaskOf(g.N(), greedy)); f < gf {
		t.Errorf("DP %v worse than greedy %v", f, gf)
	}
}

func TestFacadeSimulator(t *testing.T) {
	g, s := fp.Figure1()
	sim, err := fp.NewSimulator(g, []int{s})
	if err != nil {
		t.Fatal(err)
	}
	rec, err := sim.Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	if rec[6] != 4 { // w receives four copies
		t.Errorf("rec[w] = %d, want 4", rec[6])
	}
}

func TestFacadeExperiments(t *testing.T) {
	ids := fp.ExperimentIDs()
	if len(ids) != 23 {
		t.Fatalf("ExperimentIDs = %v (len %d), want 23", ids, len(ids))
	}
	rep, err := fp.RunExperiment("fig3", fp.ExperimentOptions{Seed: 1, Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(rep.String(), "26") {
		t.Errorf("fig3 report missing Φ = 26:\n%s", rep)
	}
}

func TestFacadeFigureGraphs(t *testing.T) {
	g1, _ := fp.Figure1()
	g2, _ := fp.Figure2()
	g3, srcs := fp.Figure3()
	if g1.N() != 7 || g2.N() != 11 || g3.N() != 10 || len(srcs) != 2 {
		t.Error("figure graphs wrong shape")
	}
	motif, _ := fp.BottleneckChain(5, 9, 4, 1)
	if !motif.IsDAG() {
		t.Error("motif cyclic")
	}
	pl, _ := fp.PowerLawDAG(100, 2, 1)
	if !pl.IsDAG() {
		t.Error("power-law graph cyclic")
	}
	lay, _ := fp.Layered(5, 10, 1, 4, 1)
	if !lay.IsDAG() {
		t.Error("layered graph cyclic")
	}
	tw, _ := fp.TwitterLike(0.01, 1)
	if !tw.IsDAG() {
		t.Error("twitter graph cyclic")
	}
	ci, _ := fp.CitationLike(1)
	if !ci.IsDAG() {
		t.Error("citation graph cyclic")
	}
}

func TestFacadeExtensions(t *testing.T) {
	// Exercise every extension re-export end to end.
	g, src := fp.QuoteLike(9)
	model, err := fp.NewModel(g, []int{src})
	if err != nil {
		t.Fatal(err)
	}
	ev := fp.NewFloat(model)

	// Lossy filters.
	pe, ok := ev.(fp.PartialEvaluator)
	if !ok {
		t.Fatal("float engine does not satisfy PartialEvaluator")
	}
	leaky := fp.GreedyAllPartial(pe, 4, 0.25)
	if len(leaky) != 4 {
		t.Errorf("GreedyAllPartial placed %d filters", len(leaky))
	}

	// The retired greedy-l-fast name resolves to greedy-l.
	if a, b := place(t, ev, 5, fp.StrategyGreedyL), place(t, ev, 5, "greedy-l-fast"); fmt.Sprint(a) != fmt.Sprint(b) {
		t.Errorf("greedy-l names disagree: %v vs %v", a, b)
	}

	// Multi-item.
	me, err := fp.NewMulti(g, []fp.Item{{Name: "x", Source: src, Rate: 2}})
	if err != nil {
		t.Fatal(err)
	}
	if me.Phi(nil) != 2*ev.Phi(nil) {
		t.Error("rate-2 multi engine mismatch")
	}

	// Monte-Carlo on a weighted model.
	wm := model.WithWeights(func(u, v int) float64 { return 0.5 })
	res, err := fp.MonteCarlo(wm, nil, 50, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Mean <= 0 || res.CI95() < 0 {
		t.Errorf("MC result %+v", res)
	}

	// Dominators.
	idom := fp.Dominators(g, src)
	if !fp.Dominates(idom, src, 5) {
		t.Error("source must dominate every reachable node")
	}
	counts := fp.DominatedCount(idom)
	if counts[src] != g.N() {
		t.Errorf("source dominates %d, want %d", counts[src], g.N())
	}

	// Centrality.
	cb := fp.Betweenness(g)
	if len(cb) != g.N() {
		t.Error("betweenness size mismatch")
	}

	// DOT + weighted edge list I/O.
	var dot bytes.Buffer
	if err := fp.WriteDOT(&dot, g, "quote", fp.MaskOf(g.N(), leaky)); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(dot.String(), "digraph") {
		t.Error("DOT output wrong")
	}
	wg, weight, err := fp.ReadWeightedEdgeList(strings.NewReader("0 1 0.25\n1 2 0.75\n"))
	if err != nil {
		t.Fatal(err)
	}
	if wg.N() != 3 || weight(0, 1) != 0.25 {
		t.Error("weighted read wrong")
	}

	// Simulator budget error surfaces through the facade.
	cyc := fp.MustFromEdges(2, [][2]int{{0, 1}, {1, 0}})
	sim, err := fp.NewSimulator(cyc, []int{0})
	if err != nil {
		t.Fatal(err)
	}
	sim.MaxEvents = 10
	if _, err := sim.Run(nil); err != fp.ErrBudget {
		t.Errorf("err = %v, want ErrBudget", err)
	}
}

func TestFacadeErrSentinels(t *testing.T) {
	cyc := fp.MustFromEdges(2, [][2]int{{0, 1}, {1, 0}})
	if _, err := cyc.TopoOrder(); err != fp.ErrCyclic {
		t.Errorf("TopoOrder err = %v, want ErrCyclic", err)
	}
	if _, err := fp.NewModel(cyc, nil); err != fp.ErrNotDAG {
		t.Errorf("NewModel err = %v, want ErrNotDAG", err)
	}
	diamond := fp.MustFromEdges(5, [][2]int{{4, 0}, {0, 1}, {0, 2}, {1, 3}, {2, 3}})
	if _, _, err := fp.TreeDP(diamond, 4, 1); err == nil {
		t.Error("TreeDP accepted a non-tree")
	}
	if _, _, _, err := fp.AcyclicBestRoot(cyc); err != nil {
		t.Errorf("AcyclicBestRoot: %v", err)
	}
}

// TestPaperQuoteWorkflow mimics the paper's full Quote-dataset procedure:
// the raw link network has cycles ("sites may freely link to each other"),
// so Acyclic is run from every node and the largest resulting DAG is kept;
// filters are then placed on that DAG.
func TestPaperQuoteWorkflow(t *testing.T) {
	// Start from the DAG stand-in and inject back-links to re-create the
	// raw cyclic network.
	clean, _ := fp.QuoteLike(6)
	b := fp.NewBuilder(clean.N())
	for _, e := range clean.Edges() {
		b.AddEdge(e[0], e[1])
	}
	// Back-links: a few sinks linking back to hubs, forming cycles.
	sinks := clean.Sinks()
	for i := 0; i < 12; i++ {
		b.AddEdge(sinks[i*7%len(sinks)], 2+i%4) // hubs are nodes 2..5
	}
	raw := b.MustBuild()
	if raw.IsDAG() {
		t.Fatal("back-links failed to create cycles")
	}

	dag, root, st, err := fp.AcyclicBestRoot(raw)
	if err != nil {
		t.Fatal(err)
	}
	if !dag.IsDAG() {
		t.Fatal("BestRoot output cyclic")
	}
	if st.Visited < clean.N() {
		t.Errorf("best root visits %d nodes, want ≥ %d", st.Visited, clean.N())
	}
	// The original source reaches everything, so it (or an equivalent
	// node) wins the sweep; the placement pipeline then works unchanged.
	model, err := fp.NewModel(dag, []int{root})
	if err != nil {
		t.Fatal(err)
	}
	ev := fp.NewFloat(model)
	filters := place(t, ev, 10, fp.StrategyGreedyAll)
	fr := fp.FR(ev, fp.MaskOf(dag.N(), filters))
	if fr < 0.99 {
		t.Errorf("FR after 10 filters on repaired quote graph = %v, want ≈ 1", fr)
	}
}

func TestFacadeExhaustiveMatchesPaperFigure3(t *testing.T) {
	g, srcs := fp.Figure3()
	model, err := fp.NewModel(g, srcs)
	if err != nil {
		t.Fatal(err)
	}
	ev := fp.NewBig(model)
	set, f := fp.Exhaustive(ev, 2)
	if f != 12 {
		t.Errorf("optimal F = %v, want 12", f)
	}
	if len(set) != 2 {
		t.Errorf("optimal set = %v", set)
	}
	if fr := fp.FR(ev, fp.AllFilters(model)); fr != 1 {
		t.Errorf("FR(V) = %v", fr)
	}
}

// TestPlaceFacade exercises the unified Place entry point through the
// facade: parallel and serial runs agree with the serial default.
func TestPlaceFacade(t *testing.T) {
	g, src := fp.Layered(6, 40, 1, 4, 1)
	model, err := fp.NewModel(g, []int{src})
	if err != nil {
		t.Fatal(err)
	}
	ev := fp.NewFloat(model)
	want := place(t, ev, 6, fp.StrategyGreedyAll)
	for _, procs := range []int{0, 1, 4} {
		res, err := fp.Place(context.Background(), ev, 6, fp.PlaceOptions{Parallelism: procs})
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(res.Filters) != fmt.Sprint(want) {
			t.Errorf("procs %d: Place %v, serial greedy-all %v", procs, res.Filters, want)
		}
	}
	celf, err := fp.Place(context.Background(), ev, 6, fp.PlaceOptions{Strategy: fp.StrategyCELF, Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(celf.Filters) != fmt.Sprint(want) {
		t.Errorf("CELF strategy diverged: %v vs %v", celf.Filters, want)
	}
	if celf.Stats.GainEvaluations == 0 {
		t.Error("CELF reported no oracle work")
	}
	if len(fp.PlaceStrategies()) < 11 {
		t.Errorf("PlaceStrategies lists %d strategies", len(fp.PlaceStrategies()))
	}
}

// TestPlaceBatchFacade checks the gang entry point: per-graph results
// match solo fp.Place calls exactly, and the scheduler knobs round-trip.
func TestPlaceBatchFacade(t *testing.T) {
	evs := make([]fp.Evaluator, 6)
	want := make([][]int, len(evs))
	for i := range evs {
		g, src := fp.Layered(4, 20, 1, 4, int64(i+1))
		model, err := fp.NewModel(g, []int{src})
		if err != nil {
			t.Fatal(err)
		}
		evs[i] = fp.NewFloat(model)
		solo, err := fp.Place(context.Background(), evs[i], 4, fp.PlaceOptions{Parallelism: 2})
		if err != nil {
			t.Fatal(err)
		}
		want[i] = solo.Filters
	}
	res, err := fp.PlaceBatch(context.Background(), evs, 4, fp.PlaceOptions{Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i := range res {
		if fmt.Sprint(res[i].Filters) != fmt.Sprint(want[i]) {
			t.Errorf("graph %d: batch %v, solo %v", i, res[i].Filters, want[i])
		}
	}
	old := fp.SchedulerWorkers()
	fp.SetSchedulerWorkers(old + 1)
	if got := fp.SchedulerWorkers(); got != old+1 {
		t.Errorf("SchedulerWorkers = %d, want %d", got, old+1)
	}
	fp.SetSchedulerWorkers(0) // reset to GOMAXPROCS
}
