package experiments

import (
	"context"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/flow"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/stats"
)

func init() {
	registry["fig1"] = Fig1
	registry["fig2"] = Fig2
	registry["fig3"] = Fig3
	registry["fig4"] = Fig4
	registry["fig5a"] = Fig5a
	registry["fig5b"] = Fig5b
	registry["fig6"] = Fig6
	registry["fig7"] = Fig7
	registry["fig8"] = Fig8
	registry["fig9"] = Fig9
	registry["fig10"] = Fig10
	registry["fig11"] = Fig11
	registry["prop1"] = Prop1
	registry["abl-celf"] = AblationCELF
	registry["abl-engine"] = AblationEngines
	registry["abl-prob"] = AblationProbabilistic
}

// Fig1 reproduces the paper's Figure 1 walk-through: per-node copy counts
// in the toy news network, and the effect of the single Proposition-1
// filter z2.
func Fig1(opt Options) (*Report, error) {
	g, s := gen.Figure1()
	ev := flow.NewBig(flow.MustModel(g, []int{s}))
	rep := &Report{ID: "fig1", Title: "Information multiplicity in the toy news network", Dataset: "Figure 1 graph"}
	rep.Header = []string{"node", "copies (no filters)", "copies (filter at z2)"}
	fz2 := flow.MaskOf(g.N(), []int{gen.Fig1Z2})
	before := ev.Received(nil)
	after := ev.Received(fz2)
	for v := 0; v < g.N(); v++ {
		rep.AddRow(g.Label(v), before[v], after[v])
	}
	rep.Note("Φ(∅,V) = %.0f; Φ({z2},V) = %.0f; paper: w receives 1+2+1 = 4 copies", ev.Phi(nil), ev.Phi(fz2))
	rep.Note("Proposition-1 set = {z2}; FR({z2}) = %.2f", flow.FR(ev, fz2))
	return rep, nil
}

// Fig2 reproduces Figure 2: Greedy_1 prefers the high-fan-out node B whose
// filtering changes nothing, while the optimum filters A.
func Fig2(opt Options) (*Report, error) {
	g, s := gen.Figure2()
	ev := flow.NewBig(flow.MustModel(g, []int{s}))
	rep := &Report{ID: "fig2", Title: "Greedy_1 failure example (k = 1)", Dataset: "Figure 2 graph"}
	rep.Header = []string{"algorithm", "filter", "Φ after"}
	for _, algo := range []struct {
		name  string
		nodes []int
	}{
		{"G_1", place(ev, core.StrategyGreedy1, 1, 1, nil)},
		{"G_Max", place(ev, core.StrategyGreedyMax, 1, 1, nil)},
		{"G_ALL", place(ev, core.StrategyGreedyAll, 1, 1, nil)},
	} {
		label := "-"
		if len(algo.nodes) > 0 {
			label = g.Label(algo.nodes[0])
		}
		rep.AddRow(algo.name, label, ev.Phi(flow.MaskOf(g.N(), algo.nodes)))
	}
	opt2, optF := core.Exhaustive(ev, 1)
	rep.AddRow("OPT", g.Label(opt2[0]), ev.Phi(nil)-optF)
	rep.Note("Φ(∅,V) = %.0f; paper: 14 with B, 12 with A", ev.Phi(nil))
	return rep, nil
}

// Fig3 reproduces Figure 3: Greedy_All picks {A, C} (Φ = 15) while the
// optimum is {B, C} (Φ = 14).
func Fig3(opt Options) (*Report, error) {
	g, srcs := gen.Figure3()
	ev := flow.NewBig(flow.MustModel(g, srcs))
	rep := &Report{ID: "fig3", Title: "Greedy_All suboptimality example (k = 2)", Dataset: "Figure 3 graph"}
	rep.Header = []string{"node", "I(v)", "I(v | {A})"}
	imp0 := ev.Impacts(nil)
	impA := ev.Impacts(flow.MaskOf(g.N(), []int{gen.Fig3A}))
	for _, v := range []int{gen.Fig3A, gen.Fig3B, gen.Fig3C} {
		rep.AddRow(g.Label(v), imp0[v], impA[v])
	}
	greedy := place(ev, core.StrategyGreedyAll, 2, 1, nil)
	optSet, optF := core.Exhaustive(ev, 2)
	rep.Note("Φ(∅,V) = %.0f (paper: 26)", ev.Phi(nil))
	rep.Note("Greedy_All picks %s: Φ = %.0f (paper: {A,C} → 15)", labelSet(g, greedy), ev.Phi(flow.MaskOf(g.N(), greedy)))
	rep.Note("Optimal set %s: Φ = %.0f (paper: {B,C} → 14)", labelSet(g, optSet), ev.Phi(nil)-optF)
	return rep, nil
}

// Fig4 reproduces Figure 4: in-degree CDFs of the two layered synthetic
// graphs, (x, y) = (1, 4) and (3, 4).
func Fig4(opt Options) (*Report, error) {
	perLevel := 100
	if opt.Quick {
		perLevel = 30
	}
	rep := &Report{ID: "fig4", Title: "CDF of in-degrees for synthetic graphs"}
	rep.Header = []string{"quantile", "indegree (x=1/4)", "indegree (x=3/4)"}
	var cdfs []*stats.CDF
	for _, x := range []float64{1, 3} {
		g, _ := gen.Layered(10, perLevel, x, 4, opt.Seed)
		cdfs = append(cdfs, stats.NewCDF(g.InDegrees()))
		rep.Note("x=%g/4: %d nodes, %d edges (paper: %s)", x, g.N(), g.M(),
			map[float64]string{1: "1026 nodes, 32427 edges", 3: "1069 nodes, 101226 edges"}[x])
	}
	for _, q := range []float64{0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 1.0} {
		rep.AddRow(fmt.Sprintf("P≤%.2f", q), cdfs[0].Quantile(q), cdfs[1].Quantile(q))
	}
	// The paper omits the out-degree CDFs as "quite similar"; report the
	// medians so the similarity is checkable.
	gOut, _ := gen.Layered(10, perLevel, 1, 4, opt.Seed)
	outCDF := stats.NewCDF(gOut.OutDegrees())
	rep.Note("x=1/4 out-degree median %d vs in-degree median %d (paper: out-degree CDFs \"quite similar\")",
		outCDF.Quantile(0.5), cdfs[0].Quantile(0.5))
	return rep, nil
}

func layeredFR(id, title string, x float64, opt Options) (*Report, error) {
	perLevel, maxK, step := 100, 50, 2
	if opt.Quick {
		perLevel, maxK, step = 30, 12, 3
	}
	g, src := gen.Layered(10, perLevel, x, 4, opt.Seed)
	ev := flow.NewFloat(flow.MustModel(g, []int{src}))
	res := FRCurves(ev, fmt.Sprintf("layered x=%g/4", x), Ks(maxK, step), StandardAlgorithms(opt.Parallelism), opt.Reps, opt.Seed)
	return reportFromFR(id, title, res), nil
}

// Fig5a reproduces Figure 5(a): FR vs number of filters on the sparse
// layered synthetic graph (x = 1/4).
func Fig5a(opt Options) (*Report, error) {
	return layeredFR("fig5a", "FR for synthetic graph, x=1/4", 1, opt)
}

// Fig5b reproduces Figure 5(b): the same on the dense layered graph
// (x = 3/4).
func Fig5b(opt Options) (*Report, error) {
	return layeredFR("fig5b", "FR for synthetic graph, x=3/4", 3, opt)
}

// Fig6 reproduces Figure 6: in-degree CDF of G_Phrase (the Quote "lipstick
// on a pig" subgraph, simulated by gen.QuoteLike).
func Fig6(opt Options) (*Report, error) {
	g, _ := gen.QuoteLike(opt.Seed)
	cdf := stats.NewCDF(g.InDegrees())
	rep := &Report{
		ID: "fig6", Title: "CDF of node indegree for G_Phrase",
		Dataset: fmt.Sprintf("QuoteLike: %d nodes, %d edges (paper: 932 nodes, 2703 edges)", g.N(), g.M()),
	}
	rep.Header = []string{"indegree x", "P(indegree ≤ x)"}
	for _, x := range []int{0, 1, 2, 3, 5, 10, 20, 50, cdf.Max()} {
		rep.AddRow(x, cdf.P(x))
	}
	sinks := len(g.Sinks())
	rep.Note("sinks: %d (%.0f%%; paper: ≈70%%)", sinks, 100*float64(sinks)/float64(g.N()))
	rep.Note("indegree-1 nodes: %.0f%% (paper: ≈50%%)", 100*float64(g.InDegreeStats().One)/float64(g.N()))
	return rep, nil
}

// Fig7 reproduces Figure 7: FR vs number of filters on G_Phrase; the
// paper's headline is that four filters achieve perfect filtering.
func Fig7(opt Options) (*Report, error) {
	g, src := gen.QuoteLike(opt.Seed)
	ev := flow.NewFloat(flow.MustModel(g, []int{src}))
	res := FRCurves(ev, "QuoteLike (G_Phrase)", Ks(10, 1), StandardAlgorithms(opt.Parallelism), opt.Reps, opt.Seed)
	rep := reportFromFR("fig7", "FR for G_Phrase on the Quote dataset", res)
	if p, ok := res.At("G_ALL", 4); ok {
		rep.Note("G_ALL at k=4: FR = %.4f (paper: perfect filtering with four filters)", p.FR)
	}
	return rep, nil
}

// Fig8 reproduces Figure 8: FR vs number of filters on the Twitter graph;
// Greedy_All removes all redundancy with six filters, every deterministic
// heuristic with at most ten.
func Fig8(opt Options) (*Report, error) {
	scale := 1.0
	if opt.Quick {
		scale = 0.02
	}
	g, root := gen.TwitterLike(scale, opt.Seed)
	ev := flow.NewFloat(flow.MustModel(g, []int{root}))
	res := FRCurves(ev, "TwitterLike", Ks(10, 1), StandardAlgorithms(opt.Parallelism), opt.Reps, opt.Seed)
	rep := reportFromFR("fig8", "FR for the Twitter graph", res)
	if p, ok := res.At("G_ALL", 6); ok {
		rep.Note("G_ALL at k=6: FR = %.4f (paper: all redundancy removed with six filters)", p.FR)
	}
	return rep, nil
}

// Fig9 reproduces Figure 9: FR vs number of filters on G_Citation, where
// Greedy_All clearly beats the heuristics and Greedy_Max shows a long flat
// stretch caused by the Figure-10 bottleneck chain.
func Fig9(opt Options) (*Report, error) {
	g, src := gen.CitationLike(opt.Seed)
	ev := flow.NewFloat(flow.MustModel(g, []int{src}))
	res := FRCurves(ev, "CitationLike (G_Citation)", Ks(10, 1), StandardAlgorithms(opt.Parallelism), opt.Reps, opt.Seed)
	rep := reportFromFR("fig9", "FR for G_Citation in the APS dataset", res)
	if a, ok := res.Final("G_ALL"); ok {
		if m, ok2 := res.Final("G_Max"); ok2 {
			rep.Note("k=10: G_ALL FR = %.4f vs G_Max FR = %.4f (paper: G_ALL performs best)", a.FR, m.FR)
		}
	}
	return rep, nil
}

// Fig10 isolates the Figure-10 motif: the nine-node in-degree-one chain
// whose members all look high-impact to Greedy_Max even though one filter
// deactivates the rest.
func Fig10(opt Options) (*Report, error) {
	width, depth := 40, 10
	if opt.Quick {
		width, depth = 10, 6
	}
	g, src := gen.BottleneckChain(width, 9, depth, opt.Seed)
	ev := flow.NewFloat(flow.MustModel(g, []int{src}))
	gateway, chain := gen.ChainNodes(width, 9)
	imp := ev.Impacts(nil)
	rep := &Report{
		ID: "fig10", Title: "Bottleneck-chain motif of the APS graph",
		Dataset: fmt.Sprintf("BottleneckChain(width=%d, chain=9, depth=%d): %d nodes, %d edges", width, depth, g.N(), g.M()),
	}
	rep.Header = []string{"node", "unfiltered impact", "impact after filtering gateway"}
	impG := ev.Impacts(flow.MaskOf(g.N(), []int{gateway}))
	rep.AddRow("gateway", imp[gateway], impG[gateway])
	for i, c := range chain {
		rep.AddRow(fmt.Sprintf("chain[%d]", i), imp[c], impG[c])
	}
	res := FRCurves(ev, "motif", Ks(10, 1), GreedyAlgorithms(opt.Parallelism), opt.Reps, opt.Seed)
	if a, _ := res.At("G_ALL", 1); true {
		if m, _ := res.At("G_Max", 10); true {
			rep.Note("G_ALL reaches FR = %.4f at k=1; G_Max after 10 picks: FR = %.4f (flat plateau: its top-10 are the chain)", a.FR, m.FR)
		}
	}
	return rep, nil
}

// Fig11 reproduces Figure 11: wall-clock running time of the four
// deterministic algorithms placing k = 10 filters on the Twitter graph.
// Absolute numbers are hardware- and implementation-specific (the paper
// timed Python on a 4GHz Opteron); the reproduction target is the ordering
// G_1 ≪ G_Max ≈ G_L ≪ G_ALL.
func Fig11(opt Options) (*Report, error) {
	scale := 1.0
	if opt.Quick {
		scale = 0.02
	}
	g, root := gen.TwitterLike(scale, opt.Seed)
	ev := flow.NewFloat(flow.MustModel(g, []int{root}))
	rep := &Report{
		ID: "fig11", Title: "Execution times for the placement of ten filters (Twitter)",
		Dataset: fmt.Sprintf("TwitterLike(scale=%g): %d nodes, %d edges", scale, g.N(), g.M()),
	}
	rep.Header = []string{"algorithm", "seconds", "FR at k=10"}
	for _, algo := range GreedyAlgorithms(opt.Parallelism) {
		start := time.Now()
		nodes := algo.Place(ev, 10, nil)
		secs := time.Since(start).Seconds()
		rep.AddRow(algo.Name, fmt.Sprintf("%.4f", secs), flow.FR(ev, flow.MaskOf(g.N(), nodes)))
	}
	rep.Note("paper (Python, k=10, 90K-node Twitter): G_1 <1 min, G_Max ≈ G_L ≈ 60 min, G_ALL 83 min")
	return rep, nil
}

// Prop1 exercises Proposition 1 on the three real-like datasets: the
// minimal unbounded filter set is found in O(|E|) and achieves FR = 1.
func Prop1(opt Options) (*Report, error) {
	scale := 1.0
	if opt.Quick {
		scale = 0.02
	}
	rep := &Report{ID: "prop1", Title: "Proposition 1: minimal unbounded-budget optimal filter sets"}
	rep.Header = []string{"dataset", "nodes", "edges", "|A|", "FR(A)", "seconds"}
	for _, d := range []struct {
		name string
		g    *graph.Digraph
		src  int
	}{
		{name: "QuoteLike"}, {name: "TwitterLike"}, {name: "CitationLike"},
	} {
		switch d.name {
		case "QuoteLike":
			d.g, d.src = gen.QuoteLike(opt.Seed)
		case "TwitterLike":
			d.g, d.src = gen.TwitterLike(scale, opt.Seed)
		case "CitationLike":
			d.g, d.src = gen.CitationLike(opt.Seed)
		}
		start := time.Now()
		a := core.UnboundedOptimal(d.g)
		secs := time.Since(start).Seconds()
		ev := flow.NewFloat(flow.MustModel(d.g, []int{d.src}))
		rep.AddRow(d.name, d.g.N(), d.g.M(), len(a), flow.FR(ev, flow.MaskOf(d.g.N(), a)), fmt.Sprintf("%.5f", secs))
	}
	return rep, nil
}

// AblationCELF compares the two Greedy_All cost profiles: closed-form batch
// gains (this reproduction's exact path, which celf and ml-celf also run,
// on the lossless quotient when that pays) and the paper's
// recompute-everything profile.
func AblationCELF(opt Options) (*Report, error) {
	g, src := gen.QuoteLike(opt.Seed)
	ev := flow.NewFloat(flow.MustModel(g, []int{src}))
	k := 10
	rep := &Report{
		ID: "abl-celf", Title: "Greedy_All implementations: gain evaluations and time (k = 10)",
		Dataset: fmt.Sprintf("QuoteLike: %d nodes, %d edges", g.N(), g.M()),
	}
	rep.Header = []string{"variant", "gain evals", "seconds", "same filter set"}

	ctx := context.Background()
	start := time.Now()
	ref, _ := core.Place(ctx, ev, k, core.Options{Strategy: core.StrategyGreedyAll, Parallelism: opt.Parallelism})
	closedSecs := time.Since(start).Seconds()
	rep.AddRow("closed-form (ours)", ref.Stats.GainEvaluations, fmt.Sprintf("%.4f", closedSecs), true)

	start = time.Now()
	naive, _ := core.Place(ctx, ev, k, core.Options{Strategy: core.StrategyNaive, Parallelism: opt.Parallelism})
	rep.AddRow("naive (paper's profile)", naive.Stats.GainEvaluations, fmt.Sprintf("%.4f", time.Since(start).Seconds()), equalInts(ref.Filters, naive.Filters))
	return rep, nil
}

// AblationEngines compares the exact big-integer engine against the
// float64 engine on the layered synthetic graph, where path counts overflow
// int64 but stay far below float64's range.
func AblationEngines(opt Options) (*Report, error) {
	perLevel := 100
	if opt.Quick {
		perLevel = 30
	}
	g, src := gen.Layered(10, perLevel, 1, 4, opt.Seed)
	m := flow.MustModel(g, []int{src})
	rep := &Report{
		ID: "abl-engine", Title: "Arithmetic engines: exact big.Int vs float64",
		Dataset: fmt.Sprintf("layered x=1/4: %d nodes, %d edges", g.N(), g.M()),
	}
	rep.Header = []string{"engine", "build+3 greedy rounds (s)", "Φ(∅,V)", "G_ALL(3) set"}
	for _, e := range []struct {
		name string
		mk   func() flow.Evaluator
	}{
		{"float64", func() flow.Evaluator { return flow.NewFloat(m) }},
		{"big.Int", func() flow.Evaluator { return flow.NewBig(m) }},
	} {
		start := time.Now()
		ev := e.mk()
		set := place(ev, core.StrategyGreedyAll, 3, 1, nil)
		secs := time.Since(start).Seconds()
		rep.AddRow(e.name, fmt.Sprintf("%.4f", secs), fmt.Sprintf("%.6g", ev.Phi(nil)), fmt.Sprintf("%v", set))
	}
	rep.Note("both engines must select identical filter sets; float64 is the experiment default")
	return rep, nil
}

// AblationProbabilistic runs the probabilistic-propagation extension the
// paper sketches in §3: relay probabilities shrink expected copy counts but
// leave the FR machinery unchanged.
func AblationProbabilistic(opt Options) (*Report, error) {
	g, src := gen.QuoteLike(opt.Seed)
	rep := &Report{
		ID: "abl-prob", Title: "Probabilistic propagation: FR of G_ALL under relay probability p",
		Dataset: fmt.Sprintf("QuoteLike: %d nodes, %d edges", g.N(), g.M()),
	}
	rep.Header = []string{"k", "p=1.0", "p=0.9", "p=0.7"}
	evs := make([]flow.Evaluator, 0, 3)
	for _, p := range []float64{1.0, 0.9, 0.7} {
		m := flow.MustModel(g, []int{src})
		if p < 1 {
			pp := p
			m = m.WithWeights(func(u, v int) float64 { return pp })
		}
		evs = append(evs, flow.NewFloat(m))
	}
	placements := make([][]int, len(evs))
	for i, ev := range evs {
		placements[i] = place(ev, core.StrategyGreedyAll, 10, 1, nil)
	}
	for k := 0; k <= 10; k++ {
		row := []any{k}
		for i, ev := range evs {
			pl := placements[i]
			if k < len(pl) {
				pl = pl[:k]
			}
			row = append(row, flow.FR(ev, flow.MaskOf(g.N(), pl)))
		}
		rep.AddRow(row...)
	}
	rep.Note("expected-copy semantics: a filter emits min(1, E[copies]); lower p shifts redundancy (and filter value) toward the hubs")
	return rep, nil
}

func labelSet(g *graph.Digraph, nodes []int) string {
	s := "{"
	for i, v := range nodes {
		if i > 0 {
			s += ","
		}
		s += g.Label(v)
	}
	return s + "}"
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
