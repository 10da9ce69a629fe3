package flow_test

import (
	"math/rand"
	"testing"

	"repro/internal/flow"
	"repro/internal/gen"
	"repro/internal/graph"
)

// TestCoarsenSizePredicts: CoarsenSize's counts, read off the plan's row
// offsets alone, are the quotient Coarsen builds, on every graph family
// the exact path meets — chain folding, sink absorption, both or neither
// — and on plan-built twins, whose plan order differs from node ids.
func TestCoarsenSizePredicts(t *testing.T) {
	type family struct {
		name string
		g    *graph.Digraph
		src  int
	}
	var fams []family
	add := func(name string) func(*graph.Digraph, int) {
		return func(g *graph.Digraph, src int) { fams = append(fams, family{name, g, src}) }
	}
	add("twitter")(gen.TwitterLike(0.05, 1))
	add("chain")(gen.ChainDAG(3000, 8, 1))
	add("quote")(gen.QuoteLike(1))
	add("citation")(gen.CitationLike(1))
	add("bottleneck")(gen.BottleneckChain(6, 5, 4, 1))
	add("c-tree")(gen.RandomCTree(500, 0.05, 1))
	add("layered")(gen.Layered(6, 20, 1, 4, 1))
	for seed := int64(1); seed <= 3; seed++ {
		add("random")(gen.RandomDAG(600, 0.005, seed))
		add("powerlaw")(gen.PowerLawDAG(2000, 3, seed))
		add("deep")(gen.DeepDAG(2000, 40, seed))
	}
	for _, f := range fams {
		m, err := flow.NewModel(f.g, []int{f.src})
		if err != nil {
			t.Fatal(err)
		}
		pm, err := flow.NewModelFromPlan(relabeledPlan(t, f.g, f.src))
		if err != nil {
			t.Fatal(err)
		}
		for _, mm := range []*flow.Model{m, pm} {
			_, _, st, err := flow.Coarsen(mm, flow.CoarsenOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if qn, qe := flow.CoarsenSize(mm); qn != st.NodesAfter || qe != st.EdgesAfter {
				t.Errorf("%s: CoarsenSize predicted %d nodes, %d edges; Coarsen built %+v", f.name, qn, qe, st)
			}
		}
	}

	// A source list that leaves an in-degree-0 node a non-source: as a
	// sink it is absorbed with no in-edges.
	b := graph.NewBuilder(5)
	b.AddEdge(0, 1)
	b.AddEdge(0, 2)
	b.AddEdge(1, 3)
	b.AddEdge(2, 3)
	m, err := flow.NewModel(b.MustBuild(), []int{0})
	if err != nil {
		t.Fatal(err)
	}
	_, _, st, err := flow.Coarsen(m, flow.CoarsenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if qn, qe := flow.CoarsenSize(m); qn != st.NodesAfter || qe != st.EdgesAfter || st.SinksAbsorbed != 2 {
		t.Errorf("lone sink: CoarsenSize predicted %d nodes, %d edges; Coarsen built %+v", qn, qe, st)
	}
}

// relabeledPlan returns the plan of g with its nodes renamed by a fixed
// random permutation, and the renamed source, ready for NewModelFromPlan.
func relabeledPlan(t *testing.T, g *graph.Digraph, src int) (*flow.Plan, []int) {
	t.Helper()
	perm := rand.New(rand.NewSource(5)).Perm(g.N())
	b := graph.NewBuilder(g.N())
	for u := 0; u < g.N(); u++ {
		for _, v := range g.Out(u) {
			b.AddEdge(perm[u], perm[v])
		}
	}
	m, err := flow.NewModel(b.MustBuild(), []int{perm[src]})
	if err != nil {
		t.Fatal(err)
	}
	return m.Plan(), m.Sources()
}
