package fp_test

import (
	"context"
	"fmt"

	fp "repro"
)

// The package-level example walks the paper's Figure 1: one filter at z2
// removes all removable redundancy.
func Example() {
	g, source := fp.Figure1()
	model, _ := fp.NewModel(g, []int{source})
	ev := fp.NewFloat(model)

	res, _ := fp.Place(context.Background(), ev, 1, fp.PlaceOptions{})
	filters := res.Filters
	mask := fp.MaskOf(g.N(), filters)
	fmt.Printf("filter at %s, Φ %0.f → %.0f, FR %.2f\n",
		g.Label(filters[0]), ev.Phi(nil), ev.Phi(mask), fp.FR(ev, mask))
	// Output: filter at z2, Φ 10 → 9, FR 1.00
}

// ExamplePlace reproduces the paper's Figure 3: greedy-all picks {A, C}
// while the optimum is {B, C}.
func ExamplePlace() {
	g, sources := fp.Figure3()
	model, _ := fp.NewModel(g, sources)
	ev := fp.NewBig(model)

	res, _ := fp.Place(context.Background(), ev, 2, fp.PlaceOptions{Strategy: fp.StrategyGreedyAll})
	greedy := res.Filters
	optimum, optF := fp.Exhaustive(ev, 2)
	fmt.Printf("greedy {%s,%s} F=%.0f; optimum {%s,%s} F=%.0f\n",
		g.Label(greedy[0]), g.Label(greedy[1]), ev.F(fp.MaskOf(g.N(), greedy)),
		g.Label(optimum[0]), g.Label(optimum[1]), optF)
	// Output: greedy {A,C} F=11; optimum {B,C} F=12
}

// ExampleUnboundedOptimal shows Proposition 1: with no budget cap, the
// minimal perfect filter set is every non-sink node with in-degree > 1.
func ExampleUnboundedOptimal() {
	g, _ := fp.Figure1()
	for _, v := range fp.UnboundedOptimal(g) {
		fmt.Println(g.Label(v))
	}
	// Output: z2
}

// ExampleTreeDP solves filter placement exactly on a communication tree.
func ExampleTreeDP() {
	// s → v0, v1, v2 plus the path v0 → v1 → v2.
	b := fp.NewBuilder(4)
	s := 3
	b.AddEdge(s, 0)
	b.AddEdge(s, 1)
	b.AddEdge(s, 2)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	g := b.MustBuild()

	filters, f, _ := fp.TreeDP(g, s, 1)
	fmt.Printf("optimal filter %v saves %.0f deliveries\n", filters, f)
	// Output: optimal filter [1] saves 1 deliveries
}

// ExampleAcyclic repairs a cyclic communication graph before placement.
func ExampleAcyclic() {
	b := fp.NewBuilder(3)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(2, 1) // cycle
	g := b.MustBuild()

	dag, stats, _ := fp.Acyclic(g, 0)
	fmt.Printf("kept %d edges, rejected %d, acyclic: %v\n",
		dag.M(), stats.Rejected, dag.IsDAG())
	// Output: kept 2 edges, rejected 1, acyclic: true
}

// ExampleBetweennessTopK shows the paper's §2 point: the most central
// nodes of Figure 1 (x and y) are useless as filters.
func ExampleBetweennessTopK() {
	g, source := fp.Figure1()
	model, _ := fp.NewModel(g, []int{source})
	ev := fp.NewFloat(model)

	central := fp.BetweennessTopK(g, 2)
	fmt.Printf("central: %s, %s — FR %.2f\n",
		g.Label(central[0]), g.Label(central[1]),
		fp.FR(ev, fp.MaskOf(g.N(), central)))
	// Output: central: x, y — FR 0.00
}

// ExampleNewMulti evaluates two independent items with a shared relay.
func ExampleNewMulti() {
	//   a → x → m, a → m, b → m, m → t1, m → t2
	g := fp.MustFromEdges(6, [][2]int{{0, 5}, {5, 2}, {0, 2}, {1, 2}, {2, 3}, {2, 4}})
	me, _ := fp.NewMulti(g, []fp.Item{
		{Name: "A", Source: 0},
		{Name: "B", Source: 1},
	})
	v, gain := me.ArgmaxImpact(nil, nil)
	fmt.Printf("Φ = %.0f; best filter is node %d with gain %.0f\n", me.Phi(nil), v, gain)
	// Output: Φ = 10; best filter is node 2 with gain 2
}
