package flow_test

import (
	"math/rand"
	"testing"

	"repro/internal/flow"
	"repro/internal/gen"
	"repro/internal/graph"
)

// BenchmarkNewModel builds a model and its plan from a digraph: the two
// graphs of perfbench's place-miss workload, TwitterLike(0.25) (about 23K
// nodes) and ChainDAG(50000, 8), plus TwitterLike(1) (about 90K nodes).
// Each is relabeled by a random permutation, as perfbench relabels
// uploads at --seed 1, so node ids are not already in level order. Run
// with -benchmem.
func BenchmarkNewModel(b *testing.B) {
	twitter23k, src23k := gen.TwitterLike(0.25, 1)
	chain, chainSrc := gen.ChainDAG(50_000, 8, 1)
	twitter90k, src90k := gen.TwitterLike(1, 1)
	for i, c := range []struct {
		name string
		g    *graph.Digraph
		src  int
	}{{"twitter-23k", twitter23k, src23k}, {"chain-50k", chain, chainSrc}, {"twitter-90k", twitter90k, src90k}} {
		perm := rand.New(rand.NewSource(int64(1001 + i))).Perm(c.g.N())
		rb := graph.NewBuilder(c.g.N())
		for u := 0; u < c.g.N(); u++ {
			for _, v := range c.g.Out(u) {
				rb.AddEdge(perm[u], perm[v])
			}
		}
		g, src := rb.MustBuild(), perm[c.src]
		b.Run(c.name, func(b *testing.B) {
			for b.Loop() {
				m, err := flow.NewModel(g, []int{src})
				if err != nil {
					b.Fatal(err)
				}
				m.Plan()
			}
		})
	}
}
