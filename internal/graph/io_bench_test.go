package graph_test

import (
	"strings"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
)

// BenchmarkReadEdgeList parses the edge lists of the two graphs behind
// perfbench's place-miss workload, before its relabeling:
// TwitterLike(0.25) (about 23K nodes) and ChainDAG(50000, 8).
func BenchmarkReadEdgeList(b *testing.B) {
	twitter, _ := gen.TwitterLike(0.25, 1)
	chain, _ := gen.ChainDAG(50_000, 8, 1)
	for _, c := range []struct {
		name string
		g    *graph.Digraph
	}{{"twitter-23k", twitter}, {"chain-50k", chain}} {
		var sb strings.Builder
		if err := graph.WriteEdgeList(&sb, c.g); err != nil {
			b.Fatal(err)
		}
		text := sb.String()
		b.Run(c.name, func(b *testing.B) {
			b.SetBytes(int64(len(text)))
			for b.Loop() {
				if _, err := graph.ReadEdgeList(strings.NewReader(text)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
