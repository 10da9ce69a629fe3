package gen

import "testing"

func TestChainDAG(t *testing.T) {
	for _, tc := range []struct{ n, chainLen int }{
		{100, 8}, {1000, 8}, {500, 20}, {50, 1},
	} {
		g, src := ChainDAG(tc.n, tc.chainLen, 7)
		if g.N() != tc.n {
			t.Fatalf("n=%d chainLen=%d: N = %d", tc.n, tc.chainLen, g.N())
		}
		if _, err := g.TopoRank(); err != nil {
			t.Fatalf("n=%d chainLen=%d: not a DAG: %v", tc.n, tc.chainLen, err)
		}
		if g.InDegree(src) != 0 {
			t.Fatalf("source %d has in-degree %d", src, g.InDegree(src))
		}
		// Chain-heavy by construction: most nodes are single-in relays.
		single := 0
		for v := 0; v < g.N(); v++ {
			if g.InDegree(v) == 1 {
				single++
			}
		}
		if tc.n >= 500 && single < tc.n/2 {
			t.Fatalf("n=%d chainLen=%d: only %d single-in nodes", tc.n, tc.chainLen, single)
		}
	}
	// Deterministic in the seed.
	g1, _ := ChainDAG(400, 8, 3)
	g2, _ := ChainDAG(400, 8, 3)
	if g1.M() != g2.M() {
		t.Fatal("ChainDAG not deterministic")
	}
}

func TestDeepDAG(t *testing.T) {
	for _, tc := range []struct{ n, levels int }{
		{100, 10}, {1000, 50}, {64, 64},
	} {
		g, src := DeepDAG(tc.n, tc.levels, 5)
		if g.N() != tc.n+1 {
			t.Fatalf("n=%d levels=%d: N = %d", tc.n, tc.levels, g.N())
		}
		if _, err := g.TopoRank(); err != nil {
			t.Fatalf("n=%d levels=%d: not a DAG: %v", tc.n, tc.levels, err)
		}
		if g.InDegree(src) != 0 || g.OutDegree(src) == 0 {
			t.Fatalf("source %d degrees: in %d out %d", src, g.InDegree(src), g.OutDegree(src))
		}
		// Every non-source node is reachable: in-degree ≥ 1.
		for v := 0; v < tc.n; v++ {
			if g.InDegree(v) == 0 {
				t.Fatalf("n=%d levels=%d: node %d unreachable", tc.n, tc.levels, v)
			}
		}
	}
	g1, _ := DeepDAG(500, 25, 9)
	g2, _ := DeepDAG(500, 25, 9)
	if g1.M() != g2.M() {
		t.Fatal("DeepDAG not deterministic")
	}
}

func TestDiamondChain(t *testing.T) {
	g, src := DiamondChain(5)
	if g.N() != 16 || g.M() != 20 {
		t.Fatalf("N=%d M=%d, want 16 and 20", g.N(), g.M())
	}
	if src != 0 || g.InDegree(0) != 0 {
		t.Fatalf("source %d has in-degree %d", src, g.InDegree(src))
	}
	if g.InDegree(15) != 2 || g.OutDegree(15) != 0 {
		t.Fatalf("last join: in %d out %d, want 2 and 0", g.InDegree(15), g.OutDegree(15))
	}
	if _, err := g.TopoRank(); err != nil {
		t.Fatalf("not a DAG: %v", err)
	}
}
