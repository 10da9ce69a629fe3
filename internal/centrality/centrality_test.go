package centrality

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/gen"
	"repro/internal/graph"
)

func almostEqual(a, b float64) bool {
	return math.Abs(a-b) < 1e-9*(1+math.Abs(a)+math.Abs(b))
}

func TestBetweennessPath(t *testing.T) {
	// Directed path 0→1→2→3: node 1 lies on pairs (0,2), (0,3); node 2 on
	// (0,3), (1,3).
	g := graph.MustFromEdges(4, [][2]int{{0, 1}, {1, 2}, {2, 3}})
	cb := Betweenness(g)
	want := []float64{0, 2, 2, 0}
	for v := range want {
		if !almostEqual(cb[v], want[v]) {
			t.Errorf("cb[%d] = %v, want %v", v, cb[v], want[v])
		}
	}
}

func TestBetweennessStar(t *testing.T) {
	// In-star then out-star through the hub: 1,2 → 0 → 3,4. Hub 0 lies on
	// all 4 cross pairs.
	g := graph.MustFromEdges(5, [][2]int{{1, 0}, {2, 0}, {0, 3}, {0, 4}})
	cb := Betweenness(g)
	if !almostEqual(cb[0], 4) {
		t.Errorf("hub cb = %v, want 4", cb[0])
	}
	for _, v := range []int{1, 2, 3, 4} {
		if cb[v] != 0 {
			t.Errorf("leaf %d cb = %v, want 0", v, cb[v])
		}
	}
}

func TestBetweennessSplitsOverShortestPaths(t *testing.T) {
	// Diamond 0→{1,2}→3: pair (0,3) has two shortest paths, contributing
	// 1/2 to each middle node.
	g := graph.MustFromEdges(4, [][2]int{{0, 1}, {0, 2}, {1, 3}, {2, 3}})
	cb := Betweenness(g)
	if !almostEqual(cb[1], 0.5) || !almostEqual(cb[2], 0.5) {
		t.Errorf("middles = %v, %v, want 0.5 each", cb[1], cb[2])
	}
}

func TestBetweennessPaperFigure1(t *testing.T) {
	// The paper's §2 argument: in Figure 1, x and y have the highest
	// betweenness although the only useful filter is z2.
	g, _ := gen.Figure1()
	cb := Betweenness(g)
	x, y, z2 := cb[gen.Fig1X], cb[gen.Fig1Y], cb[gen.Fig1Z2]
	for v, c := range cb {
		if v == gen.Fig1X || v == gen.Fig1Y {
			continue
		}
		if c > x || c > y {
			t.Errorf("node %d centrality %v exceeds x=%v / y=%v", v, c, x, y)
		}
	}
	if z2 >= x {
		t.Errorf("z2 centrality %v should be below x's %v", z2, x)
	}
	top := TopK(g, 2)
	if !reflect.DeepEqual(top, []int{gen.Fig1X, gen.Fig1Y}) {
		t.Errorf("TopK = %v, want [x y]", top)
	}
}

// bruteBetweenness recomputes betweenness by explicit shortest-path
// enumeration (BFS from every source counting paths), as an oracle.
func bruteBetweenness(g *graph.Digraph) []float64 {
	n := g.N()
	cb := make([]float64, n)
	// dist and path counts from every node.
	dist := make([][]int, n)
	cnt := make([][]float64, n)
	for s := 0; s < n; s++ {
		dist[s] = make([]int, n)
		cnt[s] = make([]float64, n)
		for i := range dist[s] {
			dist[s][i] = -1
		}
		dist[s][s] = 0
		cnt[s][s] = 1
		q := []int{s}
		for len(q) > 0 {
			v := q[0]
			q = q[1:]
			for _, w := range g.Out(v) {
				if dist[s][w] < 0 {
					dist[s][w] = dist[s][v] + 1
					q = append(q, w)
				}
				if dist[s][w] == dist[s][v]+1 {
					cnt[s][w] += cnt[s][v]
				}
			}
		}
	}
	for u := 0; u < n; u++ {
		for w := 0; w < n; w++ {
			if u == w || dist[u][w] < 0 {
				continue
			}
			for v := 0; v < n; v++ {
				if v == u || v == w {
					continue
				}
				if dist[u][v] >= 0 && dist[v][w] >= 0 && dist[u][v]+dist[v][w] == dist[u][w] {
					cb[v] += cnt[u][v] * cnt[v][w] / cnt[u][w]
				}
			}
		}
	}
	return cb
}

func TestBetweennessMatchesBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 10 + rng.Intn(8)
		b := graph.NewBuilder(n)
		for i := 0; i < 3*n; i++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if u != v {
				b.AddEdge(u, v)
			}
		}
		g := b.MustBuild()
		fast := Betweenness(g)
		slow := bruteBetweenness(g)
		for v := range fast {
			if !almostEqual(fast[v], slow[v]) {
				t.Logf("seed %d node %d: %v vs %v", seed, v, fast[v], slow[v])
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestTopKProperties(t *testing.T) {
	g, _ := gen.QuoteLike(1)
	top := TopK(g, 5)
	if len(top) != 5 {
		t.Fatalf("TopK returned %d nodes", len(top))
	}
	cb := Betweenness(g)
	for i := 1; i < len(top); i++ {
		if cb[top[i]] > cb[top[i-1]] {
			t.Errorf("TopK not sorted: %v", top)
		}
	}
	// Never more than available positive-centrality nodes.
	if got := TopK(graph.MustFromEdges(2, [][2]int{{0, 1}}), 5); len(got) != 0 {
		t.Errorf("TopK on edge = %v, want empty (no middle nodes)", got)
	}
}
