package core

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/flow"
	"repro/internal/gen"
	"repro/internal/graph"
)

func TestTreeDPMatchesExhaustive(t *testing.T) {
	f := func(seed int64) bool {
		g, src := gen.RandomCTree(12, 0.4, seed)
		m, err := flow.NewModel(g, []int{src})
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		ev := flow.NewBig(m)
		for k := 0; k <= 3; k++ {
			a, fDP, err := TreeDP(g, src, k)
			if err != nil {
				t.Logf("seed %d k=%d: TreeDP: %v", seed, k, err)
				return false
			}
			if len(a) > k {
				t.Logf("seed %d k=%d: %d filters placed", seed, k, len(a))
				return false
			}
			// The DP's claimed value must match the evaluator's view of
			// the returned set, and equal the exhaustive optimum.
			got := ev.F(flow.MaskOf(g.N(), a))
			if math.Abs(got-fDP) > 1e-9 {
				t.Logf("seed %d k=%d: DP claims F=%v, evaluator says %v (set %v)", seed, k, fDP, got, a)
				return false
			}
			_, optF := Exhaustive(ev, k)
			if math.Abs(fDP-optF) > 1e-9 {
				t.Logf("seed %d k=%d: DP F=%v, exhaustive F=%v", seed, k, fDP, optF)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestTreeDPZeroBudget(t *testing.T) {
	g, src := gen.RandomCTree(10, 0.5, 3)
	a, f, err := TreeDP(g, src, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != 0 || f != 0 {
		t.Errorf("k=0: set=%v F=%v, want empty and 0", a, f)
	}
}

func TestTreeDPPathGraph(t *testing.T) {
	// A pure path with source edges into every node: s→v0, s→v1, s→v2,
	// v0→v1→v2. Copy counts: v0 gets 1, v1 gets 1+1=2, v2 gets 1+2=3.
	// Φ(∅) = 6. One filter: best at v1 (emit 1 → v2 gets 2): Φ = 5? or at
	// v2 (no children — useless). Actually filter at v1: v1 still
	// receives 2, v2 receives 1+1 = 2 → Φ = 1+2+2 = 5, F = 1.
	b := graph.NewBuilder(4)
	s := 3
	b.AddEdge(s, 0)
	b.AddEdge(s, 1)
	b.AddEdge(s, 2)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	g := b.MustBuild()
	a, f, err := TreeDP(g, s, 1)
	if err != nil {
		t.Fatal(err)
	}
	if f != 1 {
		t.Errorf("F = %v, want 1 (set %v)", f, a)
	}
	if len(a) != 1 || a[0] != 1 {
		t.Errorf("filter set = %v, want [1]", a)
	}
	// Two filters: also filter... v2 is a sink and v0 receives 1 copy, so
	// nothing else helps; DP must not waste the budget.
	_, f2, err := TreeDP(g, s, 2)
	if err != nil {
		t.Fatal(err)
	}
	if f2 != 1 {
		t.Errorf("F(k=2) = %v, want 1", f2)
	}
}

func TestTreeDPRejectsNonTree(t *testing.T) {
	// Diamond: node 3 has two non-source parents.
	g := graph.MustFromEdges(5, [][2]int{{4, 0}, {0, 1}, {0, 2}, {1, 3}, {2, 3}})
	if _, _, err := TreeDP(g, 4, 1); !errors.Is(err, ErrNotCTree) {
		t.Errorf("err = %v, want ErrNotCTree", err)
	}
}

func TestTreeDPRejectsCycle(t *testing.T) {
	g := graph.MustFromEdges(3, [][2]int{{2, 0}, {0, 1}, {1, 0}})
	// Node 0 and 1 form a cycle below source 2... node 0 has parents {2,1}:
	// two-parent check fires or cycle check fires; either way ErrNotCTree.
	if _, _, err := TreeDP(g, 2, 1); !errors.Is(err, ErrNotCTree) {
		t.Errorf("err = %v, want ErrNotCTree", err)
	}
}

func TestTreeDPBadArgs(t *testing.T) {
	g, src := gen.RandomCTree(5, 0.5, 1)
	if _, _, err := TreeDP(g, src, -1); err == nil {
		t.Error("negative k accepted")
	}
	if _, _, err := TreeDP(g, -3, 1); err == nil {
		t.Error("negative source accepted")
	}
	if _, _, err := TreeDP(g, 0, 1); err == nil {
		// Node 0 has in-edges (it is the tree root fed by the source), so
		// it cannot be a source.
		t.Error("non-source node accepted as source")
	}
}

func TestTreeDPMatchesGreedyOnTrees(t *testing.T) {
	// Greedy is near-optimal; on trees the DP is exact, so DP ≥ greedy.
	f := func(seed int64) bool {
		g, src := gen.RandomCTree(40, 0.3, seed)
		m := flow.MustModel(g, []int{src})
		ev := flow.NewBig(m)
		k := 3
		a := placeFilters(t, ev, k, StrategyGreedyAll)
		greedyF := ev.F(flow.MaskOf(g.N(), a))
		_, dpF, err := TreeDP(g, src, k)
		if err != nil {
			return false
		}
		return dpF >= greedyF-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
