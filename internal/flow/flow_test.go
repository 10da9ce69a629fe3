package flow

import (
	"fmt"
	"math"
	"math/big"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/graph"
)

// fig1 builds the paper's Figure 1 graph: s→x, s→y, x→z1, x→z2, y→z2,
// y→z3, z1→w, z2→w, z3→w. Node ids: s=0 x=1 y=2 z1=3 z2=4 z3=5 w=6.
func fig1(t testing.TB) *graph.Digraph {
	t.Helper()
	return graph.MustFromEdges(7, [][2]int{
		{0, 1}, {0, 2},
		{1, 3}, {1, 4}, {2, 4}, {2, 5},
		{3, 6}, {4, 6}, {5, 6},
	})
}

func engines(t testing.TB, m *Model) map[string]Evaluator {
	t.Helper()
	return map[string]Evaluator{"float": NewFloat(m), "big": NewBig(m)}
}

func TestFigure1Accounting(t *testing.T) {
	g := fig1(t)
	m := MustModel(g, nil)
	for name, ev := range engines(t, m) {
		rec := ev.Received(nil)
		// Paper: z2 receives two copies; w receives 1+2+1 = 4.
		want := []float64{0, 1, 1, 1, 2, 1, 4}
		for v, w := range want {
			if rec[v] != w {
				t.Errorf("%s: rec[%d] = %v, want %v", name, v, rec[v], w)
			}
		}
		if phi := ev.Phi(nil); phi != 10 {
			t.Errorf("%s: Phi(∅) = %v, want 10", name, phi)
		}
		// Filter at z2 (node 4): z2 still receives 2 but emits 1, so w
		// receives 3. Φ = 9.
		fz2 := MaskOf(g.N(), []int{4})
		if phi := ev.Phi(fz2); phi != 9 {
			t.Errorf("%s: Phi({z2}) = %v, want 9", name, phi)
		}
		// z2 is the only node with din>1 and dout>0, so one filter
		// achieves the maximum reduction (Proposition 1) and FR = 1.
		if ev.MaxF() != 1 {
			t.Errorf("%s: MaxF = %v, want 1", name, ev.MaxF())
		}
		if fr := FR(ev, fz2); fr != 1 {
			t.Errorf("%s: FR({z2}) = %v, want 1", name, fr)
		}
	}
}

func TestSourceValidation(t *testing.T) {
	g := graph.MustFromEdges(2, [][2]int{{0, 1}})
	if _, err := NewModel(g, []int{1}); err == nil {
		t.Error("source with in-degree 1 accepted")
	}
	if _, err := NewModel(g, []int{5}); err == nil {
		t.Error("out-of-range source accepted")
	}
	if _, err := NewModel(g, nil); err != nil {
		t.Errorf("default sources rejected: %v", err)
	}
}

func TestCyclicRejected(t *testing.T) {
	g := graph.MustFromEdges(2, [][2]int{{0, 1}, {1, 0}})
	if _, err := NewModel(g, nil); err != ErrNotDAG {
		t.Errorf("err = %v, want ErrNotDAG", err)
	}
}

func TestImpactIsMarginalGain(t *testing.T) {
	// Property: Impacts(A)[v] == F(A∪{v}) − F(A) for all v, on random
	// DAGs and random filter sets, for both engines.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomSourcedDAG(rng, 16, 0.3)
		m := MustModel(g, nil)
		filters := make([]bool, g.N())
		for v := range filters {
			filters[v] = !m.IsSource(v) && rng.Float64() < 0.25
		}
		for name, ev := range engines(t, m) {
			gains := ev.Impacts(filters)
			base := ev.F(filters)
			for v := 0; v < g.N(); v++ {
				if filters[v] || m.IsSource(v) {
					if gains[v] != 0 {
						t.Logf("%s: gain of source/filter %d = %v", name, v, gains[v])
						return false
					}
					continue
				}
				with := append([]bool(nil), filters...)
				with[v] = true
				want := ev.F(with) - base
				if math.Abs(gains[v]-want) > 1e-6*(1+math.Abs(want)) {
					t.Logf("%s: gain[%d] = %v, want %v (seed %d)", name, v, gains[v], want, seed)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestMonotoneSubmodular(t *testing.T) {
	// F is monotone (adding a filter never decreases F) and submodular
	// (marginal gains shrink as the filter set grows).
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomSourcedDAG(rng, 14, 0.3)
		m := MustModel(g, nil)
		ev := NewBig(m)
		small := make([]bool, g.N())
		large := make([]bool, g.N())
		for v := range small {
			if m.IsSource(v) {
				continue
			}
			switch rng.Intn(3) {
			case 0: // in both
				small[v], large[v] = true, true
			case 1: // only in the superset
				large[v] = true
			}
		}
		gSmall := ev.Impacts(small)
		gLarge := ev.Impacts(large)
		fSmall := ev.F(small)
		fLarge := ev.F(large)
		if fLarge < fSmall-1e-9 {
			t.Logf("monotonicity: F(large)=%v < F(small)=%v (seed %d)", fLarge, fSmall, seed)
			return false
		}
		for v := 0; v < g.N(); v++ {
			if large[v] || m.IsSource(v) {
				continue
			}
			if gLarge[v] > gSmall[v]+1e-6*(1+gSmall[v]) {
				t.Logf("submodularity: gain under superset %v > %v at %d (seed %d)", gLarge[v], gSmall[v], v, seed)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestEnginesAgree(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomSourcedDAG(rng, 20, 0.25)
		m := MustModel(g, nil)
		fe, be := NewFloat(m), NewBig(m)
		filters := make([]bool, g.N())
		for v := range filters {
			filters[v] = rng.Float64() < 0.2
		}
		if math.Abs(fe.Phi(filters)-be.Phi(filters)) > 1e-6*(1+be.Phi(filters)) {
			return false
		}
		fi, bi := fe.Impacts(filters), be.Impacts(filters)
		for v := range fi {
			if math.Abs(fi[v]-bi[v]) > 1e-6*(1+math.Abs(bi[v])) {
				return false
			}
		}
		fv, fg := fe.ArgmaxImpact(filters, filters)
		bv, bg := be.ArgmaxImpact(filters, filters)
		if fv != bv || math.Abs(fg-bg) > 1e-6*(1+math.Abs(bg)) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestSimulatorMatchesEngines(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomSourcedDAG(rng, 12, 0.3)
		m := MustModel(g, nil)
		ev := NewBig(m)
		sim, err := NewSimulator(g, nil)
		if err != nil {
			return false
		}
		filters := make([]bool, g.N())
		for v := range filters {
			filters[v] = rng.Float64() < 0.3
		}
		simRec, err := sim.Run(filters)
		if err != nil {
			t.Logf("simulator: %v (seed %d)", err, seed)
			return false
		}
		anaRec := ev.Received(filters)
		for v := range simRec {
			if float64(simRec[v]) != anaRec[v] {
				t.Logf("node %d: sim %d vs engine %v (seed %d)", v, simRec[v], anaRec[v], seed)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestSimulatorDivergesOnCycle(t *testing.T) {
	g := graph.MustFromEdges(3, [][2]int{{0, 1}, {1, 2}, {2, 1}})
	sim, err := NewSimulator(g, []int{0})
	if err != nil {
		t.Fatal(err)
	}
	sim.MaxEvents = 1000
	if _, err := sim.Run(nil); err != ErrBudget {
		t.Errorf("cyclic unfiltered run: err = %v, want ErrBudget", err)
	}
	// A filter on the cycle restores finiteness: node 1 relays once.
	rec, err := sim.Run(MaskOf(3, []int{1}))
	if err != nil {
		t.Fatalf("filtered run: %v", err)
	}
	// 1 gets one copy from 0 and one from 2 (its own relay around the
	// cycle); 2 gets exactly one.
	if rec[1] != 2 || rec[2] != 1 {
		t.Errorf("rec = %v, want [0 2 1]", rec)
	}
}

func TestPathCountIdentities(t *testing.T) {
	// Paper formulas (1)–(4): with no filters and a single source s,
	// Prefix(v) = #paths(s,v) and Suffix(v) = Σ_x #paths(v,x), and the
	// plist bookkeeping agrees with both.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomSourcedDAG(rng, 15, 0.3)
		src := g.Sources()
		if len(src) != 1 {
			return true // constructor guarantees one source; skip otherwise
		}
		s := src[0]
		m := MustModel(g, nil)
		ev := NewBig(m)
		rec, _ := ev.forwardBig(nil, 1)
		counts, err := PathCountsFrom(g, s)
		if err != nil {
			return false
		}
		for v := 0; v < g.N(); v++ {
			if v == s {
				continue
			}
			if rec[v].Cmp(counts[v]) != 0 {
				t.Logf("Prefix(%d)=%v != #paths(s,%d)=%v", v, rec[v], v, counts[v])
				return false
			}
		}
		suf := ev.suffixBig(nil, 1)
		totals, err := TotalPathsFrom(g)
		if err != nil {
			return false
		}
		pl, err := NewPList(g)
		if err != nil {
			return false
		}
		for v := 0; v < g.N(); v++ {
			if suf[v].Cmp(totals[v]) != 0 {
				t.Logf("Suffix(%d)=%v != total paths %v", v, suf[v], totals[v])
				return false
			}
			if pl.SuffixOf(v).Cmp(totals[v]) != 0 {
				t.Logf("plist suffix(%d)=%v != %v", v, pl.SuffixOf(v), totals[v])
				return false
			}
		}
		// Spot-check plist against PathCountsTo on one random target.
		dst := rng.Intn(g.N())
		to, err := PathCountsTo(g, dst)
		if err != nil {
			return false
		}
		for v := 0; v < g.N(); v++ {
			if pl.Paths(v, dst).Cmp(to[v]) != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestPathCountsBigValues(t *testing.T) {
	// A ladder of d diamonds has 2^d source→sink paths; exercise exact
	// arithmetic beyond float64's integer range indirectly via strings.
	const d = 130
	b := graph.NewBuilder(0)
	prev := b.AddNode()
	for i := 0; i < d; i++ {
		l, r, join := b.AddNode(), b.AddNode(), b.AddNode()
		b.AddEdge(prev, l)
		b.AddEdge(prev, r)
		b.AddEdge(l, join)
		b.AddEdge(r, join)
		prev = join
	}
	g := b.MustBuild()
	counts, err := PathCountsFrom(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := new(big.Int).Lsh(big.NewInt(1), d)
	if counts[prev].Cmp(want) != 0 {
		t.Errorf("#paths = %v, want 2^%d", counts[prev], d)
	}
	// The big engine survives the same graph; the float engine returns
	// +finite approximations.
	m := MustModel(g, nil)
	be := NewBig(m)
	if be.PhiBig(nil).Sign() <= 0 {
		t.Error("big engine lost the count")
	}
	fe := NewFloat(m)
	if math.IsNaN(fe.Phi(nil)) || fe.Phi(nil) <= 0 {
		t.Error("float engine produced a non-positive total")
	}
}

func TestWeightedModel(t *testing.T) {
	// Probabilistic propagation on Figure 1 with relay probability 1/2 on
	// every edge: expected copies halve per hop.
	g := fig1(t)
	m := MustModel(g, nil).WithWeights(func(u, v int) float64 { return 0.5 })
	ev := NewFloat(m)
	rec := ev.Received(nil)
	// x receives 0.5; z2 receives 2·(0.5·0.5) = 0.5; w receives
	// 3 · 0.25·0.5 = hmm: z's emit rec (0.25 each for z1,z3; 0.5 for z2),
	// each relayed with probability 0.5.
	if math.Abs(rec[1]-0.5) > 1e-12 {
		t.Errorf("rec[x] = %v, want 0.5", rec[1])
	}
	if math.Abs(rec[4]-0.5) > 1e-12 {
		t.Errorf("rec[z2] = %v, want 0.5", rec[4])
	}
	want := 0.5 * (0.25 + 0.5 + 0.25)
	if math.Abs(rec[6]-want) > 1e-12 {
		t.Errorf("rec[w] = %v, want %v", rec[6], want)
	}
	// Sub-unit received mass means filters change nothing: all gains 0.
	for v, gn := range ev.Impacts(nil) {
		if gn != 0 {
			t.Errorf("gain[%d] = %v, want 0", v, gn)
		}
	}
}

func TestWeightedRejectedByBig(t *testing.T) {
	g := fig1(t)
	m := MustModel(g, nil).WithWeights(func(u, v int) float64 { return 0.5 })
	defer func() {
		if recover() == nil {
			t.Error("NewBig accepted a weighted model")
		}
	}()
	NewBig(m)
}

func TestFRBounds(t *testing.T) {
	g := fig1(t)
	ev := NewFloat(MustModel(g, nil))
	if fr := FR(ev, nil); fr != 0 {
		t.Errorf("FR(∅) = %v, want 0", fr)
	}
	if fr := FR(ev, AllFilters(ev.Model())); fr != 1 {
		t.Errorf("FR(V) = %v, want 1", fr)
	}
	// Chain graph: no redundancy at all, MaxF = 0, FR defined as 1.
	chain := graph.MustFromEdges(3, [][2]int{{0, 1}, {1, 2}})
	cev := NewFloat(MustModel(chain, nil))
	if cev.MaxF() != 0 {
		t.Errorf("chain MaxF = %v, want 0", cev.MaxF())
	}
	if fr := FR(cev, nil); fr != 1 {
		t.Errorf("chain FR = %v, want 1", fr)
	}
}

func TestArgmaxTieBreaksLow(t *testing.T) {
	// Two symmetric redundant nodes; argmax must return the smaller id.
	//   s→a, s→b, a→m1, b→m1, a→m2, b→m2, m1→t, m2→t
	g := graph.MustFromEdges(7, [][2]int{
		{0, 1}, {0, 2},
		{1, 3}, {2, 3}, {1, 4}, {2, 4},
		{3, 5}, {4, 5},
	})
	m := MustModel(g, nil)
	for name, ev := range engines(t, m) {
		v, gain := ev.ArgmaxImpact(nil, nil)
		if v != 3 {
			t.Errorf("%s: argmax = %d, want 3 (tie toward low id)", name, v)
		}
		if gain <= 0 {
			t.Errorf("%s: gain = %v, want > 0", name, gain)
		}
	}
}

func TestArgmaxAllZero(t *testing.T) {
	chain := graph.MustFromEdges(3, [][2]int{{0, 1}, {1, 2}})
	m := MustModel(chain, nil)
	for name, ev := range engines(t, m) {
		if v, _ := ev.ArgmaxImpact(nil, nil); v != -1 {
			t.Errorf("%s: argmax on redundancy-free chain = %d, want -1", name, v)
		}
	}
}

func TestMaskHelpers(t *testing.T) {
	mask := MaskOf(5, []int{1, 3})
	if !mask[1] || !mask[3] || mask[0] || mask[2] || mask[4] {
		t.Errorf("MaskOf = %v", mask)
	}
	nodes := NodesOf(mask)
	if len(nodes) != 2 || nodes[0] != 1 || nodes[1] != 3 {
		t.Errorf("NodesOf = %v", nodes)
	}
}

func TestSimulatorProbabilistic(t *testing.T) {
	// With probability 1 the probabilistic simulator must match the
	// deterministic one exactly.
	g := fig1(t)
	sim, err := NewSimulator(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	sim.Rand = rand.New(rand.NewSource(7))
	sim.Prob = func(u, v int) float64 { return 1 }
	rec, err := sim.Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	if rec[6] != 4 {
		t.Errorf("rec[w] = %d, want 4", rec[6])
	}
	// With probability 0 nothing ever arrives.
	sim.Prob = func(u, v int) float64 { return 0 }
	rec, err = sim.Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	for v, r := range rec {
		if r != 0 {
			t.Errorf("rec[%d] = %d, want 0", v, r)
		}
	}
}

// randomSourcedDAG builds a random DAG guaranteed to have node 0 as its only
// in-degree-zero node, so the default-source model has a single origin.
func randomSourcedDAG(rng *rand.Rand, n int, p float64) *graph.Digraph {
	b := graph.NewBuilder(n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if rng.Float64() < p {
				b.AddEdge(u, v)
			}
		}
	}
	// Ensure connectivity from 0: give every in-degree-0 node (other than
	// 0) an edge from some earlier node.
	g := b.MustBuild()
	for v := 1; v < n; v++ {
		if g.InDegree(v) == 0 {
			b.AddEdge(rng.Intn(v), v)
		}
	}
	return b.MustBuild()
}

// TestNewEngine: engine names map to their evaluators, and the big engine
// on a weighted model, or an unknown name, is an error instead of a panic.
func TestNewEngine(t *testing.T) {
	m := MustModel(fig1(t), nil)
	for name, want := range map[string]any{"": &FloatEngine{}, "float": &FloatEngine{}, "big": &BigEngine{}} {
		ev, err := NewEngine(name, m)
		if err != nil {
			t.Fatalf("%q: %v", name, err)
		}
		if got, want := fmt.Sprintf("%T", ev), fmt.Sprintf("%T", want); got != want {
			t.Errorf("%q built %s, want %s", name, got, want)
		}
	}
	weighted := m.WithWeights(func(u, v int) float64 { return 0.5 })
	for _, tc := range []struct {
		name string
		m    *Model
	}{{"big", weighted}, {"exact", m}} {
		if ev, err := NewEngine(tc.name, tc.m); err == nil {
			t.Errorf("%q on weighted=%v built %T", tc.name, tc.m.Weighted(), ev)
		}
	}
}
