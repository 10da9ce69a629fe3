package flow

import (
	"math"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/graph"
)

// chainHeavyGraph builds the coarsener's home turf: a small random core
// with long single-in chains hanging off it, some re-entering the core,
// some dangling, plus a few shared leaf sinks.
func chainHeavyGraph(t testing.TB, n int, seed int64) *graph.Digraph {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	core := n / 5
	if core < 4 {
		core = 4
	}
	b := graph.NewBuilder(n)
	for v := 1; v < core; v++ {
		d := 1 + rng.Intn(3)
		for j := 0; j < d; j++ {
			b.AddEdge(rng.Intn(v), v)
		}
	}
	v := core
	for v < n {
		length := 2 + rng.Intn(6)
		if v+length > n {
			length = n - v
		}
		origin := rng.Intn(core)
		at := origin
		for j := 0; j < length; j++ {
			b.AddEdge(at, v)
			at = v
			v++
		}
		// Half the chains re-enter the core at a node strictly after the
		// origin: core edges ascend by id and chains are linear, so
		// re > origin admits a topological order (no cycles).
		if rng.Intn(2) == 0 && at >= core && origin+1 < core {
			re := origin + 1 + rng.Intn(core-origin-1)
			b.AddEdge(at, re)
		}
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// twinRichGraph builds a DAG with many exact in-twins: sources feed rows
// of nodes that share identical parent sets.
func twinRichGraph(t testing.TB) *graph.Digraph {
	t.Helper()
	b := graph.NewBuilder(14)
	// 0, 1 sources; 2,3 mid; twins {4,5,6} share {2,3}; twins {7,8}
	// share {1}; 9..13 downstream fan.
	b.AddEdge(0, 2)
	b.AddEdge(1, 2)
	b.AddEdge(0, 3)
	b.AddEdge(1, 3)
	for _, v := range []int{4, 5, 6} {
		b.AddEdge(2, v)
		b.AddEdge(3, v)
	}
	for _, v := range []int{7, 8} {
		b.AddEdge(1, v)
	}
	b.AddEdge(4, 9)
	b.AddEdge(5, 9)
	b.AddEdge(6, 10)
	b.AddEdge(7, 11)
	b.AddEdge(8, 12)
	b.AddEdge(9, 13)
	b.AddEdge(10, 13)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// randomTestDAG builds a random DAG with edges low→high; every non-root
// node gets at least one in-edge with probability keepConnected.
func randomTestDAG(t testing.TB, n int, p float64, seed int64) *graph.Digraph {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	b := graph.NewBuilder(n)
	for v := 1; v < n; v++ {
		deg := 0
		for u := 0; u < v; u++ {
			if rng.Float64() < p {
				b.AddEdge(u, v)
				deg++
			}
		}
		if deg == 0 && rng.Intn(4) != 0 {
			b.AddEdge(rng.Intn(v), v)
		}
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// coarseModel is a model over g whose nodes carry the multiplicities mul
// (nil: none), with its plan laid out from g's rows — a quotient model
// built the long way, from a digraph, as reference for Coarsen's.
func coarseModel(t testing.TB, g *graph.Digraph, sources []int, mul []int64) *Model {
	t.Helper()
	in, out := rowsOf(g)
	p, err := layoutPlan(in, out, nil, mul)
	if err != nil {
		t.Fatal(err)
	}
	m, err := newModel(p, g, sources)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// checkQuotientPlan checks Coarsen's quotient plan against a reference
// derived here: every original edge mapped through cm.Quotient (parallel
// edges kept, absorbed targets and supernode-internal edges dropped), laid
// out from that digraph's rows with the quotient's multiplicities.
// The quotient plan must pass checkPlanInvariants against the reference
// digraph and equal the reference plan array for array.
func checkQuotientPlan(t testing.TB, m, qm *Model, cm *CoarsenMap) {
	t.Helper()
	g := m.Graph()
	b := graph.NewBuilder(cm.QN()).AllowParallelEdges()
	for u := 0; u < g.N(); u++ {
		for _, v := range g.Out(u) {
			if qu, qv := cm.Quotient(u), cm.Quotient(v); qv >= 0 && qu != qv {
				b.AddEdge(qu, qv)
			}
		}
	}
	ref, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	var mul []int64
	if qm.Coarse() {
		mul = make([]int64, qm.N())
		for q := range mul {
			mul[q] = qm.NodeWeight(q)
		}
	}
	rm := coarseModel(t, ref, qm.Sources(), mul)
	// The reference model's digraph paired with the quotient's plan.
	chk := *rm
	chk.plan = qm.plan
	checkPlanInvariants(t, &chk)
	plansEqual(t, "quotient plan", qm.Plan(), rm.Plan())
}

// maskFromQuotient projects a quotient filter mask to the matching
// original mask (filters at supernode heads).
func maskFromQuotient(cm *CoarsenMap, qmask []bool) []bool {
	mask := make([]bool, cm.N())
	for q, on := range qmask {
		if on {
			mask[cm.Head(q)] = true
		}
	}
	return mask
}

// checkFiberPartition verifies the CoarsenMap round-trip invariants.
func checkFiberPartition(t *testing.T, m *Model, cm *CoarsenMap) {
	t.Helper()
	n := m.N()
	seen := make([]int, n)
	for q := 0; q < cm.QN(); q++ {
		h := cm.Head(q)
		if cm.Quotient(h) != q {
			t.Fatalf("head %d of q%d maps to q%d", h, q, cm.Quotient(h))
		}
		if q > 0 && cm.Head(q-1) >= h {
			t.Fatalf("quotient ids not ascending by head: q%d head %d, q%d head %d", q-1, cm.Head(q-1), q, h)
		}
		headInFiber := false
		prev := int32(-1)
		for _, v := range cm.Fiber(q) {
			if v <= prev {
				t.Fatalf("fiber of q%d not ascending", q)
			}
			prev = v
			seen[v]++
			if int(v) == h {
				headInFiber = true
			}
			if cm.Quotient(int(v)) != q {
				t.Fatalf("fiber member %d of q%d maps to q%d", v, q, cm.Quotient(int(v)))
			}
		}
		if !headInFiber {
			t.Fatalf("head %d missing from its own fiber q%d", h, q)
		}
	}
	for _, v := range cm.Absorbed() {
		if cm.Quotient(int(v)) != -1 {
			t.Fatalf("absorbed node %d still maps to q%d", v, cm.Quotient(int(v)))
		}
		seen[v]++
	}
	for v, c := range seen {
		if c != 1 {
			t.Fatalf("node %d covered %d times by fibers+absorbed", v, c)
		}
	}
}

// checkLosslessEquiv verifies the golden lossless contract: Φ, Impacts
// and Argmax on the quotient are exactly those of the original at every
// matching filter set, on the big engine (bit-exact by construction) and
// the float engine (bit-exact while counts are integer-representable).
func checkLosslessEquiv(t *testing.T, m, qm *Model, cm *CoarsenMap, seed int64) {
	t.Helper()
	ob, qb := NewBig(m), NewBig(qm)
	of, qf := NewFloat(m), NewFloat(qm)
	defer of.ReleaseScratch()
	defer qf.ReleaseScratch()

	if ob.PhiBig(nil).Cmp(qb.PhiBig(nil)) != 0 {
		t.Fatalf("Φ(∅) mismatch: orig %v quotient %v", ob.PhiBig(nil), qb.PhiBig(nil))
	}
	if ob.MaxFBig().Cmp(qb.MaxFBig()) != 0 {
		t.Fatalf("MaxF mismatch: orig %v quotient %v", ob.MaxFBig(), qb.MaxFBig())
	}
	if of.Phi(nil) != qf.Phi(nil) {
		t.Fatalf("float Φ(∅) mismatch: orig %v quotient %v", of.Phi(nil), qf.Phi(nil))
	}
	if of.Phi(nil) >= math.Ldexp(1, 52) {
		t.Fatalf("test graph too deep for float bit-exact comparisons: Φ=%g", of.Phi(nil))
	}

	rng := rand.New(rand.NewSource(seed))
	procs := []int{1, 4, runtime.GOMAXPROCS(0)}
	for trial := 0; trial < 4; trial++ {
		qmask := make([]bool, qm.N())
		for q := 0; q < qm.N(); q++ {
			if !qm.IsSource(q) && rng.Intn(3) == 0 {
				qmask[q] = true
			}
		}
		omask := maskFromQuotient(cm, qmask)

		if ob.PhiBig(omask).Cmp(qb.PhiBig(qmask)) != 0 {
			t.Fatalf("trial %d: Φ(A) mismatch: orig %v quotient %v", trial, ob.PhiBig(omask), qb.PhiBig(qmask))
		}
		if of.Phi(omask) != qf.Phi(qmask) {
			t.Fatalf("trial %d: float Φ(A) mismatch: orig %v quotient %v", trial, of.Phi(omask), qf.Phi(qmask))
		}

		// Per-head impacts: exact big gains and bit-exact float gains.
		og := ob.impactsBig(omask, 1)
		qg := qb.impactsBig(qmask, 1)
		ogf := of.Impacts(omask)
		qgf := qf.Impacts(qmask)
		for q := 0; q < qm.N(); q++ {
			h := cm.Head(q)
			if og[h].Cmp(qg[q]) != 0 {
				t.Fatalf("trial %d: impact mismatch at head %d (q%d): orig %v quotient %v", trial, h, q, og[h], qg[q])
			}
			if ogf[h] != qgf[q] {
				t.Fatalf("trial %d: float impact mismatch at head %d (q%d): orig %v quotient %v", trial, h, q, ogf[h], qgf[q])
			}
		}

		// Argmax correspondence at every parallelism: the quotient's pick
		// is the head of the original's pick, with equal gain.
		for _, pr := range procs {
			ov, ogain := ob.ArgmaxImpactP(omask, omask, pr)
			qv, qgain := qb.ArgmaxImpactP(qmask, qmask, pr)
			switch {
			case ov < 0 && qv < 0:
			case ov < 0 || qv < 0:
				t.Fatalf("trial %d procs %d: argmax existence mismatch: orig %d quotient %d", trial, pr, ov, qv)
			case cm.Head(qv) != ov:
				t.Fatalf("trial %d procs %d: argmax mismatch: orig %d, quotient head %d", trial, pr, ov, cm.Head(qv))
			case ogain != qgain:
				t.Fatalf("trial %d procs %d: argmax gain mismatch: %v vs %v", trial, pr, ogain, qgain)
			}
		}
	}
}

func TestCoarsenLosslessGolden(t *testing.T) {
	cases := []struct {
		name string
		g    *graph.Digraph
	}{
		{"chain-heavy", chainHeavyGraph(t, 400, 1)},
		{"chain-heavy-2", chainHeavyGraph(t, 300, 7)},
		{"random-sparse", randomTestDAG(t, 120, 0.03, 2)},
		{"twin-rich", twinRichGraph(t)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m, err := NewModel(tc.g, nil)
			if err != nil {
				t.Fatal(err)
			}
			qm, cm, st, err := Coarsen(m, CoarsenOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if st.NodesAfter >= st.NodesBefore && st.Folded+st.SinksAbsorbed > 0 {
				t.Fatalf("stats inconsistent: %+v", st)
			}
			t.Logf("%s: %d → %d nodes (%d folded, %d sinks), %d → %d edges",
				tc.name, st.NodesBefore, st.NodesAfter, st.Folded, st.SinksAbsorbed, st.EdgesBefore, st.EdgesAfter)
			checkFiberPartition(t, m, cm)
			checkLosslessEquiv(t, m, qm, cm, 42)
		})
	}
}

func TestCoarsenChainHeavyShrinks(t *testing.T) {
	g := chainHeavyGraph(t, 1000, 3)
	m := MustModel(g, nil)
	_, _, st, err := Coarsen(m, CoarsenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if ratio := float64(st.NodesAfter) / float64(st.NodesBefore); ratio > 0.5 {
		t.Fatalf("chain-heavy graph only shrank to %.0f%% (%+v)", 100*ratio, st)
	}
}

func TestCoarsenDeterminism(t *testing.T) {
	g := chainHeavyGraph(t, 500, 11)
	m := MustModel(g, nil)
	qm1, cm1, st1, err := Coarsen(m, CoarsenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	qm2, cm2, st2, err := Coarsen(m, CoarsenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if st1 != st2 {
		t.Fatalf("stats differ across runs: %+v vs %+v", st1, st2)
	}
	if cm1.QN() != cm2.QN() {
		t.Fatal("quotient sizes differ")
	}
	for q := 0; q < cm1.QN(); q++ {
		if cm1.Head(q) != cm2.Head(q) {
			t.Fatalf("head of q%d differs: %d vs %d", q, cm1.Head(q), cm2.Head(q))
		}
		if qm1.NodeWeight(q) != qm2.NodeWeight(q) {
			t.Fatalf("mul of q%d differs", q)
		}
	}
	plansEqual(t, "second run", qm2.Plan(), qm1.Plan())
	checkQuotientPlan(t, m, qm1, cm1)
}

func TestCoarsenRejects(t *testing.T) {
	m := MustModel(randomTestDAG(t, 30, 0.1, 1), nil)
	wm := m.WithWeights(func(u, v int) float64 { return 0.5 })
	if _, _, _, err := Coarsen(wm, CoarsenOptions{}); err == nil {
		t.Fatal("coarsened a weighted model")
	}
	qm, _, _, err := Coarsen(m, CoarsenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if qm.Coarse() {
		if _, _, _, err := Coarsen(qm, CoarsenOptions{}); err == nil {
			t.Fatal("re-coarsened a coarse model")
		}
	}
}

// TestCoarseModelSampling pins the sampling engine's coarse support: on a
// quotient whose rows all fall below the sampling floor, estimates are
// exact and must match the float engine bit for bit.
func TestCoarseModelSampling(t *testing.T) {
	m := MustModel(chainHeavyGraph(t, 300, 9), nil)
	qm, _, _, err := Coarsen(m, CoarsenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	f := NewFloat(qm)
	defer f.ReleaseScratch()
	se := NewSampling(qm, SampleOptions{Samples: 2, EdgeRate: 1, MinEdges: 1 << 20, Seed: 1})
	defer se.ReleaseScratch()
	if got, want := se.Phi(nil), f.Phi(nil); got != want {
		t.Fatalf("exact-mode sampled Φ(∅) = %v, float engine %v", got, want)
	}
	mask := make([]bool, qm.N())
	for v := 0; v < qm.N(); v += 3 {
		if !qm.IsSource(v) {
			mask[v] = true
		}
	}
	if got, want := se.Phi(mask), f.Phi(mask); got != want {
		t.Fatalf("exact-mode sampled Φ(A) = %v, float engine %v", got, want)
	}
	gi, fi := se.Impacts(nil), f.Impacts(nil)
	for v := range fi {
		if gi[v] != fi[v] {
			t.Fatalf("exact-mode sampled impact[%d] = %v, float %v", v, gi[v], fi[v])
		}
	}
}

func FuzzCoarsen(f *testing.F) {
	f.Add(uint8(20), uint8(30), int64(1))
	f.Add(uint8(40), uint8(10), int64(2))
	f.Add(uint8(60), uint8(5), int64(3))
	f.Add(uint8(12), uint8(80), int64(4))
	f.Fuzz(func(t *testing.T, nRaw, pRaw uint8, seed int64) {
		n := 2 + int(nRaw)%62
		p := float64(pRaw%100) / 200 // edge probability in [0, 0.5)
		rng := rand.New(rand.NewSource(seed))
		b := graph.NewBuilder(n)
		for v := 1; v < n; v++ {
			for u := 0; u < v; u++ {
				if rng.Float64() < p {
					b.AddEdge(u, v)
				}
			}
		}
		g, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		m, err := NewModel(g, nil)
		if err != nil {
			t.Fatal(err)
		}
		qm, cm, st, err := Coarsen(m, CoarsenOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if qn, qe := CoarsenSize(m); qn != st.NodesAfter || qe != st.EdgesAfter {
			t.Fatalf("CoarsenSize predicted %d nodes, %d edges; Coarsen built %+v", qn, qe, st)
		}
		checkFiberPartition(t, m, cm)
		checkQuotientPlan(t, m, qm, cm)
		for q := 0; q < cm.QN(); q++ {
			if qm.NodeWeight(q) < int64(len(cm.Fiber(q))-1) {
				t.Fatalf("q%d weight %d below member count %d", q, qm.NodeWeight(q), len(cm.Fiber(q))-1)
			}
		}

		ob, qb := NewBig(m), NewBig(qm)
		if ob.PhiBig(nil).Cmp(qb.PhiBig(nil)) != 0 {
			t.Fatalf("Φ(∅) mismatch (stats %+v): orig %v quotient %v",
				st, ob.PhiBig(nil), qb.PhiBig(nil))
		}

		// Round-trip projection: quotient picks project to their heads.
		var qpicks []int
		for q := 0; q < cm.QN(); q++ {
			if rng.Intn(4) == 0 {
				qpicks = append(qpicks, q)
			}
		}
		proj := cm.ProjectFilters(qpicks)
		for i, v := range proj {
			if cm.Quotient(v) != qpicks[i] || cm.Head(qpicks[i]) != v {
				t.Fatalf("projection of q%d is %d, not its head", qpicks[i], v)
			}
		}

		// Filtered Φ, impacts and argmax must be exactly the original's at
		// head-filter sets.
		qmask := make([]bool, qm.N())
		for _, q := range qpicks {
			if !qm.IsSource(q) {
				qmask[q] = true
			}
		}
		omask := maskFromQuotient(cm, qmask)
		if ob.PhiBig(omask).Cmp(qb.PhiBig(qmask)) != 0 {
			t.Fatalf("lossless filtered Φ mismatch: orig %v quotient %v", ob.PhiBig(omask), qb.PhiBig(qmask))
		}
		og := ob.impactsBig(omask, 1)
		qg := qb.impactsBig(qmask, 1)
		for q := 0; q < qm.N(); q++ {
			if og[cm.Head(q)].Cmp(qg[q]) != 0 {
				t.Fatalf("lossless impact mismatch at head %d: %v vs %v", cm.Head(q), og[cm.Head(q)], qg[q])
			}
		}
		ov, _ := ob.ArgmaxImpact(omask, omask)
		qv, _ := qb.ArgmaxImpact(qmask, qmask)
		if (ov < 0) != (qv < 0) || (qv >= 0 && cm.Head(qv) != ov) {
			t.Fatalf("lossless argmax mismatch: orig %d quotient %d (head %v)", ov, qv, qv >= 0)
		}
	})
}
