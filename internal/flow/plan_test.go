package flow

import (
	"math"
	"math/big"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
)

// --- Reference engines: straight ports of the pre-plan per-node kernels
// iterating Model.Topo(), kept verbatim so the plan-backed passes are
// pinned bit-for-bit against the engines this refactor replaced.

type refFloat struct{ m *Model }

func (e *refFloat) weight(u, v int) float64 {
	if e.m.weight == nil {
		return 1
	}
	return e.m.weight(u, v)
}

func (e *refFloat) forward(filters []bool) (rec, emit []float64) {
	rec = make([]float64, e.m.N())
	emit = make([]float64, e.m.N())
	for _, v := range e.m.Topo() {
		r := 0.0
		for _, p := range e.m.Graph().In(v) {
			r += e.weight(p, v) * emit[p]
		}
		rec[v] = r
		switch {
		case e.m.isSrc[v]:
			emit[v] = 1
		case filters != nil && filters[v] && r > 1:
			emit[v] = 1
		default:
			emit[v] = r
		}
	}
	return rec, emit
}

func (e *refFloat) suffix(filters []bool) []float64 {
	suf := make([]float64, e.m.N())
	topo := e.m.Topo()
	for i := len(topo) - 1; i >= 0; i-- {
		v := topo[i]
		s := 0.0
		for _, c := range e.m.Graph().Out(v) {
			w := e.weight(v, c)
			if filters != nil && filters[c] {
				s += w
			} else {
				s += w * (1 + suf[c])
			}
		}
		suf[v] = s
	}
	return suf
}

func (e *refFloat) phi(filters []bool) float64 {
	rec, _ := e.forward(filters)
	total := 0.0
	for _, r := range rec {
		total += r
	}
	return total
}

func (e *refFloat) impacts(filters []bool) []float64 {
	rec, _ := e.forward(filters)
	suf := e.suffix(filters)
	gains := make([]float64, len(rec))
	for v := range gains {
		if e.m.isSrc[v] || (filters != nil && filters[v]) {
			continue
		}
		excess := rec[v] - 1
		if rec[v] < 1 {
			excess = 0
		}
		gains[v] = excess * suf[v]
	}
	return gains
}

func (e *refFloat) argmax(filters, banned []bool) (int, float64) {
	rec, _ := e.forward(filters)
	suf := e.suffix(filters)
	best, bestGain := -1, 0.0
	for v, r := range rec {
		if banned != nil && banned[v] {
			continue
		}
		if e.m.isSrc[v] || (filters != nil && filters[v]) || r <= 1 {
			continue
		}
		if gn := (r - 1) * suf[v]; gn > bestGain {
			best, bestGain = v, gn
		}
	}
	return best, bestGain
}

// forwardPartial is the scalar leak-aware forward pass the lossy-filter
// engine ran before it moved onto the plan kernels.
func (e *refFloat) forwardPartial(filters []bool, leak float64) (rec, emit []float64) {
	g := e.m.Graph()
	rec = make([]float64, g.N())
	emit = make([]float64, g.N())
	for _, v := range e.m.Topo() {
		r := 0.0
		for _, p := range g.In(v) {
			r += e.weight(p, v) * emit[p]
		}
		rec[v] = r
		switch {
		case e.m.isSrc[v]:
			emit[v] = 1
		case filters != nil && filters[v]:
			filtered := 1 + leak*(r-1)
			if filtered < r {
				emit[v] = filtered
			} else {
				emit[v] = r
			}
		default:
			emit[v] = r
		}
	}
	return rec, emit
}

func (e *refFloat) phiPartial(filters []bool, leak float64) float64 {
	rec, _ := e.forwardPartial(filters, leak)
	total := 0.0
	for _, r := range rec {
		total += r
	}
	return total
}

// suffixPartial is the scalar leak-aware suffix pass.
func (e *refFloat) suffixPartial(filters []bool, leak float64) []float64 {
	g := e.m.Graph()
	suf := make([]float64, g.N())
	topo := e.m.Topo()
	for i := len(topo) - 1; i >= 0; i-- {
		v := topo[i]
		s := 0.0
		for _, c := range g.Out(v) {
			w := e.weight(v, c)
			damp := 1.0
			if filters != nil && filters[c] {
				damp = leak
			}
			s += w * (1 + damp*suf[c])
		}
		suf[v] = s
	}
	return suf
}

func (e *refFloat) impactsPartial(filters []bool, leak float64) []float64 {
	rec, _ := e.forwardPartial(filters, leak)
	suf := e.suffixPartial(filters, leak)
	gains := make([]float64, len(rec))
	for v := range gains {
		if e.m.isSrc[v] || (filters != nil && filters[v]) || rec[v] <= 1 {
			continue
		}
		gains[v] = (1 - leak) * (rec[v] - 1) * suf[v]
	}
	return gains
}

type refBig struct{ m *Model }

func (e *refBig) forward(filters []bool) (rec, emit []*big.Int) {
	rec = make([]*big.Int, e.m.N())
	emit = make([]*big.Int, e.m.N())
	for _, v := range e.m.Topo() {
		r := new(big.Int)
		for _, p := range e.m.Graph().In(v) {
			r.Add(r, emit[p])
		}
		rec[v] = r
		switch {
		case e.m.isSrc[v]:
			emit[v] = bigOne
		case filters != nil && filters[v] && r.Cmp(bigOne) > 0:
			emit[v] = bigOne
		default:
			emit[v] = r
		}
	}
	return rec, emit
}

func (e *refBig) phi(filters []bool) *big.Int {
	rec, _ := e.forward(filters)
	total := new(big.Int)
	for _, r := range rec {
		total.Add(total, r)
	}
	return total
}

func (e *refBig) suffix(filters []bool) []*big.Int {
	suf := make([]*big.Int, e.m.N())
	topo := e.m.Topo()
	for i := len(topo) - 1; i >= 0; i-- {
		v := topo[i]
		s := new(big.Int)
		for _, c := range e.m.Graph().Out(v) {
			s.Add(s, bigOne)
			if filters == nil || !filters[c] {
				s.Add(s, suf[c])
			}
		}
		suf[v] = s
	}
	return suf
}

// --- Golden equivalence suite.

// goldenGraph is one pinned model plus a label for failure messages.
type goldenGraph struct {
	name string
	m    *Model
}

func goldenGraphs(t testing.TB) []goldenGraph {
	t.Helper()
	var gs []goldenGraph
	add := func(name string, g *graph.Digraph, sources []int) {
		m, err := NewModel(g, sources)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		gs = append(gs, goldenGraph{name, m})
	}
	add("fig1", fig1(t), nil)

	lg, src := gen.Layered(8, 40, 1, 3, 1)
	add("layered", lg, []int{src})

	qg, qsrc := gen.QuoteLike(1)
	add("quote", qg, []int{qsrc})

	tg, troot := gen.TwitterLike(0.02, 3)
	add("twitter-small", tg, []int{troot})

	rg, _ := gen.RandomDAG(300, 0.03, 7)
	add("random-dag", rg, nil)

	// Weighted (probabilistic) variant of the random DAG: deterministic
	// pseudo-random relay probabilities derived from the edge endpoints.
	wm, err := NewModel(rg, nil)
	if err != nil {
		t.Fatal(err)
	}
	gs = append(gs, goldenGraph{"random-dag-weighted", wm.WithWeights(func(u, v int) float64 {
		return float64((u*2654435761+v*40503)%1000) / 1000
	})})
	return gs
}

// goldenFilterSets returns the filter masks each graph is checked under:
// none, all, a pseudo-random set, and the greedy-chosen prefix (the mask
// sequence a real placement walks through).
func goldenFilterSets(m *Model, ev *FloatEngine) [][]bool {
	n := m.N()
	rng := rand.New(rand.NewSource(42))
	random := make([]bool, n)
	for v := 0; v < n; v++ {
		random[v] = !m.IsSource(v) && rng.Intn(4) == 0
	}
	greedy := make([]bool, n)
	for i := 0; i < 3; i++ {
		v, gain := ev.ArgmaxImpact(greedy, greedy)
		if v < 0 || gain <= 0 {
			break
		}
		greedy[v] = true
	}
	return [][]bool{nil, AllFilters(m), random, greedy}
}

func eqBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b)
}

func checkBitsSlice(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d != %d", what, len(got), len(want))
	}
	for v := range got {
		if !eqBits(got[v], want[v]) {
			t.Fatalf("%s: node %d: got %v (%#x) want %v (%#x)",
				what, v, got[v], math.Float64bits(got[v]), want[v], math.Float64bits(want[v]))
		}
	}
}

// TestPlanFloatGolden pins every plan-backed float query bit-for-bit
// against the pre-refactor reference kernels, serially and at P = 4 and
// GOMAXPROCS.
func TestPlanFloatGolden(t *testing.T) {
	procsList := []int{1, 4, runtime.GOMAXPROCS(0)}
	for _, gg := range goldenGraphs(t) {
		ev := NewFloat(gg.m)
		ref := &refFloat{gg.m}
		for fi, filters := range goldenFilterSets(gg.m, ev) {
			wantRec, _ := ref.forward(filters)
			wantSuf := ref.suffix(filters)
			wantImp := ref.impacts(filters)
			wantPhi := ref.phi(filters)
			wantV, wantGain := ref.argmax(filters, filters)

			name := gg.name
			checkBitsSlice(t, name+" Received", ev.Received(filters), wantRec)
			checkBitsSlice(t, name+" Suffix", ev.Suffix(filters), wantSuf)
			checkBitsSlice(t, name+" Impacts", ev.Impacts(filters), wantImp)
			if got := ev.Phi(filters); filters != nil && !eqBits(got, wantPhi) {
				t.Fatalf("%s Phi(set %d): got %v want %v", name, fi, got, wantPhi)
			}
			if !eqBits(ev.phi(filters), wantPhi) {
				t.Fatalf("%s phi(set %d) mismatch", name, fi)
			}
			gotV, gotGain := ev.ArgmaxImpact(filters, filters)
			if gotV != wantV || !eqBits(gotGain, wantGain) {
				t.Fatalf("%s ArgmaxImpact(set %d): got (%d, %v) want (%d, %v)",
					name, fi, gotV, gotGain, wantV, wantGain)
			}
			for _, procs := range procsList {
				checkBitsSlice(t, name+" ImpactsP", ev.ImpactsP(filters, procs), wantImp)
				pv, pg := ev.ArgmaxImpactP(filters, filters, procs)
				if pv != wantV || !eqBits(pg, wantGain) {
					t.Fatalf("%s ArgmaxImpactP(set %d, procs %d): got (%d, %v) want (%d, %v)",
						name, fi, procs, pv, pg, wantV, wantGain)
				}
			}
		}
	}
}

// TestPlanPartialGolden pins the lossy-filter queries, now run on the plan
// kernels with the leak as a parameter, bit-for-bit against the scalar
// leak-aware passes they replaced, on unweighted and weighted models.
func TestPlanPartialGolden(t *testing.T) {
	weighted := false
	for _, gg := range goldenGraphs(t) {
		weighted = weighted || gg.m.Weighted()
		ev := NewFloat(gg.m)
		ref := &refFloat{gg.m}
		for fi, filters := range goldenFilterSets(gg.m, ev) {
			for _, leak := range []float64{0, 0.3, 1} {
				if got, want := ev.PhiPartial(filters, leak), ref.phiPartial(filters, leak); !eqBits(got, want) {
					t.Fatalf("%s PhiPartial(set %d, leak %v): got %v want %v", gg.name, fi, leak, got, want)
				}
				checkBitsSlice(t, gg.name+" SuffixPartial", ev.SuffixPartial(filters, leak), ref.suffixPartial(filters, leak))
				checkBitsSlice(t, gg.name+" ImpactsPartial", ev.ImpactsPartial(filters, leak), ref.impactsPartial(filters, leak))
			}
		}
	}
	if !weighted {
		t.Fatal("no weighted golden graph")
	}
}

// TestPlanBigGolden pins the plan-backed exact engine against the
// pre-refactor big-integer kernels: identical integers, identical float
// projections, at every parallelism.
func TestPlanBigGolden(t *testing.T) {
	procsList := []int{1, 4, runtime.GOMAXPROCS(0)}
	for _, gg := range goldenGraphs(t) {
		if gg.m.Weighted() {
			continue // BigEngine rejects weighted models
		}
		ev := NewBig(gg.m)
		fl := NewFloat(gg.m)
		ref := &refBig{gg.m}
		for fi, filters := range goldenFilterSets(gg.m, fl) {
			wantPhi := ref.phi(filters)
			if got := ev.PhiBig(filters); got.Cmp(wantPhi) != 0 {
				t.Fatalf("%s PhiBig(set %d): got %v want %v", gg.name, fi, got, wantPhi)
			}
			wantRec, _ := ref.forward(filters)
			checkBitsSlice(t, gg.name+" big Received", ev.Received(filters), bigsToFloats(wantRec))
			wantSuf := ref.suffix(filters)
			checkBitsSlice(t, gg.name+" big Suffix", ev.Suffix(filters), bigsToFloats(wantSuf))
			wantImp := ev.Impacts(filters)
			for _, procs := range procsList {
				checkBitsSlice(t, gg.name+" big ImpactsP", ev.ImpactsP(filters, procs), wantImp)
				sv, sg := ev.ArgmaxImpact(filters, filters)
				pv, pg := ev.ArgmaxImpactP(filters, filters, procs)
				if pv != sv || !eqBits(pg, sg) {
					t.Fatalf("%s big ArgmaxImpactP(set %d, procs %d): got (%d, %v) want (%d, %v)",
						gg.name, fi, procs, pv, pg, sv, sg)
				}
			}
		}
	}
}

// --- Plan invariants.

// checkPlanInvariants asserts the structural contract of a plan against
// its model: permutation validity, level-monotone order, CSR consistency,
// baked weights and multiplicities, and chunk-table sanity.
func checkPlanInvariants(t testing.TB, m *Model) {
	t.Helper()
	g := m.Graph()
	p := m.Plan()
	n := g.N()
	if p.N() != n || p.M() != g.M() {
		t.Fatalf("plan size %d/%d != graph %d/%d", p.N(), p.M(), n, g.M())
	}

	// perm is a permutation and pos its inverse.
	seen := make([]bool, n)
	for i, v := range p.perm {
		if v < 0 || int(v) >= n || seen[v] {
			t.Fatalf("perm[%d] = %d is not a permutation entry", i, v)
		}
		seen[v] = true
		if p.pos[v] != int32(i) {
			t.Fatalf("pos[%d] = %d, want %d", v, p.pos[v], i)
		}
	}

	// Level boundaries are monotone and cover [0, n]; level of a position
	// is recoverable for the monotonicity check below.
	if p.levelOff[0] != 0 || int(p.levelOff[p.numLevels()]) != n {
		t.Fatalf("levelOff %v does not cover [0, %d]", p.levelOff, n)
	}
	levelOfPos := make([]int, n)
	for l := 0; l < p.numLevels(); l++ {
		lo, hi := p.level(l)
		if hi < lo {
			t.Fatalf("level %d range [%d, %d) inverted", l, lo, hi)
		}
		for i := lo; i < hi; i++ {
			levelOfPos[i] = l
			if i > lo && p.perm[i-1] >= p.perm[i] {
				t.Fatalf("level %d not in ascending id order at position %d", l, i)
			}
		}
	}

	// Every node sits at its depth, 1 + the deepest in-neighbor's level (0
	// without one), so every edge goes to a strictly later level; and both
	// CSRs reproduce the graph's adjacency in the graph's own neighbor
	// order. With the ascending ids within a level, this pins the
	// canonical layout.
	for i := 0; i < n; i++ {
		v := int(p.perm[i])
		in := g.In(v)
		depth := 0
		for _, q := range in {
			depth = max(depth, levelOfPos[p.pos[q]]+1)
		}
		if levelOfPos[i] != depth {
			t.Fatalf("node %d at level %d, want its depth %d", v, levelOfPos[i], depth)
		}
		if int(p.inOff[i+1]-p.inOff[i]) != len(in) {
			t.Fatalf("in-degree mismatch at position %d (node %d)", i, v)
		}
		for k, q := range in {
			j := p.inOff[i] + int32(k)
			if int(p.perm[p.inAdj[j]]) != q {
				t.Fatalf("inAdj[%d] maps to %d, want %d", j, p.perm[p.inAdj[j]], q)
			}
			if levelOfPos[p.inAdj[j]] >= levelOfPos[i] {
				t.Fatalf("edge (%d,%d): level %d !< %d", q, v, levelOfPos[p.inAdj[j]], levelOfPos[i])
			}
			if p.inW != nil {
				if want := m.weight(q, v); p.inW[j] != want {
					t.Fatalf("inW[%d] = %v, want %v", j, p.inW[j], want)
				}
			}
		}
		if p.mulW != nil {
			if want := float64(m.NodeWeight(v)); p.mulW[i] != want {
				t.Fatalf("mulW[%d] = %v, want %v (node %d)", i, p.mulW[i], want, v)
			}
		}
		out := g.Out(v)
		if int(p.outOff[i+1]-p.outOff[i]) != len(out) {
			t.Fatalf("out-degree mismatch at position %d (node %d)", i, v)
		}
		for k, c := range out {
			j := p.outOff[i] + int32(k)
			if int(p.perm[p.outAdj[j]]) != c {
				t.Fatalf("outAdj[%d] maps to %d, want %d", j, p.perm[p.outAdj[j]], c)
			}
			if levelOfPos[p.outAdj[j]] <= levelOfPos[i] {
				t.Fatalf("edge (%d,%d): level %d !> %d", v, c, levelOfPos[p.outAdj[j]], levelOfPos[i])
			}
		}
	}
}

func TestPlanInvariants(t *testing.T) {
	for _, gg := range goldenGraphs(t) {
		checkPlanInvariants(t, gg.m)
	}
	// Degenerate shapes: empty, single node, a pure chain (one node per
	// level) and a star (two levels).
	empty, err := graph.FromEdges(0, nil)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewModel(empty, nil)
	if err != nil {
		t.Fatal(err)
	}
	checkPlanInvariants(t, m)
	chain := graph.MustFromEdges(4, [][2]int{{0, 1}, {1, 2}, {2, 3}})
	checkPlanInvariants(t, MustModel(chain, nil))
	star := graph.MustFromEdges(5, [][2]int{{0, 1}, {0, 2}, {0, 3}, {0, 4}})
	checkPlanInvariants(t, MustModel(star, nil))
}

// FuzzPlanBuild feeds random DAGs (edges forced low→high, so always
// acyclic) through the plan builder and asserts the structural
// invariants, plus bit-identical Phi/Impacts between the plan-backed
// engine and the reference kernels.
func FuzzPlanBuild(f *testing.F) {
	f.Add(uint8(5), []byte{0, 1, 1, 2, 0, 3, 3, 4})
	f.Add(uint8(1), []byte{})
	f.Add(uint8(12), []byte{0, 11, 1, 2, 2, 9, 9, 10, 3, 4, 4, 5, 5, 6, 0, 7})
	f.Fuzz(func(t *testing.T, nRaw uint8, raw []byte) {
		n := int(nRaw%64) + 1
		b := graph.NewBuilder(n)
		for i := 0; i+1 < len(raw) && i < 256; i += 2 {
			u, v := int(raw[i])%n, int(raw[i+1])%n
			if u == v {
				continue
			}
			if u > v {
				u, v = v, u // low→high keeps the graph acyclic
			}
			b.AddEdge(u, v)
		}
		g, err := b.Build()
		if err != nil {
			t.Skip()
		}
		m, err := NewModel(g, nil)
		if err != nil {
			t.Skip() // e.g. no valid sources
		}
		checkPlanInvariants(t, m)

		ev := NewFloat(m)
		ref := &refFloat{m}
		filters := make([]bool, n)
		for v := 0; v < n; v++ {
			filters[v] = !m.IsSource(v) && v%3 == 0
		}
		for _, fs := range [][]bool{nil, filters} {
			if !eqBits(ev.phi(fs), ref.phi(fs)) {
				t.Fatalf("phi mismatch: %v vs %v", ev.phi(fs), ref.phi(fs))
			}
			got, want := ev.Impacts(fs), ref.impacts(fs)
			for v := range got {
				if !eqBits(got[v], want[v]) {
					t.Fatalf("impacts[%d]: %v vs %v", v, got[v], want[v])
				}
			}
		}
	})
}
