package flow

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
)

// passesOf reads a PassCounter as a pair, for compact comparisons.
func passesOf(pc PassCounter) [2]int64 {
	f, s := pc.Passes()
	return [2]int64{f, s}
}

// TestModelInvariantsBuiltOnce: the model's first engine of each kind
// runs the invariant passes — one float pass on unweighted models (F(V)
// has a closed form there), two on weighted ones and two big passes —
// every later engine runs none and reads bit-identical Φ(∅,V) and F(V).
func TestModelInvariantsBuiltOnce(t *testing.T) {
	for _, gg := range goldenGraphs(t) {
		m := gg.m
		first, second := NewFloat(m), NewFloat(m)
		want := [2]int64{1, 0}
		if m.Weighted() {
			want = [2]int64{2, 0}
		}
		if got := passesOf(first); got != want {
			t.Errorf("%s: first NewFloat ran %v passes, want %v", gg.name, got, want)
		}
		if got := passesOf(second); got != [2]int64{0, 0} {
			t.Errorf("%s: second NewFloat ran %v passes, want none", gg.name, got)
		}
		if !eqBits(first.Phi(nil), second.Phi(nil)) || !eqBits(first.MaxF(), second.MaxF()) {
			t.Errorf("%s: float invariants differ between engines", gg.name)
		}
		if m.Weighted() {
			continue
		}
		bfirst, bsecond := NewBig(m), NewBig(m)
		if got := passesOf(bfirst); got != [2]int64{2, 0} {
			t.Errorf("%s: first NewBig ran %v passes, want [2 0]", gg.name, got)
		}
		if got := passesOf(bsecond); got != [2]int64{0, 0} {
			t.Errorf("%s: second NewBig ran %v passes, want none", gg.name, got)
		}
		if bfirst.PhiBig(nil).Cmp(bsecond.PhiBig(nil)) != 0 || bfirst.MaxFBig().Cmp(bsecond.MaxFBig()) != 0 {
			t.Errorf("%s: big invariants differ between engines", gg.name)
		}
	}
}

// TestModelInvariantsCoarse: a quotient model's exact invariants include
// its multiplicities whether or not the engine that computed them is the
// one asking.
func TestModelInvariantsCoarse(t *testing.T) {
	g, src := gen.Layered(6, 12, 1, 3, 2)
	mul := make([]int64, g.N())
	for v := range mul {
		mul[v] = int64(v % 3)
	}
	m, ref := coarseModel(t, g, []int{src}, mul), coarseModel(t, g, []int{src}, mul)
	NewBig(m) // fills the cache
	second, fresh := NewBig(m), NewBig(ref)
	if passesOf(second) != [2]int64{0, 0} {
		t.Errorf("second coarse NewBig ran %v passes", passesOf(second))
	}
	if second.PhiBig(nil).Cmp(fresh.PhiBig(nil)) != 0 || second.MaxFBig().Cmp(fresh.MaxFBig()) != 0 {
		t.Errorf("cached coarse invariants %v/%v, fresh %v/%v",
			second.PhiBig(nil), second.MaxFBig(), fresh.PhiBig(nil), fresh.MaxFBig())
	}
	all := AllFilters(m)
	if second.FBig(all).Cmp(fresh.FBig(all)) != 0 {
		t.Error("coarse F(V) through the cached multiplicities differs")
	}
}

// TestModelInvariantsConcurrent builds float and big engines on one fresh
// model from many goroutines at once: exactly one float and one big
// engine pay the invariant passes and every engine reports the same
// values. Run under -race it checks the cache's publication.
func TestModelInvariantsConcurrent(t *testing.T) {
	g, src := gen.TwitterLike(0.02, 5)
	m := MustModel(g, []int{src})
	ref := NewFloat(MustModel(g, []int{src}))
	bref := NewBig(MustModel(g, []int{src}))
	mask := MaskOf(g.N(), []int{3, 7, 11})
	want := Evaluate(ref, mask)
	wantBig := Evaluate(bref, mask)

	const workers = 8
	floats := make([]*FloatEngine, workers)
	bigs := make([]*BigEngine, workers)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			floats[i], bigs[i] = NewFloat(m), NewBig(m)
			if got := Evaluate(floats[i], mask); got != want {
				t.Errorf("worker %d float objective %+v, want %+v", i, got, want)
			}
			if got := Evaluate(bigs[i], mask); got != wantBig {
				t.Errorf("worker %d big objective %+v, want %+v", i, got, wantBig)
			}
			floats[i].ReleaseScratch()
		}(i)
	}
	wg.Wait()
	var fwd, bigFwd int64
	for i := range floats {
		fwd += passesOf(floats[i])[0]
		bigFwd += passesOf(bigs[i])[0]
	}
	// Each engine ran one Evaluate pass; one float engine also ran the
	// one invariant pass of an unweighted model, one big engine two.
	if fwd != workers+1 || bigFwd != workers+2 {
		t.Errorf("forward passes float %d big %d, want %d and %d", fwd, bigFwd, workers+1, workers+2)
	}
}

// TestModelInvariantsMultiItem: MultiEngine's per-item models share one
// plan but keep their own Φ(∅), since each has its own source.
func TestModelInvariantsMultiItem(t *testing.T) {
	g := graph.MustFromEdges(6, [][2]int{{0, 5}, {5, 2}, {0, 2}, {1, 2}, {2, 3}, {2, 4}})
	me, err := NewMulti(g, []Item{{Name: "A", Source: 0}, {Name: "B", Source: 1}})
	if err != nil {
		t.Fatal(err)
	}
	a, b := me.engines[0], me.engines[1]
	if a.p != b.p {
		t.Error("per-item engines do not share the plan")
	}
	if a.Phi(nil) != 7 || b.Phi(nil) != 3 {
		t.Errorf("per-item Φ(∅) = %v, %v; want 7, 3", a.Phi(nil), b.Phi(nil))
	}
	if a.MaxF() != 2 || b.MaxF() != 0 {
		t.Errorf("per-item F(V) = %v, %v; want 2, 0", a.MaxF(), b.MaxF())
	}
	if base := NewFloat(me.Model()); base.Phi(nil) != 10 {
		t.Errorf("base model Φ(∅) = %v, want 10", base.Phi(nil))
	}
}

// TestModelInvariantsWithWeights: a weighted copy never sees the
// unweighted model's invariants, nor the original the copy's, whichever
// is computed first.
func TestModelInvariantsWithWeights(t *testing.T) {
	g, src := gen.Layered(8, 20, 1, 3, 4)
	half := func(u, v int) float64 { return 0.5 }
	fresh := func() (plain, weighted float64) {
		m := MustModel(g, []int{src})
		return NewFloat(m).Phi(nil), NewFloat(MustModel(g, []int{src}).WithWeights(half)).Phi(nil)
	}
	wantPlain, wantWeighted := fresh()
	if wantPlain == wantWeighted {
		t.Fatal("test graph does not separate weighted from unweighted Φ")
	}

	m := MustModel(g, []int{src})
	NewFloat(m)
	w := m.WithWeights(half)
	if got := NewFloat(w).Phi(nil); !eqBits(got, wantWeighted) {
		t.Errorf("weighted copy of a warm model: Φ(∅) = %v, want %v", got, wantWeighted)
	}

	m2 := MustModel(g, []int{src})
	w2 := m2.WithWeights(half)
	NewFloat(w2)
	if got := NewFloat(m2).Phi(nil); !eqBits(got, wantPlain) {
		t.Errorf("original after its weighted copy: Φ(∅) = %v, want %v", got, wantPlain)
	}
}

// TestModelInvariantsWithSources: a source override shares the base
// model's plan, computes its own invariants, validates like NewModel and
// leaves the base untouched.
func TestModelInvariantsWithSources(t *testing.T) {
	g := fig1(t)
	base := MustModel(g, nil)
	baseEv := NewFloat(base)
	// Node 0 is fig1's only in-degree-0 node; add a second root so an
	// override can pick a different source set.
	g2 := graph.MustFromEdges(8, [][2]int{
		{0, 1}, {0, 2}, {1, 3}, {1, 4}, {2, 4}, {2, 5}, {3, 6}, {4, 6}, {5, 6}, {7, 4}, {7, 5},
	})
	base2 := MustModel(g2, []int{0})
	NewFloat(base2)
	over, err := base2.WithSources([]int{0, 7})
	if err != nil {
		t.Fatal(err)
	}
	if over.Plan() != base2.Plan() {
		t.Error("override rebuilt the plan")
	}
	ref := NewFloat(MustModel(g2, []int{0, 7}))
	ev := NewFloat(over)
	if !eqBits(ev.Phi(nil), ref.Phi(nil)) || !eqBits(ev.MaxF(), ref.MaxF()) {
		t.Errorf("override invariants %v/%v, fresh model %v/%v", ev.Phi(nil), ev.MaxF(), ref.Phi(nil), ref.MaxF())
	}
	checkBitsSlice(t, "override impacts", ev.Impacts(nil), ref.Impacts(nil))
	if got := NewFloat(base2).Phi(nil); got == ev.Phi(nil) {
		t.Errorf("base Φ(∅) %v took the override's value", got)
	}
	if !over.IsSource(7) || base2.IsSource(7) {
		t.Error("override source mask leaked into the base model")
	}

	if _, err := base.WithSources([]int{3}); err == nil {
		t.Error("WithSources accepted a source with in-edges")
	}
	if _, err := base.WithSources([]int{99}); err == nil {
		t.Error("WithSources accepted an out-of-range source")
	}
	def, err := base.WithSources(nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := NewFloat(def).Phi(nil); got != baseEv.Phi(nil) {
		t.Errorf("default-source override Φ(∅) = %v, want %v", got, baseEv.Phi(nil))
	}
}

// TestEvaluateMatchesEvaluator: Evaluate's one-pass report is bit for bit
// what the separate Phi, F and FR calls return, on every engine and
// filter set of the golden suite.
func TestEvaluateMatchesEvaluator(t *testing.T) {
	for _, gg := range goldenGraphs(t) {
		evs := []Evaluator{NewFloat(gg.m)}
		if !gg.m.Weighted() {
			evs = append(evs, NewBig(gg.m))
		}
		for _, ev := range evs {
			for _, mask := range append(goldenFilterSets(gg.m, NewFloat(gg.m)), nil) {
				want := Objective{ev.Phi(nil), ev.Phi(mask), ev.F(mask), FR(ev, mask)}
				got := Evaluate(ev, mask)
				if !eqBits(got.PhiEmpty, want.PhiEmpty) || !eqBits(got.PhiA, want.PhiA) ||
					!eqBits(got.F, want.F) || !eqBits(got.FR, want.FR) {
					t.Errorf("%s %T: Evaluate %+v, separate calls %+v", gg.name, ev, got, want)
				}
			}
			if pc, ok := ev.(PassCounter); ok {
				before := passesOf(pc)
				Evaluate(ev, MaskOf(gg.m.N(), []int{1}))
				if d := passesOf(pc)[0] - before[0]; d != 1 {
					t.Errorf("%s %T: Evaluate ran %d forward passes, want 1", gg.name, ev, d)
				}
			}
		}
	}
}

// twoPassInvariants is the reference Φ(∅,V) and F(V) of a model: a
// forward pass with no filters, then one with every non-source node
// filtered.
func twoPassInvariants(m *Model) (phiEmpty, maxF float64) {
	p, src := m.Plan(), m.planSources()
	s := p.getScratch()
	defer p.putScratch(s)
	p.forwardRange(src, p.falseMask, 0, s.rec, s.emit, 0, p.n)
	phiEmpty = p.sumPhi(s.rec, s.emit)
	all := make([]bool, p.n)
	for i, isSrc := range src {
		all[i] = !isSrc
	}
	p.forwardRange(src, all, 0, s.rec, s.emit, 0, p.n)
	return phiEmpty, phiEmpty - p.sumPhi(s.rec, s.emit)
}

// TestModelInvariantsClosedForm: on unweighted plans the first NewFloat
// reads F(V) off its one Φ(∅) pass — the out-degrees of the reached nodes
// plus, on coarse plans, their multiplicities — and must match the
// all-filters pass bit for bit, +Inf included. Weighted plans still run
// that second pass.
func TestModelInvariantsClosedForm(t *testing.T) {
	type tcase struct {
		name string
		m    *Model
	}
	var cases []tcase
	for seed := int64(1); seed <= 4; seed++ {
		g, src := gen.RandomDAG(60, 0.08, seed)
		cases = append(cases, tcase{fmt.Sprintf("random-dag-%d", seed), MustModel(g, []int{src})})
	}
	// Two random DAGs side by side with only the first one's source, so
	// the second one's nodes are never reached.
	a, srcA := gen.RandomDAG(40, 0.1, 5)
	b, _ := gen.RandomDAG(40, 0.1, 6)
	bl := graph.NewBuilder(a.N() + b.N())
	for u := 0; u < a.N(); u++ {
		for _, v := range a.Out(u) {
			bl.AddEdge(u, v)
		}
	}
	for u := 0; u < b.N(); u++ {
		for _, v := range b.Out(u) {
			bl.AddEdge(a.N()+u, a.N()+v)
		}
	}
	cases = append(cases, tcase{"partly-reached", MustModel(bl.MustBuild(), []int{srcA})})
	tw, twSrc := gen.TwitterLike(0.02, 3)
	twm := MustModel(tw, []int{twSrc})
	qm, _, _, err := Coarsen(twm, CoarsenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !qm.Coarse() {
		t.Fatal("the twitter quotient carries no multiplicities")
	}
	dc, dcSrc := gen.DiamondChain(1100)
	dcm := MustModel(dc, []int{dcSrc})
	cases = append(cases, tcase{"twitter", twm}, tcase{"twitter-quotient", qm}, tcase{"diamond-chain-1100", dcm})

	for _, c := range cases {
		ev := NewFloat(c.m)
		if got := passesOf(ev); got != [2]int64{1, 0} {
			t.Errorf("%s: first NewFloat ran %v passes, want [1 0]", c.name, got)
		}
		phiEmpty, maxF := twoPassInvariants(c.m)
		if !eqBits(ev.Phi(nil), phiEmpty) || !eqBits(ev.MaxF(), maxF) {
			t.Errorf("%s: one-pass invariants %v/%v, two-pass %v/%v", c.name, ev.Phi(nil), ev.MaxF(), phiEmpty, maxF)
		}
	}
	if ev := NewFloat(dcm); !math.IsInf(ev.Phi(nil), 1) || !math.IsInf(ev.MaxF(), 1) {
		t.Errorf("diamond chain: Φ(∅) = %v, F(V) = %v; want +Inf both", ev.Phi(nil), ev.MaxF())
	}

	wm := MustModel(tw, []int{twSrc}).WithWeights(func(u, v int) float64 { return 0.5 })
	ev := NewFloat(wm)
	if got := passesOf(ev); got != [2]int64{2, 0} {
		t.Errorf("weighted: first NewFloat ran %v passes, want [2 0]", got)
	}
	phiEmpty, maxF := twoPassInvariants(wm)
	if !eqBits(ev.Phi(nil), phiEmpty) || !eqBits(ev.MaxF(), maxF) {
		t.Errorf("weighted: invariants %v/%v, two-pass %v/%v", ev.Phi(nil), ev.MaxF(), phiEmpty, maxF)
	}
}

// TestModelFromPlanLazyGraph: a model stood up over a plan answers every
// engine query and WithSources from the plan alone, leaving its digraph
// unbuilt. The first Graph call widens the plan once — concurrent callers
// share one graph — into exactly Plan.Digraph, and sources are validated
// against the plan's in-rows with NewModel's messages.
func TestModelFromPlanLazyGraph(t *testing.T) {
	// Relabel so plan positions and node ids differ.
	tw, twSrc := gen.TwitterLike(0.02, 3)
	perm := rand.New(rand.NewSource(3)).Perm(tw.N())
	b := graph.NewBuilder(tw.N())
	for u := 0; u < tw.N(); u++ {
		for _, v := range tw.Out(u) {
			b.AddEdge(perm[u], perm[v])
		}
	}
	g, src := b.MustBuild(), perm[twSrc]
	ref := MustModel(g, []int{src})
	p := ref.Plan()
	if p.identity {
		t.Fatal("the relabeled plan is the identity")
	}
	m, err := NewModelFromPlan(p, []int{src})
	if err != nil {
		t.Fatal(err)
	}
	unbuilt := func(what string) {
		t.Helper()
		if m.gc.g != nil || m.gc.topo != nil {
			t.Fatalf("%s materialized the graph", what)
		}
	}

	if m.N() != g.N() || !slices.Equal(m.Sources(), ref.Sources()) || m.HasLabels() {
		t.Fatalf("N/Sources/HasLabels = %d/%v/%v, want %d/%v/false", m.N(), m.Sources(), m.HasLabels(), g.N(), ref.Sources())
	}
	for v := 0; v < g.N(); v++ {
		if m.IsSource(v) != ref.IsSource(v) {
			t.Fatalf("IsSource(%d) = %v", v, m.IsSource(v))
		}
	}
	ev, evRef := NewFloat(m), NewFloat(ref)
	filters := make([]bool, g.N())
	for v := 1; v < g.N(); v += 7 {
		filters[v] = !ref.IsSource(v)
	}
	for _, fs := range [][]bool{nil, filters} {
		if !eqBits(ev.Phi(fs), evRef.Phi(fs)) || !eqBits(ev.F(fs), evRef.F(fs)) {
			t.Fatalf("Phi/F = %v/%v, want %v/%v", ev.Phi(fs), ev.F(fs), evRef.Phi(fs), evRef.F(fs))
		}
		checkBitsSlice(t, "Impacts", ev.Impacts(fs), evRef.Impacts(fs))
		v, gain := ev.ArgmaxImpactP(fs, fs, 2)
		rv, rgain := evRef.ArgmaxImpactP(fs, fs, 2)
		if v != rv || !eqBits(gain, rgain) {
			t.Fatalf("ArgmaxImpactP = (%d, %v), want (%d, %v)", v, gain, rv, rgain)
		}
		if got, want := Evaluate(ev, fs), Evaluate(evRef, fs); got != want {
			t.Fatalf("Evaluate = %+v, want %+v", got, want)
		}
	}
	unbuilt("an engine query")
	def, err := NewModelFromPlan(p, nil)
	if err != nil {
		t.Fatal(err)
	}
	if want := g.Sources(); !slices.Equal(def.Sources(), want) || def.gc.g != nil {
		t.Fatalf("default sources %v (graph built %v), want %v", def.Sources(), def.gc.g != nil, want)
	}
	ws, err := m.WithSources(nil)
	if err != nil || !slices.Equal(ws.Sources(), g.Sources()) {
		t.Fatalf("WithSources(nil) = %v, %v; want %v", ws, err, g.Sources())
	}
	for _, bad := range [][]int{{g.Out(src)[0]}, {-1}, {g.N()}} {
		_, errW := m.WithSources(bad)
		_, errG := NewModel(g, bad)
		if errW == nil || errG == nil || errW.Error() != errG.Error() {
			t.Errorf("sources %v: WithSources error %v, NewModel error %v", bad, errW, errG)
		}
	}
	unbuilt("WithSources")

	got := make([]*graph.Digraph, 8)
	var wg sync.WaitGroup
	start := make(chan struct{})
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			got[i] = m.Graph()
		}()
	}
	close(start)
	wg.Wait()
	for i, gi := range got {
		if gi == nil || gi != got[0] {
			t.Fatalf("goroutine %d got graph %p, goroutine 0 got %p", i, gi, got[0])
		}
	}
	want := p.Digraph()
	if got[0].N() != want.N() || got[0].M() != want.M() {
		t.Fatalf("Graph has %d nodes, %d edges; Plan.Digraph %d, %d", got[0].N(), got[0].M(), want.N(), want.M())
	}
	for v := 0; v < want.N(); v++ {
		if !slices.Equal(got[0].Out(v), want.Out(v)) || !slices.Equal(got[0].In(v), want.In(v)) {
			t.Fatalf("node %d: rows %v/%v, Plan.Digraph %v/%v", v, got[0].Out(v), got[0].In(v), want.Out(v), want.In(v))
		}
	}
	topo := m.Topo()
	rank := make([]int, g.N())
	for i := range rank {
		rank[i] = -1
	}
	for i, v := range topo {
		rank[v] = i
	}
	if len(topo) != g.N() || slices.Contains(rank, -1) {
		t.Fatalf("Topo is not a permutation of [0,%d)", g.N())
	}
	for u := 0; u < g.N(); u++ {
		for _, v := range g.Out(u) {
			if rank[u] >= rank[v] {
				t.Fatalf("Topo puts %d at %d, after its out-neighbor %d at %d", u, rank[u], v, rank[v])
			}
		}
	}

	inner := g.Out(src)[0]
	for _, bad := range [][]int{{inner}, {-1}, {g.N()}} {
		_, errP := NewModelFromPlan(p, bad)
		_, errG := NewModel(g, bad)
		if errP == nil || errG == nil || errP.Error() != errG.Error() {
			t.Errorf("sources %v: NewModelFromPlan error %v, NewModel error %v", bad, errP, errG)
		}
	}
	if _, err := NewModelFromPlan(p, []int{inner}); err == nil || err.Error() != fmt.Sprintf("flow: source %d has in-degree %d; sources must have in-degree 0 (add a super-source instead)", inner, g.InDegree(inner)) {
		t.Errorf("in-degree source error %v", err)
	}
	if _, err := NewModelFromPlan(p, []int{g.N()}); err == nil || err.Error() != fmt.Sprintf("flow: source %d out of range [0,%d)", g.N(), g.N()) {
		t.Errorf("out-of-range source error %v", err)
	}
}
