package flow

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/gen"
)

func TestPartialExtremes(t *testing.T) {
	// leak = 0 must agree with the perfect-filter engine; leak = 1 must be
	// a no-op.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomSourcedDAG(rng, 18, 0.3)
		e := NewFloat(MustModel(g, nil))
		filters := make([]bool, g.N())
		for v := range filters {
			filters[v] = rng.Float64() < 0.3
		}
		if math.Abs(e.PhiPartial(filters, 0)-e.Phi(filters)) > 1e-9 {
			t.Logf("seed %d: leak 0 mismatch", seed)
			return false
		}
		if math.Abs(e.PhiPartial(filters, 1)-e.Phi(nil)) > 1e-9 {
			t.Logf("seed %d: leak 1 not a no-op", seed)
			return false
		}
		gi0 := e.ImpactsPartial(filters, 0)
		gi := e.Impacts(filters)
		for v := range gi {
			if math.Abs(gi0[v]-gi[v]) > 1e-9*(1+gi[v]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}

	// A coarse (Coarsen quotient) model carries node multiplicities that
	// every pass must honour: leak 0 is exactly the perfect filter there
	// too, with no filter and with one interior filter.
	g, src := gen.ChainDAG(300, 2, 4)
	qm, _, _, err := Coarsen(MustModel(g, []int{src}), CoarsenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if qm.N() >= g.N() || !qm.Plan().Coarse() {
		t.Fatalf("coarsening left %d of %d nodes (coarse plan %v)", qm.N(), g.N(), qm.Plan().Coarse())
	}
	e := NewFloat(qm)
	interior := -1
	rec := e.Received(nil)
	for v := 0; v < qm.N(); v++ {
		if !qm.IsSource(v) && rec[v] > 1 && qm.Graph().OutDegree(v) > 0 {
			interior = v
			break
		}
	}
	if interior < 0 {
		t.Fatal("quotient has no interior merge node")
	}
	for _, filters := range [][]bool{nil, MaskOf(qm.N(), []int{interior})} {
		if got, want := e.PhiPartial(filters, 0), e.Phi(filters); got != want {
			t.Errorf("coarse PhiPartial(%v, 0) = %v, want Phi = %v", filters != nil, got, want)
		}
		got, want := e.ImpactsPartial(filters, 0), e.Impacts(filters)
		for v := range want {
			if got[v] != want[v] {
				t.Errorf("coarse ImpactsPartial(%v, 0)[%d] = %v, want Impacts = %v", filters != nil, v, got[v], want[v])
				break
			}
		}
	}
}

func TestPartialImpactIsMarginalGain(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomSourcedDAG(rng, 14, 0.3)
		e := NewFloat(MustModel(g, nil))
		m := e.Model()
		leak := 0.3
		filters := make([]bool, g.N())
		for v := range filters {
			filters[v] = !m.IsSource(v) && rng.Float64() < 0.2
		}
		gains := e.ImpactsPartial(filters, leak)
		base := e.PhiPartial(filters, leak)
		for v := 0; v < g.N(); v++ {
			if filters[v] || m.IsSource(v) {
				continue
			}
			filters[v] = true
			want := base - e.PhiPartial(filters, leak)
			filters[v] = false
			if math.Abs(gains[v]-want) > 1e-6*(1+math.Abs(want)) {
				t.Logf("seed %d node %d: gain %v want %v", seed, v, gains[v], want)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestPartialMonotoneInLeak(t *testing.T) {
	// More leakage ⇒ more copies delivered.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomSourcedDAG(rng, 16, 0.3)
		e := NewFloat(MustModel(g, nil))
		filters := make([]bool, g.N())
		for v := range filters {
			filters[v] = rng.Float64() < 0.4
		}
		prev := -1.0
		for _, leak := range []float64{0, 0.25, 0.5, 0.75, 1} {
			phi := e.PhiPartial(filters, leak)
			if phi < prev-1e-9 {
				t.Logf("seed %d: Φ decreased as leak grew", seed)
				return false
			}
			prev = phi
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestPartialFigure1(t *testing.T) {
	// Filter at z2 with leak 0.5: z2 emits 1 + 0.5·(2−1) = 1.5, so w
	// receives 1 + 1.5 + 1 = 3.5 and Φ = 6 + 2 + 3.5 − ... total:
	// x1 + y1 + z1:1 + z2:2 + z3:1 + w:3.5 = 9.5.
	g := fig1(t)
	e := NewFloat(MustModel(g, nil))
	fz2 := MaskOf(g.N(), []int{4})
	if phi := e.PhiPartial(fz2, 0.5); math.Abs(phi-9.5) > 1e-12 {
		t.Errorf("Φ = %v, want 9.5", phi)
	}
	// FRPartial: MaxF = 1 (perfect), achieved reduction 0.5 → FR 0.5.
	if fr := e.FRPartial(fz2, 0.5); math.Abs(fr-0.5) > 1e-12 {
		t.Errorf("FRPartial = %v, want 0.5", fr)
	}
}

func TestPartialBadLeakPanics(t *testing.T) {
	g := fig1(t)
	e := NewFloat(MustModel(g, nil))
	defer func() {
		if recover() == nil {
			t.Error("leak > 1 did not panic")
		}
	}()
	e.PhiPartial(nil, 1.5)
}
