package flow

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"repro/internal/graph"
)

// --- A minimal mutable DAG view for exercising the Splicer.
//
// flow cannot import dyn (dyn imports flow), so splice tests drive the
// Splicer through a local DynDigraph that mimics dyn.Dynamic's observable
// behavior: adjacency rows mutate by append / swap-delete (so their order
// is arbitrary, never sorted) and every edge goes low→high, making the
// identity a maintained topological order.

type testDyn struct{ out, in [][]int }

func newTestDyn(n int) *testDyn {
	return &testDyn{out: make([][]int, n), in: make([][]int, n)}
}

func (d *testDyn) N() int { return len(d.out) }

// Rows reports the identity order: edges are always low→high, so
// ascending id is a valid topological order for every edge set these
// tests construct.
func (d *testDyn) Rows() (in, out [][]int, ord []int) {
	ord = make([]int, len(d.out))
	for v := range ord {
		ord[v] = v
	}
	return d.in, d.out, ord
}

func (d *testDyn) has(u, v int) bool {
	for _, w := range d.out[u] {
		if w == v {
			return true
		}
	}
	return false
}

func (d *testDyn) addEdge(u, v int) bool {
	if u == v || d.has(u, v) {
		return false
	}
	d.out[u] = append(d.out[u], v)
	d.in[v] = append(d.in[v], u)
	return true
}

func rmSwap(s []int, x int) []int {
	for i, y := range s {
		if y == x {
			s[i] = s[len(s)-1]
			return s[:len(s)-1]
		}
	}
	return s
}

// testBatch is one mutation batch: node growth plus edge adds/removes.
type testBatch struct {
	addNodes    int
	add, remove [][2]int
}

// apply mutates the view the way dyn.Dynamic would (append adds,
// swap-delete removes) and returns the dirty-cone seeds dyn.ApplyResult
// reports: deduped heads and tails of every actually changed edge.
func (d *testDyn) apply(b testBatch) (dirtyFwd, dirtyBwd []int) {
	for i := 0; i < b.addNodes; i++ {
		d.out = append(d.out, nil)
		d.in = append(d.in, nil)
	}
	seenF, seenB := map[int]bool{}, map[int]bool{}
	touch := func(u, v int) {
		if !seenF[v] {
			seenF[v] = true
			dirtyFwd = append(dirtyFwd, v)
		}
		if !seenB[u] {
			seenB[u] = true
			dirtyBwd = append(dirtyBwd, u)
		}
	}
	for _, e := range b.add {
		if d.addEdge(e[0], e[1]) {
			touch(e[0], e[1])
		}
	}
	for _, e := range b.remove {
		u, v := e[0], e[1]
		if !d.has(u, v) {
			continue
		}
		d.out[u] = rmSwap(d.out[u], v)
		d.in[v] = rmSwap(d.in[v], u)
		touch(u, v)
	}
	return dirtyFwd, dirtyBwd
}

// model builds the reference Model over an immutable snapshot of the
// view — the from-scratch side every repair is pinned against.
func (d *testDyn) model(t testing.TB) *Model {
	t.Helper()
	b := graph.NewBuilder(d.N())
	for u, row := range d.out {
		for _, v := range row {
			b.AddEdge(u, v)
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
	return m
}

// plansEqual asserts two plans are array-for-array identical — the
// Splicer's contract (a repaired plan must be indistinguishable from
// NewModel's plan over a snapshot of the mutated graph) and Coarsen's (a
// quotient plan equals the one laid out from the quotient digraph).
func plansEqual(t testing.TB, what string, got, want *Plan) {
	t.Helper()
	if got.n != want.n || got.weighted != want.weighted || got.identity != want.identity {
		t.Fatalf("%s: header mismatch: n %d/%d weighted %v/%v identity %v/%v",
			what, got.n, want.n, got.weighted, want.weighted, got.identity, want.identity)
	}
	eq32 := func(field string, a, b []int32) {
		if !slices.Equal(a, b) {
			t.Fatalf("%s: %s mismatch:\n got %v\nwant %v", what, field, a, b)
		}
	}
	eq32("perm", got.perm, want.perm)
	eq32("pos", got.pos, want.pos)
	eq32("levelOff", got.levelOff, want.levelOff)
	eq32("inOff", got.inOff, want.inOff)
	eq32("inAdj", got.inAdj, want.inAdj)
	eq32("outOff", got.outOff, want.outOff)
	eq32("outAdj", got.outAdj, want.outAdj)
	eqF := func(field string, a, b []float64) {
		if (a == nil) != (b == nil) || !slices.Equal(a, b) {
			t.Fatalf("%s: %s mismatch:\n got %v\nwant %v", what, field, a, b)
		}
	}
	eqF("inW", got.inW, want.inW)
	eqF("outW", got.outW, want.outW)
	eqF("mulW", got.mulW, want.mulW)
	if len(got.falseMask) != len(want.falseMask) {
		t.Fatalf("%s: falseMask length %d != %d", what, len(got.falseMask), len(want.falseMask))
	}
}

// checkSpliceObservables pins every engine observable of a model stood up
// over the repaired plan (NewModelFromPlan) bit-for-bit against the
// reference model: float and big, serial and at P = 4 and GOMAXPROCS.
func checkSpliceObservables(t *testing.T, name string, sp *Plan, mRef *Model) {
	t.Helper()
	mSpl, err := NewModelFromPlan(sp, nil)
	if err != nil {
		t.Fatalf("%s: NewModelFromPlan: %v", name, err)
	}
	if mSpl.Plan() != sp {
		t.Fatalf("%s: NewModelFromPlan did not pin the plan", name)
	}
	procsList := []int{1, 4, runtime.GOMAXPROCS(0)}
	evS, evR := NewFloat(mSpl), NewFloat(mRef)
	bgS, bgR := NewBig(mSpl), NewBig(mRef)
	for fi, filters := range goldenFilterSets(mRef, evR) {
		tag := fmt.Sprintf("%s set %d", name, fi)
		checkBitsSlice(t, tag+" Received", evS.Received(filters), evR.Received(filters))
		checkBitsSlice(t, tag+" Suffix", evS.Suffix(filters), evR.Suffix(filters))
		checkBitsSlice(t, tag+" Impacts", evS.Impacts(filters), evR.Impacts(filters))
		if !eqBits(evS.phi(filters), evR.phi(filters)) {
			t.Fatalf("%s phi: %v != %v", tag, evS.phi(filters), evR.phi(filters))
		}
		sv, sg := evS.ArgmaxImpact(filters, filters)
		rv, rg := evR.ArgmaxImpact(filters, filters)
		if sv != rv || !eqBits(sg, rg) {
			t.Fatalf("%s ArgmaxImpact: (%d, %v) != (%d, %v)", tag, sv, sg, rv, rg)
		}
		if got, want := bgS.PhiBig(filters), bgR.PhiBig(filters); got.Cmp(want) != 0 {
			t.Fatalf("%s PhiBig: %v != %v", tag, got, want)
		}
		checkBitsSlice(t, tag+" big Impacts", bgS.Impacts(filters), bgR.Impacts(filters))
		for _, procs := range procsList {
			checkBitsSlice(t, tag+" ImpactsP", evS.ImpactsP(filters, procs), evR.ImpactsP(filters, procs))
			pv, pg := evS.ArgmaxImpactP(filters, filters, procs)
			if pv != rv || !eqBits(pg, rg) {
				t.Fatalf("%s ArgmaxImpactP(procs %d): (%d, %v) != (%d, %v)", tag, procs, pv, pg, rv, rg)
			}
			bv, bg := bgS.ArgmaxImpactP(filters, filters, procs)
			bv2, bg2 := bgR.ArgmaxImpactP(filters, filters, procs)
			if bv != bv2 || !eqBits(bg, bg2) {
				t.Fatalf("%s big ArgmaxImpactP(procs %d): (%d, %v) != (%d, %v)", tag, procs, bv, bg, bv2, bg2)
			}
		}
	}
}

func randomBatch(rng *rand.Rand, d *testDyn) testBatch {
	var b testBatch
	if rng.Intn(3) == 0 {
		b.addNodes = 1 + rng.Intn(3)
	}
	total := d.N() + b.addNodes
	for i := 0; i < 2+rng.Intn(6); i++ {
		u, v := rng.Intn(total), rng.Intn(total)
		if u == v {
			continue
		}
		if u > v {
			u, v = v, u
		}
		b.add = append(b.add, [2]int{u, v})
	}
	var edges [][2]int
	for u, row := range d.out {
		for _, v := range row {
			edges = append(edges, [2]int{u, v})
		}
	}
	for i := 0; i < rng.Intn(4) && len(edges) > 0; i++ {
		b.remove = append(b.remove, edges[rng.Intn(len(edges))])
	}
	return b
}

// TestPlanSpliceGolden drives a Splicer through a long random mutation
// sequence (edge churn + node growth) and asserts after every batch that
// the repaired plan is array-identical to a from-scratch NewModel plan and
// that every engine observable over it is bit-identical, float and big,
// serial and parallel.
func TestPlanSpliceGolden(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	d := newTestDyn(140)
	for i := 0; i < 320; i++ {
		u, v := rng.Intn(140), rng.Intn(140)
		if u > v {
			u, v = v, u
		}
		d.addEdge(u, v)
	}
	s := NewSplicer(d, nil, SpliceOptions{})
	plansEqual(t, "initial", s.Plan(), d.model(t).Plan())
	arena := s.Plan().arena

	for round := 0; round < 16; round++ {
		b := randomBatch(rng, d)
		df, db := d.apply(b)
		p, st := s.Apply(df, db, b.addNodes)
		name := fmt.Sprintf("round %d (reason=%q)", round, st.Reason)
		mRef := d.model(t)
		checkPlanInvariants(t, mRef)
		plansEqual(t, name, p, mRef.Plan())
		if p.arena != arena {
			t.Fatalf("%s: scratch arena not shared across the plan lineage", name)
		}
		if st.Spliced || st.Reason != "batch" {
			t.Fatalf("%s: repair stats = %+v, want a batch rebuild", name, st)
		}
		checkSpliceObservables(t, name, p, mRef)
	}
}

// TestSplicerAdoptAndRebuild pins NewSplicer's plan adoption (the
// overlay hands over an uploaded model's already built plan) and the
// rebuild of a view that mutated without Apply being told.
func TestSplicerAdoptAndRebuild(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	d := newTestDyn(80)
	for i := 0; i < 180; i++ {
		u, v := rng.Intn(80), rng.Intn(80)
		if u > v {
			u, v = v, u
		}
		d.addEdge(u, v)
	}
	mRef := d.model(t)
	adopted := mRef.Plan()
	s := NewSplicer(d, adopted, SpliceOptions{})
	if s.Plan() != adopted {
		t.Fatal("NewSplicer did not adopt the compatible plan")
	}

	// A batch applied on top of the adopted plan repairs to the canonical
	// result.
	b := randomBatch(rng, d)
	df, db := d.apply(b)
	p, _ := s.Apply(df, db, b.addNodes)
	plansEqual(t, "after adopt", p, d.model(t).Plan())
	if p.arena != adopted.arena {
		t.Fatal("repaired plan must keep the adopted plan's arena")
	}

	// Apply reads the view, not the batch description: mutating the view
	// behind the splicer's back, edges and node growth alike, still yields
	// the canonical plan.
	d.apply(testBatch{addNodes: 1, add: [][2]int{{0, 79}, {1, 78}}})
	p, _ = s.Apply(nil, nil, 0)
	plansEqual(t, "desync rebuild", p, d.model(t).Plan())
}

// FuzzPlanSplice feeds random DAGs plus random mutation batches through
// the Splicer and asserts its rebuilt plan is array-identical to a
// from-scratch NewModel plan after every batch, with bit-identical float
// phi/impacts over a model on that plan.
func FuzzPlanSplice(f *testing.F) {
	f.Add(uint8(6), []byte{0, 1, 1, 2, 2, 3}, []byte{0, 0, 3, 1, 1, 4, 2, 0, 0})
	f.Add(uint8(9), []byte{0, 4, 4, 8, 1, 5}, []byte{2, 3, 0, 0, 1, 2, 1, 0, 4})
	f.Add(uint8(2), []byte{}, []byte{2, 0, 0, 2, 1, 1, 0, 0, 1})
	f.Fuzz(func(t *testing.T, nRaw uint8, raw, muts []byte) {
		n := int(nRaw%48) + 2
		d := newTestDyn(n)
		for i := 0; i+1 < len(raw) && i < 192; i += 2 {
			u, v := int(raw[i])%n, int(raw[i+1])%n
			if u > v {
				u, v = v, u
			}
			d.addEdge(u, v)
		}
		s := NewSplicer(d, nil, SpliceOptions{})
		plansEqual(t, "initial", s.Plan(), d.model(t).Plan())

		// Decode mutation batches: 3 bytes per op, up to 4 ops per batch.
		for off := 0; off+2 < len(muts) && off < 96; {
			var b testBatch
			for k := 0; k < 4 && off+2 < len(muts); k++ {
				op, x, y := muts[off], int(muts[off+1]), int(muts[off+2])
				off += 3
				total := d.N() + b.addNodes
				switch op % 3 {
				case 0:
					u, v := x%total, y%total
					if u > v {
						u, v = v, u
					}
					if u != v {
						b.add = append(b.add, [2]int{u, v})
					}
				case 1:
					u, v := x%total, y%total
					if u > v {
						u, v = v, u
					}
					if u != v {
						b.remove = append(b.remove, [2]int{u, v})
					}
				case 2:
					nv := d.N() + b.addNodes
					b.addNodes++
					b.add = append(b.add, [2]int{x % nv, nv})
				}
			}
			df, db := d.apply(b)
			p, _ := s.Apply(df, db, b.addNodes)
			mRef := d.model(t)
			checkPlanInvariants(t, mRef)
			plansEqual(t, "repaired", p, mRef.Plan())

			mSpl, err := NewModelFromPlan(p, nil)
			if err != nil {
				t.Fatal(err)
			}
			evS, evR := NewFloat(mSpl), NewFloat(mRef)
			filters := make([]bool, d.N())
			for v := range filters {
				filters[v] = !mRef.IsSource(v) && v%3 == 0
			}
			for _, fs := range [][]bool{nil, filters} {
				if !eqBits(evS.phi(fs), evR.phi(fs)) {
					t.Fatalf("phi mismatch: %v vs %v", evS.phi(fs), evR.phi(fs))
				}
				got, want := evS.Impacts(fs), evR.Impacts(fs)
				for v := range got {
					if !eqBits(got[v], want[v]) {
						t.Fatalf("impacts[%d]: %v vs %v", v, got[v], want[v])
					}
				}
			}
		}
	})
}
