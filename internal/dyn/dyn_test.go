package dyn

import (
	"errors"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/flow"
	"repro/internal/gen"
	"repro/internal/graph"
)

// diamond is the 5-node diamond with junction 3 and sink 4.
func diamond(t *testing.T) *Dynamic {
	t.Helper()
	g := graph.MustFromEdges(5, [][2]int{{0, 1}, {0, 2}, {1, 3}, {2, 3}, {3, 4}})
	d, err := FromDigraph(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// edgeSet returns the current edges as a sorted slice.
func edgeSet(d *Dynamic) [][2]int {
	var es [][2]int
	for u := 0; u < d.N(); u++ {
		for _, v := range d.Out(u) {
			es = append(es, [2]int{u, v})
		}
	}
	sort.Slice(es, func(i, j int) bool {
		if es[i][0] != es[j][0] {
			return es[i][0] < es[j][0]
		}
		return es[i][1] < es[j][1]
	})
	return es
}

func TestFromDigraphRejectsCyclic(t *testing.T) {
	b := graph.NewBuilder(2)
	b.AddEdge(0, 1)
	b.AddEdge(1, 0)
	g := b.MustBuild()
	if _, err := FromDigraph(g, nil); !errors.Is(err, graph.ErrCyclic) {
		t.Fatalf("err = %v, want ErrCyclic", err)
	}
}

func TestApplyInsertAndRemove(t *testing.T) {
	d := diamond(t)
	res, err := d.Apply(Batch{Add: [][2]int{{1, 4}, {0, 3}}, Remove: [][2]int{{2, 3}}})
	if err != nil {
		t.Fatal(err)
	}
	if res.EdgesAdded != 2 || res.EdgesRemoved != 1 || res.NodesAdded != 0 {
		t.Errorf("result = %+v", res)
	}
	if !d.HasEdge(1, 4) || !d.HasEdge(0, 3) || d.HasEdge(2, 3) {
		t.Errorf("edge set wrong: %v", edgeSet(d))
	}
	if d.M() != 6 {
		t.Errorf("M = %d, want 6", d.M())
	}
	if got, want := res.DirtyFwd, []int{3, 4}; !reflect.DeepEqual(got, want) {
		t.Errorf("DirtyFwd = %v, want %v", got, want)
	}
	if got, want := res.DirtyBwd, []int{0, 1, 2}; !reflect.DeepEqual(got, want) {
		t.Errorf("DirtyBwd = %v, want %v", got, want)
	}
	assertValidOrder(t, d)
}

func TestApplyAddNodes(t *testing.T) {
	d := diamond(t)
	res, err := d.Apply(Batch{AddNodes: 2, Add: [][2]int{{4, 5}, {5, 6}}})
	if err != nil {
		t.Fatal(err)
	}
	if res.FirstNewNode != 5 || d.N() != 7 {
		t.Fatalf("FirstNewNode = %d, N = %d", res.FirstNewNode, d.N())
	}
	if !d.HasEdge(4, 5) || !d.HasEdge(5, 6) {
		t.Errorf("edges to new nodes missing")
	}
	assertValidOrder(t, d)
}

// TestCycleRejection is the satellite's table: dyn must refuse back-edges
// and leave the topological order and edge set exactly as they were.
func TestCycleRejection(t *testing.T) {
	cases := []struct {
		name  string
		batch Batch
	}{
		{"direct back-edge", Batch{Add: [][2]int{{4, 3}}}},
		{"two-hop back-edge", Batch{Add: [][2]int{{4, 1}}}},
		{"junction back-edge", Batch{Add: [][2]int{{3, 1}}}},
		{"valid then cyclic", Batch{Add: [][2]int{{1, 2}, {4, 1}}}},
		{"cycle via batch pair", Batch{Add: [][2]int{{1, 2}, {2, 1}}}},
		// The removal of (1,3) legalizes (4,1); (1,4) then closes the cycle,
		// so the whole batch — removal, accepted edge and its Pearce–Kelly
		// reorder — must roll back.
		{"removal cannot save cycle", Batch{Remove: [][2]int{{1, 3}}, Add: [][2]int{{4, 1}, {1, 4}}}},
		{"with node growth", Batch{AddNodes: 1, Add: [][2]int{{4, 5}, {5, 3}}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			d := diamond(t)
			wantEdges := edgeSet(d)
			wantOrd := d.Order()
			wantGen := d.Gen()
			_, err := d.Apply(tc.batch)
			if !errors.Is(err, ErrCycle) {
				t.Fatalf("err = %v, want ErrCycle", err)
			}
			var ce *CycleError
			if !errors.As(err, &ce) {
				t.Fatalf("err %v does not carry a *CycleError", err)
			}
			if got := edgeSet(d); !reflect.DeepEqual(got, wantEdges) {
				t.Errorf("edges mutated after rejection: %v, want %v", got, wantEdges)
			}
			if got := d.Order(); !reflect.DeepEqual(got, wantOrd) {
				t.Errorf("topo order mutated after rejection: %v, want %v", got, wantOrd)
			}
			if d.Gen() != wantGen {
				t.Errorf("generation advanced after rejection")
			}
			if d.N() != 5 {
				t.Errorf("node growth survived rejection: N = %d", d.N())
			}
		})
	}
}

func TestApplyValidationErrors(t *testing.T) {
	cases := []struct {
		name  string
		batch Batch
		want  error
	}{
		{"self-loop", Batch{Add: [][2]int{{2, 2}}}, ErrBadNode},
		{"add out of range", Batch{Add: [][2]int{{0, 9}}}, ErrBadNode},
		{"remove out of range", Batch{Remove: [][2]int{{-1, 2}}}, ErrBadNode},
		{"negative growth", Batch{AddNodes: -1}, ErrBadNode},
		{"duplicate add", Batch{Add: [][2]int{{0, 3}, {0, 3}}}, ErrEdgeExists},
		{"existing add", Batch{Add: [][2]int{{0, 1}}}, ErrEdgeExists},
		{"missing remove", Batch{Remove: [][2]int{{0, 4}}}, ErrEdgeMissing},
		{"into pinned source", Batch{Add: [][2]int{{4, 0}}}, ErrPinnedSource},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			d := diamond(t)
			wantEdges := edgeSet(d)
			wantOrd := d.Order()
			if _, err := d.Apply(tc.batch); !errors.Is(err, tc.want) {
				t.Fatalf("err = %v, want %v", err, tc.want)
			}
			if got := edgeSet(d); !reflect.DeepEqual(got, wantEdges) {
				t.Errorf("edges mutated after rejection")
			}
			if got := d.Order(); !reflect.DeepEqual(got, wantOrd) {
				t.Errorf("order mutated after rejection")
			}
		})
	}
}

// assertValidOrder checks ord is a permutation consistent with every edge.
func assertValidOrder(t *testing.T, d *Dynamic) {
	t.Helper()
	seen := make([]bool, d.N())
	for v := 0; v < d.N(); v++ {
		o := d.OrdOf(v)
		if o < 0 || o >= d.N() || seen[o] {
			t.Fatalf("ord is not a permutation: node %d has position %d", v, o)
		}
		seen[o] = true
	}
	for u := 0; u < d.N(); u++ {
		for _, v := range d.Out(u) {
			if d.OrdOf(u) >= d.OrdOf(v) {
				t.Fatalf("order violates edge (%d,%d): %d ≥ %d", u, v, d.OrdOf(u), d.OrdOf(v))
			}
		}
	}
}

// TestRandomChurnKeepsOrderValid hammers Apply with random single-edge
// batches — some cyclic, some not — and checks the maintained order and
// snapshot stay consistent throughout.
func TestRandomChurnKeepsOrderValid(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	b := graph.NewBuilder(40)
	for i := 0; i < 39; i++ {
		b.AddEdge(i, i+1)
	}
	d, err := FromDigraph(b.MustBuild(), []int{0})
	if err != nil {
		t.Fatal(err)
	}
	accepted, rejected := 0, 0
	for i := 0; i < 500; i++ {
		u, v := rng.Intn(40), rng.Intn(40)
		if u == v || v == 0 {
			continue
		}
		if d.HasEdge(u, v) {
			if _, err := d.Apply(Batch{Remove: [][2]int{{u, v}}}); err != nil {
				t.Fatalf("remove (%d,%d): %v", u, v, err)
			}
		} else if _, err := d.Apply(Batch{Add: [][2]int{{u, v}}}); err != nil {
			if !errors.Is(err, ErrCycle) {
				t.Fatalf("add (%d,%d): %v", u, v, err)
			}
			rejected++
		} else {
			accepted++
		}
		assertValidOrder(t, d)
	}
	if accepted == 0 || rejected == 0 {
		t.Fatalf("churn not exercising both paths: %d accepted, %d rejected", accepted, rejected)
	}
	// The snapshot must agree with the overlay and be a DAG.
	snap := d.Snapshot()
	if snap.M() != d.M() || !snap.IsDAG() {
		t.Fatalf("snapshot disagrees: M %d vs %d, DAG %v", snap.M(), d.M(), snap.IsDAG())
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	d := diamond(t)
	if _, err := d.Apply(Batch{Add: [][2]int{{1, 4}}}); err != nil {
		t.Fatal(err)
	}
	snap := d.Snapshot()
	if snap.N() != 5 || snap.M() != 6 || !snap.HasEdge(1, 4) {
		t.Fatalf("snapshot = %d nodes %d edges", snap.N(), snap.M())
	}
}

// TestDynamicModelPerGeneration pins the overlay's one-model-per-version
// contract: Model returns the same model while Gen is unchanged (a
// rejected batch included), a fresh one after every committed batch whose
// observables are bit-identical to a from-scratch model over Snapshot,
// and FromModel adopts a deterministic model as generation 0's.
func TestDynamicModelPerGeneration(t *testing.T) {
	g, root := gen.RandomDAG(300, 0.02, 21)
	m := flow.MustModel(g, []int{root})
	d, err := FromModel(m)
	if err != nil {
		t.Fatal(err)
	}
	if d.Model() != m {
		t.Fatal("FromModel did not adopt the model as generation 0's")
	}
	weighted := m.WithWeights(func(u, v int) float64 { return 0.5 })
	w, err := FromModel(weighted)
	if err != nil {
		t.Fatal(err)
	}
	if wm := w.Model(); wm == weighted || wm.Plan().Weighted() {
		t.Fatal("FromModel adopted a weighted model instead of rebuilding")
	}

	bits := func(xs []float64) []uint64 {
		out := make([]uint64, len(xs))
		for i, x := range xs {
			out[i] = math.Float64bits(x)
		}
		return out
	}
	prev := d.Model()
	for i, mu := range gen.TwitterChurn(g, 6, 0.02, 22) {
		b := Batch{Add: mu.Add, Remove: mu.Remove}
		if i == 2 {
			b.AddNodes = 3
			b.Add = append(b.Add, [2]int{root, d.N()}, [2]int{d.N(), d.N() + 2})
		}
		gen0 := d.Gen()
		// A cycle-creating batch is rejected and leaves the version alone.
		var back [2]int
		for v := 0; v < d.N(); v++ {
			if out := d.Out(v); len(out) > 0 {
				back = [2]int{out[0], v}
				break
			}
		}
		if _, err := d.Apply(Batch{Add: [][2]int{back}}); !errors.Is(err, ErrCycle) {
			t.Fatalf("batch %d: back edge %v: err = %v, want ErrCycle", i, back, err)
		}
		if d.Gen() != gen0 || d.Model() != prev {
			t.Fatalf("batch %d: a rejected batch changed the version's model", i)
		}

		if _, err := d.Apply(b); err != nil {
			t.Fatalf("batch %d: %v", i, err)
		}
		cur := d.Model()
		if cur == prev || d.Model() != cur {
			t.Fatalf("batch %d: want one fresh model per committed batch", i)
		}
		prev = cur

		ref := flow.MustModel(d.Snapshot(), d.Sources())
		got, want := flow.NewFloat(cur), flow.NewFloat(ref)
		if math.Float64bits(got.Phi(nil)) != math.Float64bits(want.Phi(nil)) {
			t.Fatalf("batch %d: Φ(∅) = %v, from scratch %v", i, got.Phi(nil), want.Phi(nil))
		}
		mask := flow.MaskOf(cur.N(), []int{1, 5, 17, 40})
		if gp, wp := got.Phi(mask), want.Phi(mask); math.Float64bits(gp) != math.Float64bits(wp) {
			t.Fatalf("batch %d: Φ(A) = %v, from scratch %v", i, gp, wp)
		}
		if gi, wi := bits(got.Impacts(mask)), bits(want.Impacts(mask)); !reflect.DeepEqual(gi, wi) {
			t.Fatalf("batch %d: impacts differ from a from-scratch model", i)
		}
	}
}
