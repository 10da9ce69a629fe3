package flow

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/graph"
)

// mutableDAG is a minimal DynDigraph for tests: adjacency slices plus a
// topological order maintained by full recomputation (the tests exercise
// the engine, not the overlay; acyclic and dyn test the Pearce–Kelly order).
type mutableDAG struct {
	out, in [][]int
	ord     []int
}

func newMutableDAG(g *graph.Digraph) *mutableDAG {
	rank, err := g.TopoRank()
	if err != nil {
		panic(err)
	}
	d := &mutableDAG{out: make([][]int, g.N()), in: make([][]int, g.N()), ord: rank}
	for v := 0; v < g.N(); v++ {
		d.out[v] = append([]int(nil), g.Out(v)...)
		d.in[v] = append([]int(nil), g.In(v)...)
	}
	return d
}

// newIncremental builds an Incremental with no filters over a fresh plan of d.
func newIncremental(d DynDigraph, sources []int) *Incremental {
	return NewIncrementalWith(d, sources, nil, NewSplicer(d, nil, SpliceOptions{}).Plan())
}

func (d *mutableDAG) N() int                             { return len(d.ord) }
func (d *mutableDAG) Rows() (in, out [][]int, ord []int) { return d.in, d.out, d.ord }

func (d *mutableDAG) addEdge(u, v int) {
	d.out[u] = append(d.out[u], v)
	d.in[v] = append(d.in[v], u)
	d.retopo()
}

func (d *mutableDAG) removeEdge(u, v int) {
	drop := func(s []int, x int) []int {
		for i, w := range s {
			if w == x {
				return append(s[:i], s[i+1:]...)
			}
		}
		panic("edge missing")
	}
	d.out[u] = drop(d.out[u], v)
	d.in[v] = drop(d.in[v], u)
}

func (d *mutableDAG) hasEdge(u, v int) bool {
	for _, w := range d.out[u] {
		if w == v {
			return true
		}
	}
	return false
}

func (d *mutableDAG) hasPath(u, v int) bool {
	if u == v {
		return true
	}
	seen := map[int]bool{u: true}
	stack := []int{u}
	for len(stack) > 0 {
		x := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, w := range d.out[x] {
			if w == v {
				return true
			}
			if !seen[w] {
				seen[w] = true
				stack = append(stack, w)
			}
		}
	}
	return false
}

// retopo recomputes the topological order from scratch (Kahn).
func (d *mutableDAG) retopo() {
	n := len(d.ord)
	indeg := make([]int, n)
	for v := 0; v < n; v++ {
		indeg[v] = len(d.in[v])
	}
	var ready []int
	for v := 0; v < n; v++ {
		if indeg[v] == 0 {
			ready = append(ready, v)
		}
	}
	pos := 0
	for len(ready) > 0 {
		v := ready[0]
		ready = ready[1:]
		d.ord[v] = pos
		pos++
		for _, w := range d.out[v] {
			if indeg[w]--; indeg[w] == 0 {
				ready = append(ready, w)
			}
		}
	}
	if pos != n {
		panic("mutableDAG became cyclic")
	}
}

// snapshot materializes the current adjacency for the reference engine.
func (d *mutableDAG) snapshot() *graph.Digraph {
	b := graph.NewBuilder(len(d.ord))
	for u := range d.out {
		for _, v := range d.out[u] {
			b.AddEdge(u, v)
		}
	}
	return b.MustBuild()
}

// assertAgrees compares the incremental state against a fresh FloatEngine
// over a snapshot of the same graph and filter set.
func assertAgrees(t *testing.T, inc *Incremental, d *mutableDAG, sources []int, filters []bool) {
	t.Helper()
	m, err := NewModel(d.snapshot(), sources)
	if err != nil {
		t.Fatal(err)
	}
	ref := NewFloat(m)
	rec := ref.Received(filters)
	suf := ref.Suffix(filters)
	const tol = 1e-9
	for v := 0; v < d.N(); v++ {
		if math.Abs(inc.rec[v]-rec[v]) > tol*(1+math.Abs(rec[v])) {
			t.Fatalf("rec[%d] = %v, reference %v", v, inc.rec[v], rec[v])
		}
		if math.Abs(inc.suf[v]-suf[v]) > tol*(1+math.Abs(suf[v])) {
			t.Fatalf("suf[%d] = %v, reference %v", v, inc.suf[v], suf[v])
		}
	}
	if phi := ref.Phi(filters); math.Abs(inc.Phi()-phi) > tol*(1+math.Abs(phi)) {
		t.Fatalf("Phi = %v, reference %v", inc.Phi(), phi)
	}
}

func TestIncrementalMatchesFloatUnderChurn(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		rng := rand.New(rand.NewSource(seed))
		// A random layered-ish DAG with a super-source shape: node 0
		// reaches everything initially.
		n := 120
		b := graph.NewBuilder(n)
		for v := 1; v < n; v++ {
			b.AddEdge(rng.Intn(v), v)
		}
		for i := 0; i < 2*n; i++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if u < v {
				b.AddEdge(u, v)
			}
		}
		g := b.MustBuild()
		d := newMutableDAG(g)
		sources := []int{0}
		inc := newIncremental(d, sources)
		filters := make([]bool, n)

		for step := 0; step < 300; step++ {
			switch rng.Intn(4) {
			case 0: // toggle a filter
				v := 1 + rng.Intn(n-1)
				filters[v] = !filters[v]
				inc.SetFilter(v, filters[v])
			case 1: // remove a random edge
				u := rng.Intn(n)
				if len(d.out[u]) == 0 {
					continue
				}
				v := d.out[u][rng.Intn(len(d.out[u]))]
				if len(d.in[v]) == 1 {
					continue // keep reachability from the source
				}
				d.removeEdge(u, v)
				inc.Update([]int{v}, []int{u})
			default: // add a random forward edge
				u, v := rng.Intn(n), rng.Intn(n)
				if u == v || v == 0 || d.hasEdge(u, v) || d.hasPath(v, u) {
					continue
				}
				d.addEdge(u, v)
				inc.Update([]int{v}, []int{u})
			}
			if step%23 == 0 {
				assertAgrees(t, inc, d, sources, filters)
			}
		}
		assertAgrees(t, inc, d, sources, filters)
		inc.check(1e-9)
	}
}

func TestIncrementalDirtyRegionIsLocal(t *testing.T) {
	// A long chain with a side branch: mutating near the sink must not
	// touch the whole graph.
	n := 1000
	b := graph.NewBuilder(n)
	for v := 0; v < n-1; v++ {
		b.AddEdge(v, v+1)
	}
	g := b.MustBuild()
	d := newMutableDAG(g)
	inc := newIncremental(d, []int{0})
	before := inc.Stats()

	// An edge (n−5, n−2) near the sink: the forward cone is the last few
	// nodes, the backward cone ends immediately because suffix values
	// upstream do change... measure and bound rather than guess.
	u, v := n-5, n-2
	d.addEdge(u, v)
	inc.Update([]int{v}, []int{u})
	after := inc.Stats()
	fwd := after.ForwardVisits - before.ForwardVisits
	if fwd > 10 {
		t.Errorf("forward visits = %d for a sink-local mutation, want ≤ 10", fwd)
	}
	assertAgrees(t, inc, d, []int{0}, nil)
}

func TestIncrementalGrow(t *testing.T) {
	g := graph.MustFromEdges(3, [][2]int{{0, 1}, {1, 2}})
	d := newMutableDAG(g)
	inc := newIncremental(d, []int{0})

	// Grow the view by two nodes and wire 2→3→4.
	d.out = append(d.out, nil, nil)
	d.in = append(d.in, nil, nil)
	d.ord = append(d.ord, 3, 4)
	inc.Grow()
	d.addEdge(2, 3)
	d.addEdge(3, 4)
	inc.Update([]int{3, 4}, []int{2, 3})
	assertAgrees(t, inc, d, []int{0}, nil)
	if inc.rec[4] != 1 {
		t.Errorf("rec[4] = %v, want 1", inc.rec[4])
	}
}

func TestIncrementalGainMatchesImpacts(t *testing.T) {
	g := graph.MustFromEdges(5, [][2]int{{0, 1}, {0, 2}, {1, 3}, {2, 3}, {3, 4}})
	d := newMutableDAG(g)
	inc := newIncremental(d, []int{0})
	m, err := NewModel(g, []int{0})
	if err != nil {
		t.Fatal(err)
	}
	want := NewFloat(m).Impacts(nil)
	for v := 0; v < g.N(); v++ {
		if math.Abs(inc.Gain(v)-want[v]) > 1e-12 {
			t.Errorf("Gain(%d) = %v, want %v", v, inc.Gain(v), want[v])
		}
	}
	if v, gain := inc.ArgmaxGain(); v != 3 || gain != want[3] {
		t.Errorf("ArgmaxGain = (%d, %v), want (3, %v)", v, gain, want[3])
	}
}

// check panics unless the engine state matches a from-scratch pass; test
// hook.
func (e *Incremental) check(tol float64) {
	in, out, ord := e.g.Rows()
	n := len(ord)
	order := make([]int, n)
	for v := 0; v < n; v++ {
		order[ord[v]] = v
	}
	fresh := &Incremental{g: e.g, isSrc: e.isSrc, filters: e.filters}
	fresh.alloc(n)
	for _, v := range order {
		fresh.recompute(v, in)
	}
	for i := n - 1; i >= 0; i-- {
		fresh.recomputeSuf(order[i], out)
	}
	for v := 0; v < n; v++ {
		if diff(e.rec[v], fresh.rec[v]) > tol || diff(e.emit[v], fresh.emit[v]) > tol || diff(e.suf[v], fresh.suf[v]) > tol {
			panic(fmt.Sprintf("flow: incremental state diverged at node %d: rec %v vs %v, emit %v vs %v, suf %v vs %v",
				v, e.rec[v], fresh.rec[v], e.emit[v], fresh.emit[v], e.suf[v], fresh.suf[v]))
		}
	}
}

func diff(a, b float64) float64 {
	if a > b {
		return a - b
	}
	return b - a
}
