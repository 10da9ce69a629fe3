package flow

import (
	"fmt"

	"repro/internal/graph"
)

// Graph coarsening for multilevel placement: contract a Model into a
// quotient graph small enough that CELF's V-sized sweeps become cheap,
// while Φ on the quotient equals Φ on the original at every matching
// filter set.
//
// The quotient is a plain unweighted DAG over SUPERNODES plus one integer
// per supernode — its multiplicity weight w(u), the number of contracted
// receivers the supernode stands for beyond its head. Engines evaluate
// quotient models through NewCoarseModel's semantics:
//
//	Φ_q = Σ_u rec(u) + w(u)·emit(u)        suffix_q(u) = w(u) + Σ edge terms
//
// Two lossless contraction rules, applied until neither fires:
//
//   - FOLD: a non-source supernode whose live external in-degree —
//     counted with edge multiplicity — is exactly 1 folds into the
//     supernode feeding it: w(parent) += 1 + w(child), and the child's
//     external out-edges become the parent's. This contracts linear
//     chains AND single-parent fan-out trees in one sweep, because every
//     member of a folded group provably receives exactly emit(head)
//     (each member's sole in-edge comes from inside the group, forming a
//     tree of single-in relays rooted at the head).
//   - SINK ABSORPTION: a memberless (w = 0) non-source supernode with no
//     live out-edges is dissolved into pure weight: each live in-edge
//     (p, t) adds 1 to w(find(p)) — t received one copy of
//     emit(find(p))'s head per edge, and its gain is identically 0
//     (suffix 0), so no candidate is lost. Processed in reverse
//     topological order so freshly exposed sinks cascade in one sweep.
//     Supernodes WITH members are never absorbed: their gain (rec−1)·w
//     is real and they must stay placeable.
//
// Everything is deterministic: passes sweep ascending node/edge order or
// the model's topological order, and quotient ids are assigned ascending
// by head original id — which preserves argmax tie-breaking (quotient id
// order == head id order) so quotient CELF picks exactly the original's
// filters.

// CoarsenOptions configures Coarsen. It has no fields: contraction always
// runs the lossless rules to their fixpoint.
type CoarsenOptions struct{}

// CoarsenStats reports what a contraction did.
type CoarsenStats struct {
	NodesBefore   int `json:"nodes_before"`
	NodesAfter    int `json:"nodes_after"`
	EdgesBefore   int `json:"edges_before"`
	EdgesAfter    int `json:"edges_after"`
	Folded        int `json:"folded"`
	SinksAbsorbed int `json:"sinks_absorbed"`
}

// CoarsenMap is the reversible record of a contraction: which original
// nodes each supernode stands for, and where each original node went.
type CoarsenMap struct {
	n     int
	qn    int
	heads []int32 // quotient id -> original head id, ascending
	// origTo maps original id -> quotient id of its supernode, or -1 for
	// absorbed nodes (dissolved into a parent's weight).
	origTo []int32
	// fiberOff/fiberMem: CSR of each supernode's original members
	// (ascending, head included).
	fiberOff []int32
	fiberMem []int32
	absorbed []int32 // original ids dissolved by sink absorption, ascending
}

// N returns the original node count.
func (cm *CoarsenMap) N() int { return cm.n }

// QN returns the quotient node count.
func (cm *CoarsenMap) QN() int { return cm.qn }

// Head returns the original id of quotient node q's head — the one member
// external in-edges target, and the projection of a filter placed at q.
func (cm *CoarsenMap) Head(q int) int { return int(cm.heads[q]) }

// Quotient returns the quotient node original node v belongs to, or -1
// when v was absorbed (its reception is accounted as a parent's weight).
func (cm *CoarsenMap) Quotient(v int) int { return int(cm.origTo[v]) }

// Fiber returns quotient node q's original members in ascending id order
// (the head is always among them). The slice aliases internal storage.
func (cm *CoarsenMap) Fiber(q int) []int32 {
	return cm.fiberMem[cm.fiberOff[q]:cm.fiberOff[q+1]]
}

// Absorbed returns the original ids dissolved by sink absorption,
// ascending. The slice aliases internal storage.
func (cm *CoarsenMap) Absorbed() []int32 { return cm.absorbed }

// ProjectFilters maps a quotient placement back to original node ids
// (each quotient pick projects to its head), preserving pick order.
func (cm *CoarsenMap) ProjectFilters(qFilters []int) []int {
	out := make([]int, len(qFilters))
	for i, q := range qFilters {
		out[i] = int(cm.heads[q])
	}
	return out
}

// coarsener is the working state of one contraction, all on ORIGINAL ids.
type coarsener struct {
	m     *Model
	n     int
	edges [][2]int32 // ascending (u,v): the Digraph's out-CSR order
	dead  []bool     // edge ids no longer part of the quotient
	// inIdx CSR: in-edge ids of node v, sorted by (v, u).
	inIdxOff []int32
	inIdx    []int32

	parent   []int32 // union-find, path-halving; root == supernode head
	w        []int64 // per-root multiplicity weight
	absorbed []bool  // per-root: dissolved into pure weight

	// Per-pass scratch, reset by each pass that uses it.
	cnt  []int32 // live in- or out-edge count per root
	aux  []int32 // sole in-edge source / id per root
	aux2 []int32

	stats CoarsenStats
}

// find returns the root (head) of v's supernode with path halving.
func (c *coarsener) find(v int32) int32 {
	p := c.parent
	for p[v] != v {
		p[v] = p[p[v]]
		v = p[v]
	}
	return v
}

// newCoarsener snapshots the model's edge set in deterministic order and
// builds the in-edge index.
func newCoarsener(m *Model) *coarsener {
	g := m.Graph()
	n := g.N()
	c := &coarsener{m: m, n: n}
	c.edges = make([][2]int32, 0, g.M())
	for u := 0; u < n; u++ {
		for _, v := range g.Out(u) {
			c.edges = append(c.edges, [2]int32{int32(u), int32(v)})
		}
	}
	mm := len(c.edges)
	c.dead = make([]bool, mm)
	// Counting sort of edge ids by target: stable, so within a target the
	// ids stay ascending by source.
	c.inIdxOff = make([]int32, n+1)
	for _, e := range c.edges {
		c.inIdxOff[e[1]+1]++
	}
	for v := 1; v <= n; v++ {
		c.inIdxOff[v] += c.inIdxOff[v-1]
	}
	c.inIdx = make([]int32, mm)
	next := append([]int32(nil), c.inIdxOff[:n]...)
	for id, e := range c.edges {
		c.inIdx[next[e[1]]] = int32(id)
		next[e[1]]++
	}
	c.parent = make([]int32, n)
	for v := range c.parent {
		c.parent[v] = int32(v)
	}
	c.w = make([]int64, n)
	c.absorbed = make([]bool, n)
	c.cnt = make([]int32, n)
	c.aux = make([]int32, n)
	c.aux2 = make([]int32, n)
	c.stats = CoarsenStats{NodesBefore: n, EdgesBefore: mm}
	return c
}

// liveRoot reports whether v is the head of a live supernode.
func (c *coarsener) liveRoot(v int32) bool {
	return c.parent[v] == v && !c.absorbed[v]
}

// foldPass contracts every supernode whose live external in-degree
// (with multiplicity) is exactly 1 into its feeder, sweeping heads in
// topological order so chains of foldable groups collapse in one pass.
func (c *coarsener) foldPass() int {
	cnt, src, eid := c.cnt, c.aux, c.aux2
	for i := range cnt {
		cnt[i] = 0
	}
	for id, e := range c.edges {
		if c.dead[id] {
			continue
		}
		ru, rv := c.find(e[0]), c.find(e[1])
		if ru == rv {
			c.dead[id] = true // became internal; never live again
			continue
		}
		cnt[rv]++
		src[rv] = ru
		eid[rv] = int32(id)
	}
	changed := 0
	for _, v := range c.m.Topo() {
		r := int32(v)
		if !c.liveRoot(r) || c.m.IsSource(v) || cnt[r] != 1 {
			continue
		}
		p := c.find(src[r]) // feeder may itself have folded this sweep
		if p == r {
			continue // defensive; cannot happen on a DAG
		}
		c.parent[r] = p
		c.w[p] += 1 + c.w[r]
		c.dead[eid[r]] = true
		changed++
	}
	c.stats.Folded += changed
	return changed
}

// sinkPass dissolves memberless pure sinks into their feeders' weights,
// reverse-topological so cascades resolve in one sweep.
func (c *coarsener) sinkPass() int {
	out := c.cnt
	for i := range out {
		out[i] = 0
	}
	for id, e := range c.edges {
		if !c.dead[id] && c.find(e[0]) != c.find(e[1]) {
			out[c.find(e[0])]++
		}
	}
	changed := 0
	topo := c.m.Topo()
	for i := len(topo) - 1; i >= 0; i-- {
		r := int32(topo[i])
		if !c.liveRoot(r) || c.m.IsSource(int(r)) || out[r] != 0 || c.w[r] != 0 {
			continue
		}
		// w == 0 means r never acquired members, so its only in-edges are
		// its own original ones.
		c.absorbed[r] = true
		changed++
		for _, id := range c.inIdx[c.inIdxOff[r]:c.inIdxOff[r+1]] {
			if c.dead[id] {
				continue
			}
			p := c.find(c.edges[id][0])
			c.w[p]++
			c.dead[id] = true
			if out[p] > 0 {
				out[p]-- // may expose p as the next sink up the chain
			}
		}
	}
	c.stats.SinksAbsorbed += changed
	return changed
}

// Coarsen contracts m into a quotient model whose Φ, marginal gains and
// argmax are bit-identical to m's at every matching filter set. The
// returned model carries per-supernode multiplicity weights
// (NewCoarseModel semantics), the map records the contraction reversibly,
// and the stats say what fired. Weighted (probabilistic) models cannot be
// coarsened — the fold identity needs exact unit relays — and neither can
// a model that is already a quotient.
func Coarsen(m *Model, _ CoarsenOptions) (*Model, *CoarsenMap, CoarsenStats, error) {
	if m.Weighted() {
		return nil, nil, CoarsenStats{}, fmt.Errorf("flow: cannot coarsen a weighted model")
	}
	if m.Coarse() {
		return nil, nil, CoarsenStats{}, fmt.Errorf("flow: cannot coarsen an already-coarse model")
	}
	c := newCoarsener(m)
	// A fold can leave a memberless sink and an absorption can leave a
	// feeder foldable, so alternate the sweeps until neither fires.
	for c.foldPass()+c.sinkPass() > 0 {
	}
	qm, cm, err := c.buildQuotient()
	if err != nil {
		return nil, nil, CoarsenStats{}, err
	}
	c.stats.NodesAfter = cm.qn
	c.stats.EdgesAfter = qm.Graph().M()
	return qm, cm, c.stats, nil
}

// buildQuotient materializes the quotient model and the coarsen map from
// the union-find state. Quotient ids ascend with head original ids.
func (c *coarsener) buildQuotient() (*Model, *CoarsenMap, error) {
	n := c.n
	cm := &CoarsenMap{n: n, origTo: make([]int32, n)}
	qid := make([]int32, n)
	for v := range qid {
		qid[v] = -1
	}
	for v := int32(0); v < int32(n); v++ {
		if c.liveRoot(v) {
			qid[v] = int32(cm.qn)
			cm.heads = append(cm.heads, v)
			cm.qn++
		}
	}
	mul := make([]int64, cm.qn)
	for q, h := range cm.heads {
		mul[q] = c.w[h]
	}
	// Fibers: every non-absorbed node belongs to its root's supernode.
	// Two-pass counting sort keeps members ascending within each fiber.
	cm.fiberOff = make([]int32, cm.qn+1)
	for v := int32(0); v < int32(n); v++ {
		r := c.find(v)
		if c.absorbed[r] {
			cm.origTo[v] = -1
			cm.absorbed = append(cm.absorbed, v)
			continue
		}
		cm.origTo[v] = qid[r]
		cm.fiberOff[qid[r]+1]++
	}
	for q := 1; q <= cm.qn; q++ {
		cm.fiberOff[q] += cm.fiberOff[q-1]
	}
	cm.fiberMem = make([]int32, cm.fiberOff[cm.qn])
	next := append([]int32(nil), cm.fiberOff[:cm.qn]...)
	for v := int32(0); v < int32(n); v++ {
		if q := cm.origTo[v]; q >= 0 {
			cm.fiberMem[next[q]] = v
			next[q]++
		}
	}
	// Quotient edges: live external edges, translated to quotient ids.
	// Parallel edges are kept — they carry reception multiplicity (two
	// live edges from one feeder mean two copies received).
	b := graph.NewBuilder(cm.qn).AllowParallelEdges()
	for id, e := range c.edges {
		if c.dead[id] {
			continue
		}
		ru, rv := c.find(e[0]), c.find(e[1])
		if ru == rv || c.absorbed[ru] || c.absorbed[rv] {
			continue
		}
		b.AddEdge(int(qid[ru]), int(qid[rv]))
	}
	qg, err := b.Build()
	if err != nil {
		return nil, nil, fmt.Errorf("flow: quotient build: %w", err)
	}
	// Sources survive contraction untouched (in-degree 0 nodes never
	// fold or absorb), so they map 1:1 onto quotient ids.
	qsources := make([]int, len(c.m.Sources()))
	for i, s := range c.m.Sources() {
		q := qid[int32(s)]
		if q < 0 || int(cm.heads[q]) != s {
			return nil, nil, fmt.Errorf("flow: source %d lost by contraction (internal invariant)", s)
		}
		qsources[i] = int(q)
	}
	qm, err := NewCoarseModel(qg, qsources, mul)
	if err != nil {
		return nil, nil, fmt.Errorf("flow: quotient model: %w", err)
	}
	return qm, cm, nil
}
