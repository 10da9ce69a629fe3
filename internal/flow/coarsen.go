package flow

import (
	"fmt"

	"repro/internal/graph"
)

// Graph coarsening for multilevel placement: contract a Model into a
// quotient graph small enough that greedy's V-sized sweeps become cheap,
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
// Two lossless contraction rules, one linear sweep each:
//
//   - FOLD: a non-source node whose in-degree — counted with edge
//     multiplicity — is exactly 1 folds into the supernode feeding it:
//     w(parent) += 1 + w(child), and the child's external out-edges
//     become the parent's. Swept in topological order, this contracts
//     linear chains AND single-parent fan-out trees, because every
//     member of a folded group provably receives exactly emit(head)
//     (each member's sole in-edge comes from inside the group, forming a
//     tree of single-in relays rooted at the head).
//   - SINK ABSORPTION: a memberless (w = 0) non-source head with no
//     out-edges is dissolved into pure weight: each in-edge (p, t) adds 1
//     to w(find(p)) — t received one copy of emit(find(p))'s head per
//     edge, and its gain is identically 0 (suffix 0), so no candidate is
//     lost. Supernodes WITH members are never absorbed: their gain
//     (rec−1)·w is real and they must stay placeable.
//
// The two sweeps reach the rules' fixpoint. A head's external in-degree
// never changes (a fold internalizes only the folded node's own in-edge),
// absorbed nodes have no out-edges, and absorbing a sink credits its
// feeder weight, so no feeder becomes an absorbable sink.
//
// Everything is deterministic: sweeps run in ascending node order or the
// model's topological order, and quotient ids are assigned ascending by
// head original id — which preserves argmax tie-breaking (quotient id
// order == head id order) so quotient greedy picks exactly the original's
// filters.

// CoarsenOptions configures Coarsen. It has no fields: contraction always
// runs both lossless rules.
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
	m        *Model
	n        int
	parent   []int32 // union-find, path-halving; root == supernode head
	w        []int64 // per-root multiplicity weight
	absorbed []bool  // per-root: dissolved into pure weight
	stats    CoarsenStats
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

func newCoarsener(m *Model) *coarsener {
	n := m.N()
	c := &coarsener{m: m, n: n}
	c.parent = make([]int32, n)
	for v := range c.parent {
		c.parent[v] = int32(v)
	}
	c.w = make([]int64, n)
	c.absorbed = make([]bool, n)
	c.stats = CoarsenStats{NodesBefore: n, EdgesBefore: m.Graph().M()}
	return c
}

// liveRoot reports whether v is the head of a live supernode.
func (c *coarsener) liveRoot(v int32) bool {
	return c.parent[v] == v && !c.absorbed[v]
}

// fold contracts every non-source node of in-degree exactly 1 (counted
// with edge multiplicity) into its feeder's supernode. The topological
// sweep folds each feeder first, so a whole chain or single-parent tree
// collapses in one sweep.
func (c *coarsener) fold() {
	g := c.m.Graph()
	for _, v := range c.m.Topo() {
		if c.m.IsSource(v) || g.InDegree(v) != 1 {
			continue
		}
		r, p := int32(v), c.find(int32(g.In(v)[0]))
		c.parent[r] = p
		c.w[p] += 1 + c.w[r]
		c.stats.Folded++
	}
}

// absorbSinks dissolves every memberless (w = 0) non-source head with no
// out-edges into its feeders' weights, one unit per in-edge. A credited
// head either has members or is the feeder itself, which has an out-edge,
// so crediting never changes which heads qualify and the sweep order does
// not matter.
func (c *coarsener) absorbSinks() {
	g := c.m.Graph()
	for v := 0; v < c.n; v++ {
		r := int32(v)
		if c.parent[r] != r || c.m.IsSource(v) || c.w[r] != 0 || g.OutDegree(v) != 0 {
			continue
		}
		c.absorbed[r] = true
		c.stats.SinksAbsorbed++
		for _, u := range g.In(v) {
			c.w[c.find(int32(u))]++
		}
	}
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
	c.fold()
	c.absorbSinks()
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
	// Quotient edges: every original edge between two distinct live
	// supernodes (absorbed nodes have no out-edges, so only targets need
	// the check), translated to quotient ids. Parallel edges are kept —
	// they carry reception multiplicity (two edges from one feeder mean
	// two copies received).
	b := graph.NewBuilder(cm.qn).AllowParallelEdges()
	g := c.m.Graph()
	for u := int32(0); u < int32(n); u++ {
		ru := c.find(u)
		for _, v := range g.Out(int(u)) {
			rv := c.find(int32(v))
			if ru == rv || c.absorbed[rv] {
				continue
			}
			b.AddEdge(int(qid[ru]), int(qid[rv]))
		}
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
