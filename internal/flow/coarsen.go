package flow

import (
	"fmt"
	"slices"
	"sync"
)

// Graph coarsening for multilevel placement: contract a Model into a
// quotient graph small enough that greedy's V-sized sweeps become cheap,
// while Φ on the quotient equals Φ on the original at every matching
// filter set.
//
// The quotient is a plain unweighted DAG over SUPERNODES plus one integer
// per supernode — its multiplicity weight w(u), the number of contracted
// receivers the supernode stands for beyond its head. Engines evaluate
// quotient models (Model.Coarse) with these semantics:
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
// Everything reads the source model's plan, and nothing widens it: the
// sweeps walk its rows in position order (perm), a canonical topological
// order. Contraction is deterministic — its roots, weights and absorbed
// set do not depend on the topological order swept — and quotient ids
// ascend with head original id, which preserves argmax tie-breaking
// (quotient id order == head id order) so quotient greedy picks exactly
// the original's filters.
//
// The quotient is built straight into a plan: one sweep over the heads'
// in-rows gives its rows, and layoutPlan lays them out in the order of
// the source's perm restricted to heads. That order is topological: a
// quotient edge ru→rv comes from an edge u→rv (a folded node's only
// in-edge comes from inside its supernode), and ru is an ancestor of u.
// The quotient Model stands over that plan, as NewModelFromPlan's do.

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
	m *Model
	p *Plan // m's plan: the rows every sweep reads
	coarsenScratch
	// absorbedIn counts the in-edges of absorbed sinks, which leave the
	// quotient with them.
	absorbedIn int
	stats      CoarsenStats
}

// coarsenScratch is the per-node state a contraction needs only while it
// runs. It is pooled: the exact path may coarsen on every placement, and
// these arrays are most of what a contraction would otherwise allocate.
type coarsenScratch struct {
	parent   []int32 // union-find, path-halving; root == supernode head
	w        []int64 // per-root multiplicity weight
	absorbed []bool  // per-root: dissolved into pure weight
}

var coarsenPool = sync.Pool{New: func() any { return new(coarsenScratch) }}

// reset sizes the scratch to n singleton supernodes of weight 0.
func (s *coarsenScratch) reset(n int) {
	if cap(s.parent) < n {
		s.parent, s.w, s.absorbed = make([]int32, n), make([]int64, n), make([]bool, n)
	}
	s.parent, s.w, s.absorbed = s.parent[:n], s.w[:n], s.absorbed[:n]
	for v := range s.parent {
		s.parent[v] = int32(v)
	}
	clear(s.w)
	clear(s.absorbed)
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

// fold contracts every node of in-degree exactly 1 (counted with edge
// multiplicity; sources have in-degree 0) into its feeder's supernode.
// The sweep runs in plan position order, a topological order, so it folds
// each feeder first and a whole chain or single-parent tree collapses in
// one sweep.
func (c *coarsener) fold() {
	p := c.p
	for i, r := range p.perm {
		lo := p.inOff[i]
		if p.inOff[i+1]-lo != 1 {
			continue
		}
		q := c.find(p.perm[p.inAdj[lo]])
		c.parent[r] = q
		c.w[q] += 1 + c.w[r]
		c.stats.Folded++
	}
}

// absorbSinks dissolves every memberless (w = 0) non-source head with no
// out-edges into its feeders' weights, one unit per in-edge. A credited
// head either has members or is the feeder itself, which has an out-edge,
// so crediting never changes which heads qualify and the sweep order does
// not matter.
func (c *coarsener) absorbSinks() {
	p := c.p
	for i, r := range p.perm {
		if c.parent[r] != r || c.m.isSrc[r] || c.w[r] != 0 || p.outOff[i] != p.outOff[i+1] {
			continue
		}
		c.absorbed[r] = true
		c.stats.SinksAbsorbed++
		c.absorbedIn += int(p.inOff[i+1] - p.inOff[i])
		for _, q := range p.inAdj[p.inOff[i]:p.inOff[i+1]] {
			c.w[c.find(p.perm[q])]++
		}
	}
}

// CoarsenSize returns the node and edge counts of the quotient Coarsen
// would build from m — its CoarsenStats.NodesAfter and EdgesAfter — from
// one pass over the plan's row offsets, before any union-find runs. Fold
// takes exactly the nodes of in-degree 1, each with its one in-edge.
// Absorption takes exactly the other non-source nodes with no out-edges:
// with no children nothing folds or absorbs into them, so their weight is
// always 0. Each such sink removes its in-edges with it. m must be one
// Coarsen accepts (unweighted, not coarse). The counts are cached with
// the model's other invariants, so only a model's first call pays.
func CoarsenSize(m *Model) (nodes, edges int) {
	m.inv.sizeOnce.Do(func() { m.inv.qNodes, m.inv.qEdges = coarsenSize(m) })
	return m.inv.qNodes, m.inv.qEdges
}

func coarsenSize(m *Model) (nodes, edges int) {
	p, src := m.Plan(), m.planSources()
	nodes, edges = p.n, p.M()
	inOff, outOff, src := p.inOff[:p.n+1], p.outOff[:p.n+1], src[:p.n]
	// Branch-free: in-degree 1 is a coin flip on graphs like twitter.
	for i := 0; i < p.n; i++ {
		in := int(inOff[i+1] - inOff[i])
		fold := b2i(in == 1)
		sink := b2i(outOff[i] == outOff[i+1]) &^ fold &^ b2i(src[i])
		nodes -= fold + sink
		edges -= fold + sink*in
	}
	return nodes, edges
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// Coarsen contracts m into a quotient model whose Φ, marginal gains and
// argmax are bit-identical to m's at every matching filter set. The
// returned model carries per-supernode multiplicity weights
// (Model.Coarse), the map records the contraction reversibly, and the
// stats say what fired. Weighted (probabilistic) models cannot be
// coarsened — the fold identity needs exact unit relays — and neither can
// a model that is already a quotient. Coarsen reads m's plan only; a
// model stood up over a plan keeps its digraph unbuilt.
func Coarsen(m *Model, _ CoarsenOptions) (*Model, *CoarsenMap, CoarsenStats, error) {
	if m.Weighted() {
		return nil, nil, CoarsenStats{}, fmt.Errorf("flow: cannot coarsen a weighted model")
	}
	if m.Coarse() {
		return nil, nil, CoarsenStats{}, fmt.Errorf("flow: cannot coarsen an already-coarse model")
	}
	n, p := m.N(), m.Plan()
	scratch := coarsenPool.Get().(*coarsenScratch)
	defer coarsenPool.Put(scratch)
	scratch.reset(n)
	c := &coarsener{m: m, p: p, coarsenScratch: *scratch}
	c.stats = CoarsenStats{NodesBefore: n, EdgesBefore: p.M()}
	c.fold()
	c.absorbSinks()
	qm, cm, err := c.buildQuotient()
	if err != nil {
		return nil, nil, CoarsenStats{}, err
	}
	c.stats.NodesAfter = cm.qn
	c.stats.EdgesAfter = qm.Plan().M()
	return qm, cm, c.stats, nil
}

// buildQuotient materializes the coarsen map from the union-find state
// and lays out the quotient model's plan. Quotient ids ascend with head
// original ids.
func (c *coarsener) buildQuotient() (*Model, *CoarsenMap, error) {
	n, p := len(c.parent), c.p
	// Every array below is sized exactly: fold removed one node and its
	// in-edge per fold, absorption one node and its in-edges per sink.
	qn, qe := n-c.stats.Folded-c.stats.SinksAbsorbed, p.M()-c.stats.Folded-c.absorbedIn
	cm := &CoarsenMap{n: n, qn: qn, origTo: make([]int32, n),
		heads: make([]int32, 0, qn), absorbed: make([]int32, 0, c.stats.SinksAbsorbed)}
	// Live heads take quotient ids in ascending order; absorbed nodes are
	// memberless roots and map to -1; every other node takes its root's id.
	for v := int32(0); v < int32(n); v++ {
		switch {
		case c.absorbed[v]:
			cm.origTo[v] = -1
			cm.absorbed = append(cm.absorbed, v)
		case c.parent[v] == v:
			cm.origTo[v] = int32(len(cm.heads))
			cm.heads = append(cm.heads, v)
		}
	}
	// Fibers: two-pass counting sort keeps members ascending per fiber.
	cm.fiberOff = make([]int32, qn+1)
	for v := int32(0); v < int32(n); v++ {
		if c.parent[v] != v {
			cm.origTo[v] = cm.origTo[c.find(v)]
		}
		if q := cm.origTo[v]; q >= 0 {
			cm.fiberOff[q+1]++
		}
	}
	for q := 1; q <= qn; q++ {
		cm.fiberOff[q] += cm.fiberOff[q-1]
	}
	cm.fiberMem = make([]int32, cm.fiberOff[qn])
	next := append([]int32(nil), cm.fiberOff[:qn]...)
	for v := int32(0); v < int32(n); v++ {
		if q := cm.origTo[v]; q >= 0 {
			cm.fiberMem[next[q]] = v
			next[q]++
		}
	}
	mul := make([]int64, qn)
	for q, h := range cm.heads {
		mul[q] = c.w[h]
	}
	if !slices.ContainsFunc(mul, func(w int64) bool { return w != 0 }) {
		mul = nil // all-zero weights: an ordinary model
	}

	// Quotient rows: a quotient edge is an original edge into a live head
	// from another supernode, and every in-edge of a head is one — its
	// tail is neither absorbed (absorbed nodes have no out-edges) nor a
	// member of the head's own supernode (members descend from the head).
	// So a head's in-row, mapped through origTo, is its quotient in-row;
	// parallel edges stay, as they carry reception multiplicity (two edges
	// from one feeder mean two copies received). Walked in the source's
	// plan order, the heads also give the quotient's topological order
	// (see the header). The out-rows are the in-rows' transpose.
	in, topo := make([][]int, qn), make([]int, 0, qn)
	inAdj := make([]int, 0, qe)
	for i, v := range p.perm {
		if c.parent[v] != v || c.absorbed[v] {
			continue
		}
		q, start := cm.origTo[v], len(inAdj)
		for _, j := range p.inAdj[p.inOff[i]:p.inOff[i+1]] {
			inAdj = append(inAdj, int(cm.origTo[p.perm[j]]))
		}
		in[q] = inAdj[start:]
		topo = append(topo, int(q))
	}
	off := make([]int, qn+1)
	for _, qu := range inAdj {
		off[qu+1]++
	}
	out, outAdj := make([][]int, qn), make([]int, len(inAdj))
	for q := range out {
		off[q+1] += off[q]
		out[q] = outAdj[off[q]:off[q]:off[q+1]]
	}
	for qv, row := range in {
		for _, qu := range row {
			out[qu] = append(out[qu], qv)
		}
	}
	qp := layoutPlan(topo, in, out, make([]int32, qn), nil, mul)
	qp.arena = newPlanArena()

	// Sources survive contraction untouched (in-degree 0 nodes never
	// fold or absorb), so they map 1:1 onto quotient ids.
	qsources := make([]int, len(c.m.Sources()))
	for i, s := range c.m.Sources() {
		q := cm.origTo[s]
		if q < 0 || int(cm.heads[q]) != s {
			return nil, nil, fmt.Errorf("flow: source %d lost by contraction (internal invariant)", s)
		}
		qsources[i] = int(q)
	}
	qm, err := NewModelFromPlan(qp, qsources)
	if err != nil {
		return nil, nil, fmt.Errorf("flow: quotient model: %w", err)
	}
	return qm, cm, nil
}
