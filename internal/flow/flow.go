// Package flow implements the information-propagation model of the
// filter-placement paper and the machinery to evaluate its objective
// function.
//
// Propagation model (paper §3). Source nodes generate one item and send a
// copy along each of their out-edges. Every other node blindly relays every
// copy it receives to all of its out-neighbors — unless it is a filter, in
// which case it relays each distinct item exactly once no matter how many
// copies arrive. Φ(A, v) denotes the number of copies node v receives when
// filters are installed at the node set A, and Φ(A, V) = Σ_v Φ(A, v). The
// objective of filter placement is F(A) = Φ(∅, V) − Φ(A, V).
//
// On a DAG the copy counts satisfy, in topological order,
//
//	rec(v)  = Σ_{p ∈ In(v)} w(p,v) · emit(p)
//	emit(v) = 1                     if v is a source
//	        = min(1, rec(v))        if v ∈ A (a filter)
//	        = rec(v)                otherwise
//
// where w ≡ 1 in the deterministic model and w(u,v) ∈ [0,1] is the relay
// probability in the probabilistic extension (expected-copy semantics).
// The package offers two interchangeable arithmetic engines: Float (fast,
// float64, supports edge weights) and Big (exact math/big integers for the
// deterministic model, immune to the exponential growth of path counts).
//
// The per-node marginal gain of adding one more filter has a closed form.
// With rec as above and
//
//	suffix(v) = Σ_{c ∈ Out(v)} w(v,c) · (1 + [c ∉ A]·suffix(c))
//
// computed in reverse topological order, the exact gain in the
// deterministic model is
//
//	F(A ∪ {v}) − F(A) = (rec(v) − min(1, rec(v))) · suffix(v).
//
// For A = ∅ this is the paper's impact I(v) = (Prefix(v) − 1) · Suffix(v).
// The closed form lets a greedy step run in O(|E|) instead of the paper's
// O(Δ·|E|) plist bookkeeping; tests verify it against brute-force
// re-evaluation of Φ.
//
// Where the work lives. A Model owns two lazily filled caches: its
// execution Plan (structural, shared by every model over the same graph
// and weights) and its invariants — the plan-order source mask, Φ(∅,V)
// and F(V) in each engine's arithmetic — which depend on the sources too.
// The first engine of a model builds what is missing (the plan, then two
// forward passes for the invariants); every later NewFloat or NewBig runs
// no pass and costs O(1) plus, for the float engine, a scratch arena
// borrowed from the plan's pool on first use and returned by
// ReleaseScratch. Evaluate then reports Φ(∅,V), Φ(A,V), F(A) and FR(A)
// for a filter set from one forward pass.
package flow

import (
	"errors"
	"fmt"
	"math/big"
	"sync"

	"repro/internal/graph"
)

// ErrNotDAG is returned when a model is constructed over a cyclic graph. In
// a cyclic c-graph copy counts diverge (the paper exploits this in its
// Theorem 1 reduction); use the Simulator with a budget for such graphs, or
// extract an acyclic subgraph first (package acyclic).
var ErrNotDAG = errors.New("flow: communication graph must be acyclic")

// Model binds a DAG to its information sources and optional edge weights.
type Model struct {
	g       *graph.Digraph
	sources []int
	isSrc   []bool
	topo    []int
	// weight returns the relay probability of edge (u,v); nil means the
	// deterministic model (weight 1 everywhere).
	weight func(u, v int) float64
	// mul, when non-nil, carries per-node multiplicity weights: node v
	// stands for mul[v] additional receivers beyond itself, each receiving
	// one copy of whatever v emits. Quotient models built by Coarsen use
	// this so Φ over the quotient equals Φ over the contracted original:
	// Φ = Σ_v rec(v) + mul[v]·emit(v), and suffix passes seed each node
	// with mul[v]. nil (every ordinary model) means mul ≡ 0 everywhere.
	mul []int64
	// pc caches the model's execution plan. It is a pointer so the
	// copy-on-write constructors (WithWeights) can give the copy a fresh
	// cache without copying a used sync.Once.
	pc *planCache
	// inv caches the model's source-dependent invariants. Models that
	// share a plan (WithSources copies, MultiEngine items) each get their
	// own, because every invariant depends on the source set.
	inv *invariants
}

// planCache lazily builds and then shares a Model's execution plan.
type planCache struct {
	once sync.Once
	plan *Plan
}

// invariants holds what every engine of a model needs and no filter set
// changes, each part computed once on first use: the plan-order source
// mask, Φ(∅,V) and F(V) in float64 for FloatEngine, and the exact
// Φ(∅,V), F(V) and node multiplicities for BigEngine. The first engine
// of a model pays the two forward passes of its arithmetic; every later
// engine reads the cache and runs none.
type invariants struct {
	srcOnce sync.Once
	src     []bool

	floatOnce      sync.Once
	phiEmpty, maxF float64

	bigOnce              sync.Once
	bigMul               []*big.Int
	bigPhiEmpty, bigMaxF *big.Int
}

// NewModel validates and builds a propagation model. sources lists the
// information origins; when empty, every node with in-degree zero is a
// source. Every source must have in-degree zero, every node must be in
// range, and the graph must be a DAG.
func NewModel(g *graph.Digraph, sources []int) (*Model, error) {
	topo, err := g.TopoOrder()
	if err != nil {
		return nil, ErrNotDAG
	}
	sources, isSrc, err := checkSources(g, sources)
	if err != nil {
		return nil, err
	}
	return &Model{g: g, sources: sources, isSrc: isSrc, topo: topo, pc: &planCache{}, inv: &invariants{}}, nil
}

// checkSources validates a source list against g — every source in range
// with in-degree zero, the in-degree-zero nodes when the list is empty —
// and returns a private copy of it with its node mask.
func checkSources(g *graph.Digraph, sources []int) ([]int, []bool, error) {
	if len(sources) == 0 {
		sources = g.Sources()
	}
	isSrc := make([]bool, g.N())
	for _, s := range sources {
		if s < 0 || s >= g.N() {
			return nil, nil, fmt.Errorf("flow: source %d out of range [0,%d)", s, g.N())
		}
		if g.InDegree(s) != 0 {
			return nil, nil, fmt.Errorf("flow: source %d has in-degree %d; sources must have in-degree 0 (add a super-source instead)", s, g.InDegree(s))
		}
		isSrc[s] = true
	}
	return append([]int(nil), sources...), isSrc, nil
}

// NewModelFromPlan stands up a Model over an already-built plan: the
// digraph is materialized from the plan's CSR in O(n+m) (no sort, no
// topological search — the plan's position order IS a topological
// order), and the plan cache is pre-filled so no engine ever triggers a
// buildPlan. This is how the server PATCH path turns a Splicer plan into
// the registry's refreshed model without paying the from-scratch
// snapshot+build cost. Only unweighted plans are supported — exactly
// what the dynamic overlay produces.
func NewModelFromPlan(p *Plan, sources []int) (*Model, error) {
	if p.Weighted() {
		return nil, fmt.Errorf("flow: NewModelFromPlan supports only unweighted plans")
	}
	if p.Coarse() {
		return nil, fmt.Errorf("flow: NewModelFromPlan does not support coarse (quotient) plans")
	}
	g := p.Digraph()
	sources, isSrc, err := checkSources(g, sources)
	if err != nil {
		return nil, err
	}
	topo := make([]int, p.n)
	for i, v := range p.perm {
		topo[i] = int(v)
	}
	pc := &planCache{plan: p}
	pc.once.Do(func() {}) // the plan is already built; pin the cache
	return &Model{g: g, sources: sources, isSrc: isSrc, topo: topo, pc: pc, inv: &invariants{}}, nil
}

// NewCoarseModel builds a model whose nodes carry multiplicity weights —
// the quotient-graph form produced by Coarsen, where supernode v stands
// for mul[v] contracted receivers beyond itself. Evaluation semantics:
// every engine adds mul[v]·emit(v) to Φ and seeds v's suffix with mul[v],
// so the closed-form gain (rec−1)·suffix prices the contracted interior
// without ever expanding it. Weights must be non-negative; a nil or
// all-zero mul is equivalent to NewModel. Coarse models are always
// unweighted (deterministic relay).
func NewCoarseModel(g *graph.Digraph, sources []int, mul []int64) (*Model, error) {
	m, err := NewModel(g, sources)
	if err != nil {
		return nil, err
	}
	if mul == nil {
		return m, nil
	}
	if len(mul) != g.N() {
		return nil, fmt.Errorf("flow: mul length %d != node count %d", len(mul), g.N())
	}
	allZero := true
	for v, w := range mul {
		if w < 0 {
			return nil, fmt.Errorf("flow: mul[%d] = %d is negative", v, w)
		}
		if w != 0 {
			allZero = false
		}
	}
	if !allZero {
		m.mul = append([]int64(nil), mul...)
	}
	return m, nil
}

// MustModel is NewModel that panics on error, for tests and examples over
// known-good graphs.
func MustModel(g *graph.Digraph, sources []int) *Model {
	m, err := NewModel(g, sources)
	if err != nil {
		panic(err)
	}
	return m
}

// WithWeights returns a copy of the model using w(u,v) as the relay
// probability of each edge. Weights must lie in [0, 1]; they are checked
// lazily (engines validate the values they read). Only the Float engine
// supports weighted models.
func (m *Model) WithWeights(w func(u, v int) float64) *Model {
	if m.mul != nil {
		panic("flow: coarse (multiplicity-weighted) models do not support edge weights")
	}
	c := *m
	c.weight = w
	c.pc = &planCache{} // weights are baked into the plan; the copy needs its own
	c.inv = &invariants{}
	return &c
}

// WithSources returns a copy of the model with another source set,
// validated like NewModel's (empty means the in-degree-zero nodes). The
// copy shares the graph, edge weights, multiplicities, topological order
// and plan cache, none of which depends on the sources, so it costs no
// topological sort and no plan build; it gets a fresh invariant cache.
func (m *Model) WithSources(sources []int) (*Model, error) {
	sources, isSrc, err := checkSources(m.g, sources)
	if err != nil {
		return nil, err
	}
	c := *m
	c.sources, c.isSrc, c.inv = sources, isSrc, &invariants{}
	return &c, nil
}

// Plan returns the model's execution plan — the level-packed iteration
// order, re-indexed CSR and scratch arena every engine's passes run over —
// building it on first use. Plans are immutable and safe to share across
// engines, clones and goroutines.
func (m *Model) Plan() *Plan {
	m.pc.once.Do(func() { m.pc.plan = buildPlan(m) })
	return m.pc.plan
}

// planSources returns the model's source mask in plan order, the form
// the float kernels read; built once and shared by every engine.
func (m *Model) planSources() []bool {
	m.inv.srcOnce.Do(func() {
		p := m.Plan()
		src := make([]bool, p.n)
		for i, v := range p.perm {
			src[i] = m.isSrc[v]
		}
		m.inv.src = src
	})
	return m.inv.src
}

// checkedWeight returns the relay probability of edge (u,v), validating
// its range; the plan builder bakes the result into flat per-edge arrays.
func (m *Model) checkedWeight(u, v int) float64 {
	w := m.weight(u, v)
	if w < 0 || w > 1 {
		panic(fmt.Sprintf("flow: weight(%d,%d) = %v outside [0,1]", u, v, w))
	}
	return w
}

// Graph returns the underlying digraph.
func (m *Model) Graph() *graph.Digraph { return m.g }

// Sources returns the designated source nodes.
func (m *Model) Sources() []int { return m.sources }

// IsSource reports whether v is a source.
func (m *Model) IsSource(v int) bool { return m.isSrc[v] }

// Topo returns the cached deterministic topological order.
func (m *Model) Topo() []int { return m.topo }

// Weighted reports whether the model carries edge weights.
func (m *Model) Weighted() bool { return m.weight != nil }

// Coarse reports whether the model carries node multiplicity weights
// (it was built by NewCoarseModel over a contracted quotient graph).
func (m *Model) Coarse() bool { return m.mul != nil }

// NodeWeight returns node v's multiplicity weight (0 on ordinary models).
func (m *Model) NodeWeight(v int) int64 {
	if m.mul == nil {
		return 0
	}
	return m.mul[v]
}

// N returns the node count of the underlying graph.
func (m *Model) N() int { return m.g.N() }

// Evaluator computes the paper's objective quantities for a model. The two
// implementations are NewFloat (float64 arithmetic, supports probabilistic
// weights) and NewBig (exact big-integer arithmetic for the deterministic
// model). All filter sets are boolean masks of length N(); entries for
// source nodes are ignored (filtering a source never changes anything since
// sources already emit a single copy).
type Evaluator interface {
	// Model returns the model being evaluated.
	Model() *Model
	// Phi returns Φ(A, V): total copies received over all nodes. A nil
	// mask means no filters.
	Phi(filters []bool) float64
	// Received returns Φ(A, v) for every node v (the paper's Prefix(v)
	// when A is empty).
	Received(filters []bool) []float64
	// Suffix returns the downstream amplification of every node under
	// filters A (the paper's Suffix(v) when A is empty).
	Suffix(filters []bool) []float64
	// Impacts returns the exact marginal gain F(A∪{v}) − F(A) for every
	// node (0 for sources and for nodes already in A).
	Impacts(filters []bool) []float64
	// ArgmaxImpact returns the node with the largest marginal gain and
	// that gain, breaking ties toward the smaller node id. It returns
	// v = -1 when every candidate gain is zero. banned marks nodes that
	// must not be selected (typically the current filter set).
	ArgmaxImpact(filters, banned []bool) (v int, gain float64)
	// F returns the objective F(A) = Φ(∅,V) − Φ(A,V).
	F(filters []bool) float64
	// MaxF returns F(V), the largest achievable reduction (filters
	// everywhere, Proposition 1). It is the denominator of the paper's
	// Filter Ratio metric.
	MaxF() float64
}

// FR returns the paper's Filter Ratio F(A)/F(V) for the given filter set,
// clamped to [0, 1]. By convention FR is 1 when F(V) = 0 (a filter-less
// graph with no redundancy at all cannot be improved, so any placement is
// vacuously perfect).
func FR(ev Evaluator, filters []bool) float64 {
	den := ev.MaxF()
	if den <= 0 {
		return 1
	}
	return filterRatio(ev.F(filters), den)
}

// filterRatio is f/maxF clamped to [0, 1], 1 when maxF ≤ 0: the Filter
// Ratio convention FR documents.
func filterRatio(f, maxF float64) float64 {
	if maxF <= 0 {
		return 1
	}
	r := f / maxF
	if r < 0 {
		return 0
	}
	if r > 1 {
		return 1
	}
	return r
}

// Objective is the paper's report for one filter set A: Φ(∅,V), Φ(A,V),
// F(A) and the Filter Ratio FR(A).
type Objective struct {
	PhiEmpty, PhiA, F, FR float64
}

// Evaluate reports the Objective of a filter set from a single Φ(A) pass:
// Φ(∅,V) and F(V) come from the model's invariant cache and F(A) is
// Φ(∅,V) − Φ(A,V) in the engine's own arithmetic (exact integers on a
// BigEngine). The fields equal Phi(nil), Phi(filters), F(filters) and
// FR(ev, filters) bit for bit; an evaluator of another kind pays one pass
// for each of Phi and F.
func Evaluate(ev Evaluator, filters []bool) Objective {
	var o Objective
	switch e := ev.(type) {
	case *FloatEngine:
		o.PhiA = e.Phi(filters)
		o.F = e.phiEmpty - o.PhiA
	case *BigEngine:
		phiA := e.PhiBig(filters)
		o.PhiA = bigToFloat(phiA)
		o.F = bigToFloat(phiA.Sub(e.phiEmpty, phiA))
	default:
		o.PhiA, o.F = ev.Phi(filters), ev.F(filters)
	}
	o.PhiEmpty = ev.Phi(nil)
	o.FR = filterRatio(o.F, ev.MaxF())
	return o
}

// AllFilters returns the filter mask used by MaxF: every non-source node is
// a filter. Exported because experiments and Proposition 1 use it directly.
func AllFilters(m *Model) []bool {
	mask := make([]bool, m.N())
	for v := range mask {
		mask[v] = !m.IsSource(v)
	}
	return mask
}

// MaskOf converts a node list to a boolean mask of length n.
func MaskOf(n int, nodes []int) []bool {
	mask := make([]bool, n)
	for _, v := range nodes {
		mask[v] = true
	}
	return mask
}

// NodesOf converts a mask to an ascending node list.
func NodesOf(mask []bool) []int {
	var nodes []int
	for v, ok := range mask {
		if ok {
			nodes = append(nodes, v)
		}
	}
	return nodes
}
