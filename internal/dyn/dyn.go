// Package dyn turns the repo's frozen communication graphs into evolving
// ones. The paper's motivating networks (Twitter followers, memetracker
// quote links, citation graphs) are streams: edges appear and disappear
// continuously, yet graph.Digraph is immutable, so before this package any
// edge change forced a full re-upload and a from-scratch placement run.
//
// Dynamic is a mutable overlay over the same node-id space: batched edge
// insertions and deletions plus node additions, with the topological order
// maintained incrementally by acyclic.IncrementalDAG (Pearce–Kelly, ACM JEA
// 2006) so that a cycle-creating insertion is detected — and rejected with
// a typed error — in time proportional to the affected region between the
// edge's endpoints rather than the whole graph. Batches are atomic: a
// rejected batch leaves the edge set AND the maintained topological order
// exactly as they were. Each committed version also has one immutable
// flow.Model, built on demand over a plan rebuilt from the overlay's rows,
// that every consumer of that version shares.
//
// Maintainer (maintain.go) keeps a filter placement fresh across mutation
// batches: it warm-starts from the previous filter set and repairs it over
// dirty-cone incremental state (flow.Incremental) — the Φ/suffix/gain
// recomputation is cone-bounded while candidate selection is a plain O(n)
// scan over the cached gains — falling back to a full greedy-all
// recompute when the accumulated dirty cones exceed a fixed drift bound.
package dyn

import (
	"errors"
	"fmt"
	"slices"

	"repro/internal/acyclic"
	"repro/internal/flow"
	"repro/internal/graph"
)

// Typed mutation errors. Apply wraps them with edge/node detail, so test
// with errors.Is.
var (
	// ErrCycle reports an insertion that would create a directed cycle.
	ErrCycle = errors.New("dyn: edge would create a cycle")
	// ErrEdgeExists reports an insertion of an already-present edge.
	ErrEdgeExists = errors.New("dyn: edge already present")
	// ErrEdgeMissing reports a removal of an absent edge.
	ErrEdgeMissing = errors.New("dyn: edge not present")
	// ErrBadNode reports a node id outside the (post-growth) node range, a
	// self-loop, or a negative AddNodes count.
	ErrBadNode = errors.New("dyn: bad node")
	// ErrPinnedSource reports an insertion into a designated source node,
	// which would break the propagation model (sources must keep in-degree
	// zero).
	ErrPinnedSource = errors.New("dyn: edge into pinned source")
)

// CycleError carries the offending edge of a rejected insertion. It
// satisfies errors.Is(err, ErrCycle).
type CycleError struct {
	U, V int
}

func (e *CycleError) Error() string {
	return fmt.Sprintf("dyn: edge (%d,%d) would create a cycle", e.U, e.V)
}

// Is makes errors.Is(err, ErrCycle) true for any CycleError.
func (e *CycleError) Is(target error) bool { return target == ErrCycle }

// Batch is one atomic group of mutations. Nodes are added first (ids
// n, n+1, …, n+AddNodes−1), then removals are applied, then insertions, so
// an insertion may both reference a brand-new node and rely on slack opened
// by a removal in the same batch. If any mutation is invalid the whole
// batch is rolled back.
type Batch struct {
	// AddNodes appends this many fresh isolated nodes.
	AddNodes int `json:"add_nodes,omitempty"`
	// Add lists directed edges (u, v) to insert.
	Add [][2]int `json:"add,omitempty"`
	// Remove lists directed edges (u, v) to delete.
	Remove [][2]int `json:"remove,omitempty"`
}

// Empty reports whether the batch mutates nothing.
func (b Batch) Empty() bool {
	return b.AddNodes == 0 && len(b.Add) == 0 && len(b.Remove) == 0
}

// ApplyResult summarizes a committed batch, including the dirty seeds the
// flow layer needs: recomputation of multiplicity state can be confined to
// descendants of DirtyFwd and ancestors of DirtyBwd instead of the whole
// graph.
type ApplyResult struct {
	NodesAdded   int `json:"nodes_added"`
	EdgesAdded   int `json:"edges_added"`
	EdgesRemoved int `json:"edges_removed"`
	// FirstNewNode is the id of the first appended node, -1 when none.
	FirstNewNode int `json:"first_new_node"`
	// DirtyFwd lists the deduplicated heads v of changed edges (u, v):
	// received-copy counts are stale only for them and their descendants.
	DirtyFwd []int `json:"-"`
	// DirtyBwd lists the deduplicated tails u of changed edges: suffix
	// amplification is stale only for them and their ancestors.
	DirtyBwd []int `json:"-"`
	// Reordered counts nodes whose topological position moved.
	Reordered int `json:"reordered"`
}

// Dynamic is a mutable DAG overlay: an acyclic.IncrementalDAG — the
// same Pearce–Kelly structure the Acyclic algorithm runs — plus pinned
// sources, an edge count, a mutation generation and the current
// generation's Model. It is not safe for concurrent use; callers
// serialize access (the fpd registry guards each entry with a mutex).
type Dynamic struct {
	dag     *acyclic.IncrementalDAG
	pinned  []bool
	sources []int
	edges   int
	gen     uint64

	// splicer rebuilds the execution plan from the overlay's rows, so
	// successive versions' plans share one scratch arena; nil until the
	// first Model call of an overlay built by FromDigraph.
	splicer *flow.Splicer
	// model is generation modelGen's Model; nil until first built.
	model    *flow.Model
	modelGen uint64
}

// FromDigraph builds a Dynamic overlay from an immutable DAG. sources
// designates the information origins (empty means every in-degree-0 node);
// they are pinned: insertions targeting a source are rejected, so the
// overlay always remains a valid propagation model for flow.NewModel.
// Returns graph.ErrCyclic for cyclic inputs.
func FromDigraph(g *graph.Digraph, sources []int) (*Dynamic, error) {
	inc, err := acyclic.FromDAG(g)
	if err != nil {
		return nil, err
	}
	n := g.N()
	if len(sources) == 0 {
		sources = g.Sources()
	}
	d := &Dynamic{dag: inc, pinned: make([]bool, n), edges: g.M()}
	for _, s := range sources {
		if s < 0 || s >= n {
			return nil, fmt.Errorf("%w: source %d outside [0,%d)", ErrBadNode, s, n)
		}
		if deg := len(inc.In(s)); deg != 0 {
			return nil, fmt.Errorf("%w: source %d has in-degree %d", ErrBadNode, s, deg)
		}
		d.pinned[s] = true
	}
	d.sources = append([]int(nil), sources...)
	return d, nil
}

// FromModel builds a Dynamic overlay from an immutable model's DAG and
// sources. When the model's plan is deterministic (unweighted, not coarse)
// it is adopted as-is and the model itself becomes generation 0's, so
// seeding the overlay from an uploaded model builds no plan and no model;
// otherwise generation 0's model is rebuilt over the overlay.
func FromModel(m *flow.Model) (*Dynamic, error) {
	d, err := FromDigraph(m.Graph(), m.Sources())
	if err != nil {
		return nil, err
	}
	d.splicer = flow.NewSplicer(d, m.Plan(), flow.SpliceOptions{})
	if d.splicer.Plan() == m.Plan() {
		d.model = m
	} else {
		d.model = d.modelOver(d.splicer.Plan())
	}
	return d, nil
}

// Model returns the current generation's model: deterministic, over a plan
// laid out from the overlay's rows and array-identical to the one
// flow.NewModel(Snapshot(), Sources()) builds. It is built on the first
// call after a committed batch and then cached until the next one, so
// every consumer of a version — the placement maintainer, fpd's readers —
// shares one plan and one invariant cache. The model is immutable and
// safe to share across goroutines; Model itself is not.
func (d *Dynamic) Model() *flow.Model {
	if d.model != nil && d.modelGen == d.gen {
		return d.model
	}
	var p *flow.Plan
	if d.splicer == nil {
		d.splicer = flow.NewSplicer(d, nil, flow.SpliceOptions{})
		p = d.splicer.Plan()
	} else {
		p, _ = d.splicer.Apply(nil, nil, 0)
	}
	d.model, d.modelGen = d.modelOver(p), d.gen
	return d.model
}

// modelOver stands the overlay's model up over plan p. The sources are
// pinned — nothing ever inserts an edge into one — and the splicer's
// plans are unweighted, so validation cannot fail.
func (d *Dynamic) modelOver(p *flow.Plan) *flow.Model {
	m, err := flow.NewModelFromPlan(p, d.sources)
	if err != nil {
		panic(fmt.Sprintf("dyn: overlay model: %v", err))
	}
	return m
}

// N returns the current node count.
func (d *Dynamic) N() int { return d.dag.N() }

// M returns the current edge count.
func (d *Dynamic) M() int { return d.edges }

// Out returns the out-neighbors of v in arbitrary order. The slice aliases
// internal storage and is invalidated by the next Apply.
func (d *Dynamic) Out(v int) []int { return d.dag.Out(v) }

// In returns the in-neighbors of v in arbitrary order. The slice aliases
// internal storage and is invalidated by the next Apply.
func (d *Dynamic) In(v int) []int { return d.dag.In(v) }

// OrdOf returns the position of v in the maintained topological order.
func (d *Dynamic) OrdOf(v int) int { return d.dag.OrdOf(v) }

// Rows returns every node's in- and out-neighbors (arbitrary order) and
// the maintained topological order, ord[v] being v's position: the
// flow.DynDigraph view the plan rebuild and the incremental evaluator
// read. The slices alias internal storage and are invalidated by the next
// Apply; callers must not modify them.
func (d *Dynamic) Rows() (in, out [][]int, ord []int) { return d.dag.Rows() }

// Order returns ord[v] for every node as a fresh slice; it is always a
// valid topological order of the current edge set.
func (d *Dynamic) Order() []int { return d.dag.Order() }

// Gen returns the mutation generation, incremented by every committed
// batch. Consumers caching derived state compare generations to detect
// missed batches.
func (d *Dynamic) Gen() uint64 { return d.gen }

// Sources returns the pinned source nodes.
func (d *Dynamic) Sources() []int { return append([]int(nil), d.sources...) }

// IsSource reports whether v is a pinned source.
func (d *Dynamic) IsSource(v int) bool { return d.pinned[v] }

// HasEdge reports whether (u, v) is currently present.
func (d *Dynamic) HasEdge(u, v int) bool {
	n := d.dag.N()
	return u >= 0 && u < n && v >= 0 && v < n && d.dag.HasEdge(u, v)
}

// Snapshot materializes the current edge set as an immutable Digraph
// (labels are not carried). Cost is O(n + m log m); use it for
// interoperating with the placement algorithms and for serving reads.
func (d *Dynamic) Snapshot() *graph.Digraph {
	n := d.dag.N()
	b := graph.NewBuilder(n)
	for u := 0; u < n; u++ {
		for _, v := range d.dag.Out(u) {
			b.AddEdge(u, v)
		}
	}
	return b.MustBuild()
}

// Apply commits a batch atomically. On any error — bad node id, self-loop,
// duplicate insertion, missing removal, edge into a pinned source, or a
// cycle-creating insertion — every already-applied mutation of the batch is
// rolled back, including Pearce–Kelly order shifts, and the error is
// returned (cycle rejections satisfy errors.Is(err, ErrCycle)).
func (d *Dynamic) Apply(b Batch) (ApplyResult, error) {
	n := d.dag.N()
	if b.AddNodes < 0 {
		return ApplyResult{}, fmt.Errorf("%w: negative AddNodes %d", ErrBadNode, b.AddNodes)
	}
	n2 := n + b.AddNodes

	// Precheck everything that doesn't depend on reachability, so most
	// rejections cost nothing to roll back.
	seen := make(map[[2]int]bool, len(b.Add)+len(b.Remove))
	for _, e := range b.Add {
		u, v := e[0], e[1]
		switch {
		case u < 0 || u >= n2 || v < 0 || v >= n2:
			return ApplyResult{}, fmt.Errorf("%w: edge (%d,%d) outside [0,%d)", ErrBadNode, u, v, n2)
		case u == v:
			return ApplyResult{}, fmt.Errorf("%w: self-loop at %d", ErrBadNode, u)
		case v < n && d.pinned[v]:
			return ApplyResult{}, fmt.Errorf("%w: (%d,%d) targets source %d", ErrPinnedSource, u, v, v)
		case d.HasEdge(u, v):
			return ApplyResult{}, fmt.Errorf("%w: (%d,%d)", ErrEdgeExists, u, v)
		case seen[e]:
			return ApplyResult{}, fmt.Errorf("%w: (%d,%d) listed twice", ErrEdgeExists, u, v)
		}
		seen[e] = true
	}
	for _, e := range b.Remove {
		u, v := e[0], e[1]
		if u < 0 || u >= n || v < 0 || v >= n {
			return ApplyResult{}, fmt.Errorf("%w: edge (%d,%d) outside [0,%d)", ErrBadNode, u, v, n)
		}
		if !d.HasEdge(u, v) {
			return ApplyResult{}, fmt.Errorf("%w: (%d,%d)", ErrEdgeMissing, u, v)
		}
		if seen[e] {
			return ApplyResult{}, fmt.Errorf("%w: (%d,%d) listed twice", ErrEdgeMissing, u, v)
		}
		seen[e] = true
	}

	var undo acyclic.Undo
	d.dag.Grow(b.AddNodes, &undo)
	for _, e := range b.Remove {
		d.dag.Remove(e[0], e[1], &undo)
	}
	for _, e := range b.Add {
		if !d.dag.Insert(e[0], e[1], &undo) {
			d.dag.Rollback(&undo)
			return ApplyResult{}, &CycleError{U: e[0], V: e[1]}
		}
	}

	d.pinned = append(d.pinned, make([]bool, b.AddNodes)...)
	d.edges += len(b.Add) - len(b.Remove)
	d.gen++
	res := ApplyResult{
		NodesAdded:   b.AddNodes,
		EdgesAdded:   len(b.Add),
		EdgesRemoved: len(b.Remove),
		FirstNewNode: -1,
		Reordered:    undo.Reordered(),
	}
	if b.AddNodes > 0 {
		res.FirstNewNode = n
	}
	res.DirtyFwd, res.DirtyBwd = dirtySeeds(b)
	return res, nil
}

// dirtySeeds deduplicates the heads (forward seeds) and tails (backward
// seeds) of every changed edge, ascending.
func dirtySeeds(b Batch) (fwd, bwd []int) {
	for _, es := range [][][2]int{b.Add, b.Remove} {
		for _, e := range es {
			bwd = append(bwd, e[0])
			fwd = append(fwd, e[1])
		}
	}
	slices.Sort(fwd)
	slices.Sort(bwd)
	return slices.Compact(fwd), slices.Compact(bwd)
}
