// Package dyn turns the repo's frozen communication graphs into evolving
// ones. The paper's motivating networks (Twitter followers, memetracker
// quote links, citation graphs) are streams: edges appear and disappear
// continuously, yet graph.Digraph is immutable, so before this package any
// edge change forced a full re-upload and a from-scratch placement run.
//
// Dynamic is a mutable overlay over the same node-id space: batched edge
// insertions and deletions plus node additions, with the topological order
// maintained incrementally in Pearce–Kelly style (ACM JEA 2006) so that a
// cycle-creating insertion is detected — and rejected with a typed error —
// in time proportional to the affected region between the edge's endpoints
// rather than the whole graph. Batches are atomic: a rejected batch leaves
// the edge set AND the maintained topological order exactly as they were.
//
// Maintainer (maintain.go) keeps a filter placement fresh across mutation
// batches: it warm-starts from the previous filter set and repairs it over
// dirty-cone incremental state (flow.Incremental) — the Φ/suffix/gain
// recomputation is cone-bounded while candidate selection is a plain O(n)
// scan over the cached gains — falling back to a full greedy-all
// recompute when the accumulated drift bound is exceeded.
package dyn

import (
	"errors"
	"fmt"
	"sort"

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

// Dynamic is a mutable DAG overlay. It is not safe for concurrent use;
// callers serialize access (the fpd registry guards each entry with a
// mutex).
type Dynamic struct {
	out, in [][]int
	ord     []int // ord[v] = position of v in the maintained topo order
	pinned  []bool
	sources []int
	edges   int
	gen     uint64
}

// FromDigraph builds a Dynamic overlay from an immutable DAG. sources
// designates the information origins (empty means every in-degree-0 node);
// they are pinned: insertions targeting a source are rejected, so the
// overlay always remains a valid propagation model for flow.NewModel.
// Returns graph.ErrCyclic for cyclic inputs.
func FromDigraph(g *graph.Digraph, sources []int) (*Dynamic, error) {
	rank, err := g.TopoRank()
	if err != nil {
		return nil, err
	}
	n := g.N()
	if len(sources) == 0 {
		sources = g.Sources()
	}
	d := &Dynamic{
		out:    make([][]int, n),
		in:     make([][]int, n),
		ord:    rank,
		pinned: make([]bool, n),
		edges:  g.M(),
	}
	for v := 0; v < n; v++ {
		d.out[v] = append([]int(nil), g.Out(v)...)
		d.in[v] = append([]int(nil), g.In(v)...)
	}
	for _, s := range sources {
		if s < 0 || s >= n {
			return nil, fmt.Errorf("%w: source %d outside [0,%d)", ErrBadNode, s, n)
		}
		if len(d.in[s]) != 0 {
			return nil, fmt.Errorf("%w: source %d has in-degree %d", ErrBadNode, s, len(d.in[s]))
		}
		d.pinned[s] = true
	}
	d.sources = append([]int(nil), sources...)
	return d, nil
}

// N returns the current node count.
func (d *Dynamic) N() int { return len(d.ord) }

// M returns the current edge count.
func (d *Dynamic) M() int { return d.edges }

// Out returns the out-neighbors of v in arbitrary order. The slice aliases
// internal storage and is invalidated by the next Apply.
func (d *Dynamic) Out(v int) []int { return d.out[v] }

// In returns the in-neighbors of v in arbitrary order. The slice aliases
// internal storage and is invalidated by the next Apply.
func (d *Dynamic) In(v int) []int { return d.in[v] }

// OrdOf returns the position of v in the maintained topological order.
func (d *Dynamic) OrdOf(v int) int { return d.ord[v] }

// Order returns ord[v] for every node as a fresh slice; it is always a
// valid topological order of the current edge set.
func (d *Dynamic) Order() []int { return append([]int(nil), d.ord...) }

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
	if u < 0 || u >= len(d.ord) || v < 0 || v >= len(d.ord) {
		return false
	}
	// Scan the smaller endpoint list.
	if len(d.out[u]) <= len(d.in[v]) {
		for _, w := range d.out[u] {
			if w == v {
				return true
			}
		}
		return false
	}
	for _, w := range d.in[v] {
		if w == u {
			return true
		}
	}
	return false
}

// Snapshot materializes the current edge set as an immutable Digraph
// (labels are not carried). Cost is O(n + m log m); use it for
// interoperating with the placement algorithms and for serving reads.
func (d *Dynamic) Snapshot() *graph.Digraph {
	b := graph.NewBuilder(len(d.ord))
	for u := range d.out {
		for _, v := range d.out[u] {
			b.AddEdge(u, v)
		}
	}
	return b.MustBuild()
}

// undoLog records enough to restore a Dynamic to its pre-batch state: ord
// saves are replayed in reverse so the earliest save per node wins.
type undoLog struct {
	nodesAdded int
	added      [][2]int // edges appended (newest last)
	removed    [][2]int // edges deleted (newest last)
	ordNode    []int
	ordVal     []int
}

// Apply commits a batch atomically. On any error — bad node id, self-loop,
// duplicate insertion, missing removal, edge into a pinned source, or a
// cycle-creating insertion — every already-applied mutation of the batch is
// rolled back, including Pearce–Kelly order shifts, and the error is
// returned (cycle rejections satisfy errors.Is(err, ErrCycle)).
func (d *Dynamic) Apply(b Batch) (ApplyResult, error) {
	n := len(d.ord)
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

	undo := &undoLog{nodesAdded: b.AddNodes}
	for i := 0; i < b.AddNodes; i++ {
		d.out = append(d.out, nil)
		d.in = append(d.in, nil)
		d.ord = append(d.ord, len(d.ord))
		d.pinned = append(d.pinned, false)
	}
	for _, e := range b.Remove {
		d.removeEdge(e[0], e[1])
		undo.removed = append(undo.removed, e)
	}
	for _, e := range b.Add {
		if err := d.insertEdge(e[0], e[1], undo); err != nil {
			d.rollback(undo)
			return ApplyResult{}, err
		}
		undo.added = append(undo.added, e)
	}

	d.edges += len(b.Add) - len(b.Remove)
	d.gen++
	res := ApplyResult{
		NodesAdded:   b.AddNodes,
		EdgesAdded:   len(b.Add),
		EdgesRemoved: len(b.Remove),
		FirstNewNode: -1,
		Reordered:    len(undo.ordNode),
	}
	if b.AddNodes > 0 {
		res.FirstNewNode = n
	}
	res.DirtyFwd, res.DirtyBwd = dirtySeeds(b)
	return res, nil
}

// dirtySeeds deduplicates the heads (forward seeds) and tails (backward
// seeds) of every changed edge.
func dirtySeeds(b Batch) (fwd, bwd []int) {
	fs := make(map[int]bool, len(b.Add)+len(b.Remove))
	bs := make(map[int]bool, len(b.Add)+len(b.Remove))
	for _, es := range [][][2]int{b.Add, b.Remove} {
		for _, e := range es {
			bs[e[0]] = true
			fs[e[1]] = true
		}
	}
	for v := range fs {
		fwd = append(fwd, v)
	}
	for v := range bs {
		bwd = append(bwd, v)
	}
	sort.Ints(fwd)
	sort.Ints(bwd)
	return fwd, bwd
}

// removeEdge swap-deletes (u, v) from both adjacency lists. The edge is
// known to exist. Deletions never invalidate the maintained order.
func (d *Dynamic) removeEdge(u, v int) {
	d.out[u] = swapOut(d.out[u], v)
	d.in[v] = swapOut(d.in[v], u)
}

func swapOut(adj []int, x int) []int {
	for i, w := range adj {
		if w == x {
			last := len(adj) - 1
			adj[i] = adj[last]
			return adj[:last]
		}
	}
	panic("dyn: edge missing from adjacency")
}

// insertEdge is the Pearce–Kelly insertion: when ord[u] > ord[v] it
// discovers the affected region between the endpoints, rejects the edge if
// v reaches u, and otherwise compacts ancestors-of-u before
// descendants-of-v into the same index slots, logging prior positions for
// rollback.
func (d *Dynamic) insertEdge(u, v int, undo *undoLog) error {
	if d.ord[u] > d.ord[v] {
		fwd, hitsU := d.forwardFrom(v, d.ord[u], u)
		if hitsU {
			return &CycleError{U: u, V: v}
		}
		bwd := d.backwardFrom(u, d.ord[v])
		d.reorder(bwd, fwd, undo)
	}
	d.out[u] = append(d.out[u], v)
	d.in[v] = append(d.in[v], u)
	return nil
}

// forwardFrom collects nodes reachable from start with order index ≤ ub,
// reporting whether target was reached.
func (d *Dynamic) forwardFrom(start, ub, target int) ([]int, bool) {
	seen := map[int]bool{start: true}
	stack := []int{start}
	var visited []int
	for len(stack) > 0 {
		x := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		visited = append(visited, x)
		for _, w := range d.out[x] {
			if w == target {
				return nil, true
			}
			if !seen[w] && d.ord[w] <= ub {
				seen[w] = true
				stack = append(stack, w)
			}
		}
	}
	return visited, false
}

// backwardFrom collects nodes that reach start with order index ≥ lb.
func (d *Dynamic) backwardFrom(start, lb int) []int {
	seen := map[int]bool{start: true}
	stack := []int{start}
	var visited []int
	for len(stack) > 0 {
		x := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		visited = append(visited, x)
		for _, w := range d.in[x] {
			if !seen[w] && d.ord[w] >= lb {
				seen[w] = true
				stack = append(stack, w)
			}
		}
	}
	return visited
}

// reorder reassigns the affected region's order indices — ancestors of u
// first, then descendants of v, each group keeping its internal relative
// order — logging every prior position.
func (d *Dynamic) reorder(deltaB, deltaF []int, undo *undoLog) {
	byOrd := func(s []int) {
		sort.Slice(s, func(i, j int) bool { return d.ord[s[i]] < d.ord[s[j]] })
	}
	byOrd(deltaB)
	byOrd(deltaF)
	nodes := append(append([]int(nil), deltaB...), deltaF...)
	slots := make([]int, len(nodes))
	for i, x := range nodes {
		slots[i] = d.ord[x]
	}
	sort.Ints(slots)
	for i, x := range nodes {
		if d.ord[x] != slots[i] {
			undo.ordNode = append(undo.ordNode, x)
			undo.ordVal = append(undo.ordVal, d.ord[x])
			d.ord[x] = slots[i]
		}
	}
}

// rollback restores the pre-batch state: un-append inserted edges (newest
// first, so tails pop correctly), restore order indices in reverse (the
// earliest save per node is applied last), re-append removed edges, and
// truncate grown arrays.
func (d *Dynamic) rollback(undo *undoLog) {
	for i := len(undo.added) - 1; i >= 0; i-- {
		u, v := undo.added[i][0], undo.added[i][1]
		d.out[u] = d.out[u][:len(d.out[u])-1]
		d.in[v] = d.in[v][:len(d.in[v])-1]
	}
	for i := len(undo.ordNode) - 1; i >= 0; i-- {
		d.ord[undo.ordNode[i]] = undo.ordVal[i]
	}
	for i := len(undo.removed) - 1; i >= 0; i-- {
		u, v := undo.removed[i][0], undo.removed[i][1]
		d.out[u] = append(d.out[u], v)
		d.in[v] = append(d.in[v], u)
	}
	if undo.nodesAdded > 0 {
		n := len(d.ord) - undo.nodesAdded
		d.out = d.out[:n]
		d.in = d.in[:n]
		d.ord = d.ord[:n]
		d.pinned = d.pinned[:n]
	}
}
