// Package acyclic implements the paper's Acyclic algorithm (§4.3): given an
// arbitrary directed c-graph and a source, extract a connected, maximal
// acyclic subgraph on which the DAG filter-placement algorithms can run.
//
// The algorithm keeps the paper's two phases — a DFS spanning tree rooted at
// the source, then greedy augmentation with every remaining edge that does
// not close a cycle — but replaces the paper's junction-signature test
// (which assumes DFS on a digraph yields no non-tree forward edges, untrue
// in general) with Pearce–Kelly incremental topological-order maintenance,
// which is exact: an edge is accepted if and only if the subgraph stays
// acyclic. The result is maximal with respect to the deterministic edge
// scan order.
//
// IncrementalDAG, the Pearce–Kelly structure, is also the core of dyn's
// mutable overlay, which batches insertions, deletions and node growth and
// rolls a rejected batch back through an Undo record.
package acyclic

import (
	"cmp"
	"slices"

	"repro/internal/graph"
)

// IncrementalDAG maintains a directed acyclic graph under edge insertions
// and deletions, rejecting any insertion that would create a cycle. It
// implements the Pearce–Kelly dynamic topological-ordering algorithm (ACM
// JEA 2006), whose amortized cost per insertion is bounded by the size of
// the "affected region" between the edge's endpoints. The searches and
// the reorder reuse scratch owned by the structure, so once it is warm an
// insertion allocates only when a neighbor list grows. Not safe for
// concurrent use.
type IncrementalDAG struct {
	out [][]int
	in  [][]int
	ord []int // ord[v] = position of v in the maintained topological order

	// Search scratch: mark[x] == stamp flags x as seen by the current
	// search; the slices are reused by every insertion.
	mark                   []uint32
	stamp                  uint32
	stack, fwd, bwd, slots []int
}

// Undo records the mutations of a batch — node growth, removals,
// insertions and every order shift they caused — so Rollback can restore
// the structure exactly. The zero value is an empty record.
type Undo struct {
	grown          int
	added, removed [][2]int
	ordNode        []int
	ordVal         []int
}

// Reordered counts the order-index changes recorded so far.
func (u *Undo) Reordered() int { return len(u.ordNode) }

// NewIncrementalDAG returns an empty DAG on n nodes with the identity
// topological order.
func NewIncrementalDAG(n int) *IncrementalDAG {
	d := &IncrementalDAG{
		out:  make([][]int, n),
		in:   make([][]int, n),
		ord:  make([]int, n),
		mark: make([]uint32, n),
	}
	for v := range d.ord {
		d.ord[v] = v
	}
	return d
}

// FromDAG copies the edges of an immutable DAG, ordered by its
// topological rank. Returns graph.ErrCyclic for cyclic inputs.
func FromDAG(g *graph.Digraph) (*IncrementalDAG, error) {
	rank, err := g.TopoRank()
	if err != nil {
		return nil, err
	}
	n := g.N()
	d := &IncrementalDAG{out: make([][]int, n), in: make([][]int, n), ord: rank, mark: make([]uint32, n)}
	for v := 0; v < n; v++ {
		d.out[v] = append([]int(nil), g.Out(v)...)
		d.in[v] = append([]int(nil), g.In(v)...)
	}
	return d, nil
}

// N returns the node count.
func (d *IncrementalDAG) N() int { return len(d.ord) }

// Out returns the current out-neighbors of v (arbitrary order). The slice
// aliases internal storage.
func (d *IncrementalDAG) Out(v int) []int { return d.out[v] }

// In returns the current in-neighbors of v (arbitrary order). The slice
// aliases internal storage.
func (d *IncrementalDAG) In(v int) []int { return d.in[v] }

// OrdOf returns the position of v in the maintained topological order.
func (d *IncrementalDAG) OrdOf(v int) int { return d.ord[v] }

// Rows returns every node's in- and out-neighbors (arbitrary order) and
// the maintained order, ord[v] being v's position. The slices alias
// internal storage and stay valid until the next mutation; callers must
// not modify them.
func (d *IncrementalDAG) Rows() (in, out [][]int, ord []int) { return d.in, d.out, d.ord }

// Order returns ord[v] for every v; it is always a valid topological order
// of the current edges.
func (d *IncrementalDAG) Order() []int { return append([]int(nil), d.ord...) }

// HasEdge reports whether (u, v) is present, scanning the shorter of u's
// out-list and v's in-list.
func (d *IncrementalDAG) HasEdge(u, v int) bool {
	if len(d.out[u]) <= len(d.in[v]) {
		return slices.Contains(d.out[u], v)
	}
	return slices.Contains(d.in[v], u)
}

// AddEdge inserts (u, v) if doing so keeps the graph acyclic and reports
// whether the edge was accepted. Self-loops are always rejected. Duplicate
// edges are accepted (and stored once).
func (d *IncrementalDAG) AddEdge(u, v int) bool {
	if u == v {
		return false
	}
	if d.HasEdge(u, v) {
		return true
	}
	return d.Insert(u, v, nil)
}

// Insert adds (u, v), which must be absent and not a self-loop, unless it
// would close a cycle, and reports whether it was added. When ord[u] >
// ord[v] it discovers the affected region between the endpoints, rejects
// the edge if v reaches u, and otherwise compacts the ancestors of u before
// the descendants of v into the same order slots. A non-nil undo records
// the insertion and every prior position it overwrote.
func (d *IncrementalDAG) Insert(u, v int, undo *Undo) bool {
	if d.ord[u] > d.ord[v] {
		if d.forwardFrom(v, d.ord[u], u) {
			return false // path v ⇝ u exists; (u,v) would close a cycle
		}
		d.backwardFrom(u, d.ord[v])
		d.reorder(undo)
	}
	d.out[u] = append(d.out[u], v)
	d.in[v] = append(d.in[v], u)
	if undo != nil {
		undo.added = append(undo.added, [2]int{u, v})
	}
	return true
}

// Remove swap-deletes (u, v), which must be present, recording it in undo
// when non-nil. Deletions never invalidate the maintained order.
func (d *IncrementalDAG) Remove(u, v int, undo *Undo) {
	d.out[u] = swapOut(d.out[u], v)
	d.in[v] = swapOut(d.in[v], u)
	if undo != nil {
		undo.removed = append(undo.removed, [2]int{u, v})
	}
}

func swapOut(adj []int, x int) []int {
	i := slices.Index(adj, x)
	if i < 0 {
		panic("acyclic: edge missing from adjacency")
	}
	last := len(adj) - 1
	adj[i] = adj[last]
	return adj[:last]
}

// Grow appends k isolated nodes at the end of the order, recording them in
// undo when non-nil.
func (d *IncrementalDAG) Grow(k int, undo *Undo) {
	for i := 0; i < k; i++ {
		d.out = append(d.out, nil)
		d.in = append(d.in, nil)
		d.ord = append(d.ord, len(d.ord))
		d.mark = append(d.mark, 0)
	}
	if undo != nil {
		undo.grown += k
	}
}

// Rollback restores the state before the mutations recorded in undo:
// un-append inserted edges (newest first, so tails pop correctly), restore
// order indices in reverse (the earliest save per node is applied last),
// re-append removed edges, and truncate grown nodes. Neighbor lists may
// come back permuted; the edge set and the order are exact.
func (d *IncrementalDAG) Rollback(undo *Undo) {
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
	if undo.grown > 0 {
		n := len(d.ord) - undo.grown
		d.out, d.in, d.ord, d.mark = d.out[:n], d.in[:n], d.ord[:n], d.mark[:n]
	}
}

// newSearch starts a fresh seen-set holding start and returns the search
// stack, reset to start.
func (d *IncrementalDAG) newSearch(start int) []int {
	d.stamp++
	if d.stamp == 0 { // wrapped: old marks would alias the new stamp
		clear(d.mark)
		d.stamp = 1
	}
	d.mark[start] = d.stamp
	return append(d.stack[:0], start)
}

// forwardFrom collects into d.fwd the nodes reachable from start whose
// order index is at most ub, reporting whether target was reached.
func (d *IncrementalDAG) forwardFrom(start, ub, target int) bool {
	stack := d.newSearch(start)
	visited := d.fwd[:0]
	hit := false
	for len(stack) > 0 && !hit {
		x := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		visited = append(visited, x)
		for _, w := range d.out[x] {
			if w == target {
				hit = true
				break
			}
			if d.mark[w] != d.stamp && d.ord[w] <= ub {
				d.mark[w] = d.stamp
				stack = append(stack, w)
			}
		}
	}
	d.stack, d.fwd = stack, visited
	return hit
}

// backwardFrom collects into d.bwd the nodes that reach start whose order
// index is at least lb.
func (d *IncrementalDAG) backwardFrom(start, lb int) {
	stack := d.newSearch(start)
	visited := d.bwd[:0]
	for len(stack) > 0 {
		x := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		visited = append(visited, x)
		for _, w := range d.in[x] {
			if d.mark[w] != d.stamp && d.ord[w] >= lb {
				d.mark[w] = d.stamp
				stack = append(stack, w)
			}
		}
	}
	d.stack, d.bwd = stack, visited
}

// reorder reassigns the order indices of the affected region so every node
// that must precede comes first: the backward set (ancestors of u) takes
// the smallest available indices in its existing relative order, followed
// by the forward set (descendants of v). A non-nil undo records every
// prior position.
func (d *IncrementalDAG) reorder(undo *Undo) {
	byOrd := func(a, b int) int { return cmp.Compare(d.ord[a], d.ord[b]) }
	slices.SortFunc(d.bwd, byOrd)
	slices.SortFunc(d.fwd, byOrd)
	groups := [2][]int{d.bwd, d.fwd}
	slots := d.slots[:0]
	for _, group := range groups {
		for _, x := range group {
			slots = append(slots, d.ord[x])
		}
	}
	slices.Sort(slots)
	d.slots = slots
	i := 0
	for _, group := range groups {
		for _, x := range group {
			if d.ord[x] != slots[i] {
				if undo != nil {
					undo.ordNode = append(undo.ordNode, x)
					undo.ordVal = append(undo.ordVal, d.ord[x])
				}
				d.ord[x] = slots[i]
			}
			i++
		}
	}
}
