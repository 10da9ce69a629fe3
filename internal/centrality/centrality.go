// Package centrality implements betweenness centrality (Brandes'
// algorithm) for directed graphs.
//
// The paper's related-work section (§2) argues that filter placement is
// *not* a centrality problem: "nodes with the highest betweenness
// centrality are x and y. However, the only node where we can apply
// meaningful filtering functionality in this graph is z2." This package
// exists to make that argument executable — the experiment harness places
// filters at the top-k betweenness nodes and shows the resulting Filter
// Ratio trailing every impact-aware algorithm.
package centrality

import "sort"

// Graph is the minimal digraph view the algorithms need; satisfied by
// *graph.Digraph.
type Graph interface {
	N() int
	Out(v int) []int
}

// Betweenness returns the betweenness centrality of every node of a
// directed unweighted graph: the number of shortest (u,w)-paths through v,
// summed over all ordered pairs u ≠ w distinct from v, with each pair
// contributing fractionally when it has several shortest paths. It runs
// Brandes' algorithm (one BFS plus one dependency-accumulation sweep per
// source), O(n·(n+m)) total.
func Betweenness(g Graph) []float64 {
	acc := newAccumulator(g)
	for s := 0; s < g.N(); s++ {
		acc.addSource(s)
	}
	return acc.cb
}

// accumulator holds the reusable per-source state of Brandes' algorithm.
type accumulator struct {
	g     Graph
	cb    []float64
	dist  []int
	sigma []float64 // number of shortest paths from the current source
	delta []float64 // dependency accumulator
	order []int     // nodes in non-decreasing distance
	preds [][]int
}

func newAccumulator(g Graph) *accumulator {
	n := g.N()
	return &accumulator{
		g:     g,
		cb:    make([]float64, n),
		dist:  make([]int, n),
		sigma: make([]float64, n),
		delta: make([]float64, n),
		order: make([]int, 0, n),
		preds: make([][]int, n),
	}
}

// addSource runs one Brandes iteration: BFS from s, then dependency
// accumulation in reverse BFS order.
func (a *accumulator) addSource(s int) {
	g := a.g
	n := g.N()
	for i := 0; i < n; i++ {
		a.dist[i] = -1
		a.sigma[i] = 0
		a.delta[i] = 0
		a.preds[i] = a.preds[i][:0]
	}
	a.order = a.order[:0]
	a.dist[s] = 0
	a.sigma[s] = 1
	queue := []int{s}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		a.order = append(a.order, v)
		for _, w := range g.Out(v) {
			if a.dist[w] < 0 {
				a.dist[w] = a.dist[v] + 1
				queue = append(queue, w)
			}
			if a.dist[w] == a.dist[v]+1 {
				a.sigma[w] += a.sigma[v]
				a.preds[w] = append(a.preds[w], v)
			}
		}
	}
	for i := len(a.order) - 1; i >= 0; i-- {
		w := a.order[i]
		for _, v := range a.preds[w] {
			a.delta[v] += a.sigma[v] / a.sigma[w] * (1 + a.delta[w])
		}
		if w != s {
			a.cb[w] += a.delta[w]
		}
	}
}

// TopK returns the k nodes with the highest betweenness, ties toward
// smaller ids, zero-centrality nodes excluded — the "place filters at the
// most central nodes" strawman the paper's §2 discusses.
func TopK(g Graph, k int) []int {
	cb := Betweenness(g)
	idx := make([]int, 0, len(cb))
	for v, c := range cb {
		if c > 0 {
			idx = append(idx, v)
		}
	}
	sort.Slice(idx, func(i, j int) bool {
		a, b := idx[i], idx[j]
		if cb[a] != cb[b] {
			return cb[a] > cb[b]
		}
		return a < b
	})
	if len(idx) > k {
		idx = idx[:k]
	}
	return idx
}
