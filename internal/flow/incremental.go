package flow

import "fmt"

// DynDigraph is the adjacency view the incremental evaluator consumes: a
// directed acyclic graph that mutates between Update calls, exposing its
// maintained topological order. dyn.Dynamic implements it; the interface
// lives here so flow does not import the mutable overlay.
type DynDigraph interface {
	N() int
	Out(v int) []int
	In(v int) []int
	// OrdOf returns v's position in a maintained topological order; values
	// form a permutation of [0, N()) and must be valid for the current edge
	// set whenever Update or SetFilter runs.
	OrdOf(v int) int
}

// IncStats counts the nodes the incremental engine actually recomputed —
// the observable form of dirty-region tracking. Cumulative; callers diff
// snapshots to attribute work to a mutation batch.
type IncStats struct {
	// ForwardVisits counts rec/emit recomputations (descendant cones).
	ForwardVisits int
	// BackwardVisits counts suffix recomputations (ancestor cones).
	BackwardVisits int
	// Updates counts Update/SetFilter calls that did any work.
	Updates int
}

// Incremental maintains the propagation state rec, emit and suffix of a
// mutating DAG under a fixed filter mask, recomputing only the dirty cone
// after each change: descendants of edge heads for the forward quantities,
// ancestors of edge tails for the backward one. It supports only the
// deterministic (unweighted) model — exactly what the fpd daemon serves —
// and is the engine behind dyn.Maintainer.
//
// Unlike FloatEngine, whose every query runs full O(|E|) passes, an
// Incremental amortizes: a localized mutation on a Twitter-shaped graph
// touches a handful of nodes, so placement maintenance after small batches
// costs orders of magnitude less than re-evaluating from scratch.
//
// Not safe for concurrent use.
type Incremental struct {
	g       DynDigraph
	isSrc   []bool
	filters []bool
	rec     []float64
	emit    []float64
	suf     []float64

	inQF, inQB []bool // queue-membership scratch
	// ordBuf is the reusable whole-graph sweep order (the dynamic
	// counterpart of a static plan's level-packed order, rebuilt from the
	// maintained positions instead of precomputed): Reinit refreshes it in
	// place, so full re-initializations after drift stop allocating O(N)
	// per call.
	ordBuf []int
	stats  IncStats
}

// NewIncremental builds the engine and runs one full initialization pass.
// sources must have in-degree 0 now and forever (dyn pins them); filters
// may be nil for the empty mask.
func NewIncremental(g DynDigraph, sources, filters []int) *Incremental {
	return NewIncrementalWith(g, sources, filters, nil)
}

// NewIncrementalWith is NewIncremental with the initialization pass run on
// the flat kernels of p (see ReinitWith) instead of the scalar sweeps. p
// may be nil or stale; the scalar path is the fallback.
func NewIncrementalWith(g DynDigraph, sources, filters []int, p *Plan) *Incremental {
	n := g.N()
	e := &Incremental{g: g}
	e.isSrc = make([]bool, n)
	for _, s := range sources {
		e.isSrc[s] = true
	}
	e.filters = make([]bool, n)
	for _, v := range filters {
		e.filters[v] = true
	}
	e.alloc(n)
	e.ReinitWith(p)
	return e
}

func (e *Incremental) alloc(n int) {
	e.rec = make([]float64, n)
	e.emit = make([]float64, n)
	e.suf = make([]float64, n)
	e.inQF = make([]bool, n)
	e.inQB = make([]bool, n)
}

// Grow resizes the engine to the view's current node count. New nodes are
// non-source; filterNew marks them as filters (the all-filters state grows
// that way). New nodes must still be isolated — grow before applying the
// batch's edge seeds via Update.
func (e *Incremental) Grow(filterNew bool) {
	n := e.g.N()
	if n <= len(e.rec) {
		return
	}
	grow := func(s []float64) []float64 { return append(s, make([]float64, n-len(s))...) }
	e.rec, e.emit, e.suf = grow(e.rec), grow(e.emit), grow(e.suf)
	for len(e.isSrc) < n {
		e.isSrc = append(e.isSrc, false)
		e.filters = append(e.filters, filterNew)
		e.inQF = append(e.inQF, false)
		e.inQB = append(e.inQB, false)
	}
}

// Reinit recomputes the full state with two whole-graph passes; used at
// construction and when a consumer lost sync with the view's mutations.
func (e *Incremental) Reinit() {
	n := e.g.N()
	if cap(e.ordBuf) < n {
		e.ordBuf = make([]int, n)
	}
	order := e.ordBuf[:n]
	for v := 0; v < n; v++ {
		order[e.g.OrdOf(v)] = v
	}
	for _, v := range order {
		e.recompute(v)
	}
	for i := n - 1; i >= 0; i-- {
		e.recomputeSuf(order[i])
	}
	e.stats.ForwardVisits += n
	e.stats.BackwardVisits += n
	e.stats.Updates++
}

// ReinitWith recomputes the full state like Reinit but on the flat
// forwardRange/suffixRange kernels of an up-to-date execution plan —
// sequential position order, no per-node heap or interface dispatch — and
// scatters the results back to original-id indexing. This is the path
// that makes dyn.Maintainer's "missed batches" rebuild run at plan-kernel
// speed instead of being the slowest pass in the system. A nil, stale or
// weighted plan falls back to the scalar Reinit.
func (e *Incremental) ReinitWith(p *Plan) {
	n := e.g.N()
	if p == nil || p.n != n || p.weighted {
		e.Reinit()
		return
	}
	s := p.getScratch()
	srcBuf := p.GetMask()
	src := p.fillMask(srcBuf, e.isSrc)
	fmask := p.fillMask(s.fmask, e.filters)
	p.forwardRange(src, fmask, 0, s.rec, s.emit, 0, n)
	p.suffixRange(fmask, 0, s.suf, 0, n)
	for i, v := range p.perm {
		e.rec[v] = s.rec[i]
		e.emit[v] = s.emit[i]
		e.suf[v] = s.suf[i]
	}
	p.PutMask(srcBuf)
	p.putScratch(s)
	e.stats.ForwardVisits += n
	e.stats.BackwardVisits += n
	e.stats.Updates++
}

// recompute refreshes rec and emit at v from its in-neighbors, reporting
// whether emit changed.
func (e *Incremental) recompute(v int) bool {
	r := 0.0
	for _, p := range e.g.In(v) {
		r += e.emit[p]
	}
	e.rec[v] = r
	var em float64
	switch {
	case e.isSrc[v]:
		em = 1
	case e.filters[v] && r > 1:
		em = 1
	default:
		em = r
	}
	changed := em != e.emit[v]
	e.emit[v] = em
	return changed
}

// recomputeSuf refreshes suffix at v from its out-neighbors, reporting
// whether it changed.
func (e *Incremental) recomputeSuf(v int) bool {
	s := 0.0
	for _, c := range e.g.Out(v) {
		if e.filters[c] {
			s++
		} else {
			s += 1 + e.suf[c]
		}
	}
	changed := s != e.suf[v]
	e.suf[v] = s
	return changed
}

// Update propagates a mutation already applied to the view: fwdSeeds are
// the heads of changed edges (their rec is stale), bwdSeeds the tails
// (their suffix is stale). Recomputation visits only nodes whose values
// actually change — the dirty cone — in topological order, so clean
// inputs are read, never recomputed.
func (e *Incremental) Update(fwdSeeds, bwdSeeds []int) {
	if len(fwdSeeds) == 0 && len(bwdSeeds) == 0 {
		return
	}
	// Forward sweep: ascending order positions, min-heap.
	var hf ordHeap
	hf.less = func(a, b int) bool { return e.g.OrdOf(a) < e.g.OrdOf(b) }
	for _, v := range fwdSeeds {
		hf.pushOnce(v, e.inQF)
	}
	for hf.len() > 0 {
		v := hf.pop()
		e.inQF[v] = false
		e.stats.ForwardVisits++
		if e.recompute(v) {
			for _, w := range e.g.Out(v) {
				hf.pushOnce(w, e.inQF)
			}
		}
	}
	// Backward sweep: descending order positions, max-heap.
	var hb ordHeap
	hb.less = func(a, b int) bool { return e.g.OrdOf(a) > e.g.OrdOf(b) }
	for _, v := range bwdSeeds {
		hb.pushOnce(v, e.inQB)
	}
	for hb.len() > 0 {
		v := hb.pop()
		e.inQB[v] = false
		e.stats.BackwardVisits++
		if e.recomputeSuf(v) {
			for _, p := range e.g.In(v) {
				hb.pushOnce(p, e.inQB)
			}
		}
	}
	e.stats.Updates++
}

// SetFilter toggles the filter at v and repairs the state: a filter change
// alters v's emission (descendant cone) and its parents' suffix terms
// (ancestor cone). Toggling a source is a no-op (sources already emit one
// copy).
func (e *Incremental) SetFilter(v int, on bool) {
	if e.filters[v] == on || e.isSrc[v] {
		return
	}
	e.filters[v] = on
	e.Update([]int{v}, e.g.In(v))
}

// Clone returns an independent copy of the engine's propagation state
// sharing the same graph view. Clones support concurrent read/Update use
// on their own state while the overlay itself is quiescent (the view is
// shared, not copied); dyn.Maintainer uses clones to probe candidate
// repairs without disturbing the live state.
func (e *Incremental) Clone() *Incremental {
	c := &Incremental{g: e.g, stats: e.stats}
	c.isSrc = append([]bool(nil), e.isSrc...)
	c.filters = append([]bool(nil), e.filters...)
	c.rec = append([]float64(nil), e.rec...)
	c.emit = append([]float64(nil), e.emit...)
	c.suf = append([]float64(nil), e.suf...)
	c.inQF = make([]bool, len(e.inQF))
	c.inQB = make([]bool, len(e.inQB))
	return c
}

// IsFilter reports whether v is currently a filter.
func (e *Incremental) IsFilter(v int) bool { return e.filters[v] }

// FilterNodes returns the current filter set, ascending.
func (e *Incremental) FilterNodes() []int { return NodesOf(e.filters) }

// Phi returns Φ(A, V) — the total copies received — from cached state.
// The O(n) sum avoids the numeric drift of maintaining a running total.
func (e *Incremental) Phi() float64 {
	total := 0.0
	for _, r := range e.rec {
		total += r
	}
	return total
}

// Rec returns the cached received count Φ(A, v).
func (e *Incremental) Rec(v int) float64 { return e.rec[v] }

// Suf returns the cached downstream amplification of v.
func (e *Incremental) Suf(v int) float64 { return e.suf[v] }

// Gain returns the exact marginal gain F(A∪{v}) − F(A) from cached state
// (0 for sources and current filters).
func (e *Incremental) Gain(v int) float64 {
	if e.isSrc[v] || e.filters[v] || e.rec[v] <= 1 {
		return 0
	}
	return (e.rec[v] - 1) * e.suf[v]
}

// HeldGain returns, for a current filter v, the reduction it is presently
// responsible for if it were the last filter added: (rec−1)·suffix under
// the current state. It is the Maintainer's cheap weakest-filter proxy
// (an under-estimate of the true removal loss, by submodularity).
func (e *Incremental) HeldGain(v int) float64 {
	if !e.filters[v] || e.rec[v] <= 1 {
		return 0
	}
	return (e.rec[v] - 1) * e.suf[v]
}

// ArgmaxGain returns the non-filter node with the largest marginal gain
// and that gain, ties toward the smaller id; v = -1 when every gain is 0.
func (e *Incremental) ArgmaxGain() (int, float64) {
	best, bestGain := -1, 0.0
	for v := range e.rec {
		if g := e.Gain(v); g > bestGain {
			best, bestGain = v, g
		}
	}
	return best, bestGain
}

// Stats returns the cumulative recomputation counters.
func (e *Incremental) Stats() IncStats { return e.stats }

// check panics unless the engine state matches a from-scratch pass; test
// hook.
func (e *Incremental) check(tol float64) {
	n := e.g.N()
	order := make([]int, n)
	for v := 0; v < n; v++ {
		order[e.g.OrdOf(v)] = v
	}
	fresh := &Incremental{g: e.g, isSrc: e.isSrc, filters: e.filters}
	fresh.alloc(n)
	for _, v := range order {
		fresh.recompute(v)
	}
	for i := n - 1; i >= 0; i-- {
		fresh.recomputeSuf(order[i])
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

// ordHeap is a binary heap of node ids under a caller-supplied ordering,
// with O(1) duplicate suppression through a shared membership mask.
type ordHeap struct {
	a    []int
	less func(a, b int) bool
}

func (h *ordHeap) len() int { return len(h.a) }

func (h *ordHeap) pushOnce(v int, inQ []bool) {
	if inQ[v] {
		return
	}
	inQ[v] = true
	h.a = append(h.a, v)
	i := len(h.a) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !h.less(h.a[i], h.a[p]) {
			break
		}
		h.a[p], h.a[i] = h.a[i], h.a[p]
		i = p
	}
}

func (h *ordHeap) pop() int {
	top := h.a[0]
	last := len(h.a) - 1
	h.a[0] = h.a[last]
	h.a = h.a[:last]
	i := 0
	for {
		l, r, small := 2*i+1, 2*i+2, i
		if l < len(h.a) && h.less(h.a[l], h.a[small]) {
			small = l
		}
		if r < len(h.a) && h.less(h.a[r], h.a[small]) {
			small = r
		}
		if small == i {
			break
		}
		h.a[i], h.a[small] = h.a[small], h.a[i]
		i = small
	}
	return top
}
