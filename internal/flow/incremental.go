package flow

import "fmt"

// DynDigraph is the mutable graph view the incremental evaluator and the
// Splicer consume: a directed acyclic graph that mutates between Update
// calls and maintains a topological order. dyn.Dynamic implements it; the
// interface lives here so flow does not import the mutable overlay.
type DynDigraph interface {
	// Rows returns the view's adjacency and order as plain slices: in[v]
	// and out[v] list v's in- and out-neighbors in arbitrary order, and
	// ord[v] is v's position in a maintained topological order — a
	// permutation of [0, len(ord)), valid for the current edge set
	// whenever Update or SetFilter runs. The slices alias the view's
	// storage and stay valid until its next mutation; callers only read
	// them.
	Rows() (in, out [][]int, ord []int)
}

// IncStats counts the nodes the incremental engine actually recomputed —
// the observable form of dirty-region tracking. Cumulative; callers diff
// snapshots to attribute work to a mutation batch.
type IncStats struct {
	// ForwardVisits counts rec/emit recomputations (descendant cones).
	ForwardVisits int
	// BackwardVisits counts suffix recomputations (ancestor cones).
	BackwardVisits int
}

// Incremental maintains the propagation state rec, emit and suffix of a
// mutating DAG under a fixed filter mask, recomputing only the dirty cone
// after each change: descendants of edge heads for the forward quantities,
// ancestors of edge tails for the backward one. It supports only the
// deterministic (unweighted) model — exactly what the fpd daemon serves —
// and is the engine behind dyn.Maintainer, which keeps one per maintained
// placement.
//
// Unlike FloatEngine, whose every query runs full O(|E|) passes, an
// Incremental amortizes: a 1% TwitterChurn batch on TwitterLike(0.5)
// recomputes about 1.5% of the nodes forward and 1.8% backward, and a
// filter toggle only its own cones, so placement repair after small
// batches costs a fraction of re-evaluating from scratch.
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
	heap       []int  // Update's heap buffer, reused by both sweeps
	stats      IncStats
}

// NewIncrementalWith builds the engine over g with the given sources and
// filters (nil for none) and initializes it on the flat forwardRange/
// suffixRange kernels of p — sequential position order, no per-node heap
// or interface dispatch — scattering the results back to original-id
// indexing. p must be an unweighted plan of g's current graph (a
// Splicer's plan is). sources must have in-degree 0 now and forever (dyn
// pins them).
func NewIncrementalWith(g DynDigraph, sources, filters []int, p *Plan) *Incremental {
	_, _, ord := g.Rows()
	n := len(ord)
	if p.n != n || p.weighted {
		panic(fmt.Sprintf("flow: Incremental over a plan of %d nodes (weighted %v), view has %d", p.n, p.weighted, n))
	}
	e := &Incremental{g: g, isSrc: MaskOf(n, sources), filters: MaskOf(n, filters)}
	e.alloc(n)
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
	e.stats = IncStats{ForwardVisits: n, BackwardVisits: n}
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
// neither sources nor filters and must still be isolated — grow before
// applying the batch's edge seeds via Update.
func (e *Incremental) Grow() {
	_, _, ord := e.g.Rows()
	n := len(ord)
	if n <= len(e.rec) {
		return
	}
	grow := func(s []float64) []float64 { return append(s, make([]float64, n-len(s))...) }
	e.rec, e.emit, e.suf = grow(e.rec), grow(e.emit), grow(e.suf)
	k := n - len(e.isSrc)
	e.isSrc = append(e.isSrc, make([]bool, k)...)
	e.filters = append(e.filters, make([]bool, k)...)
	e.inQF = append(e.inQF, make([]bool, k)...)
	e.inQB = append(e.inQB, make([]bool, k)...)
}

// recompute refreshes rec and emit at v from its in-neighbors in the
// view's in-rows, reporting whether emit changed.
func (e *Incremental) recompute(v int, in [][]int) bool {
	r := 0.0
	for _, p := range in[v] {
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

// recomputeSuf refreshes suffix at v from its out-neighbors in the
// view's out-rows, reporting whether it changed.
func (e *Incremental) recomputeSuf(v int, out [][]int) bool {
	s := 0.0
	for _, c := range out[v] {
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
// inputs are read, never recomputed. The view's rows are fetched once per
// call; both sweeps read them as plain slices.
func (e *Incremental) Update(fwdSeeds, bwdSeeds []int) {
	if len(fwdSeeds) == 0 && len(bwdSeeds) == 0 {
		return
	}
	in, out, ord := e.g.Rows()
	// Forward sweep: ascending order positions, min-heap.
	hf := ordHeap{a: e.heap[:0], ord: ord}
	for _, v := range fwdSeeds {
		hf.pushOnce(v, e.inQF)
	}
	for len(hf.a) > 0 {
		v := hf.pop()
		e.inQF[v] = false
		e.stats.ForwardVisits++
		if e.recompute(v, in) {
			for _, w := range out[v] {
				hf.pushOnce(w, e.inQF)
			}
		}
	}
	// Backward sweep: descending order positions, max-heap.
	hb := ordHeap{a: hf.a, ord: ord, desc: true}
	for _, v := range bwdSeeds {
		hb.pushOnce(v, e.inQB)
	}
	for len(hb.a) > 0 {
		v := hb.pop()
		e.inQB[v] = false
		e.stats.BackwardVisits++
		if e.recomputeSuf(v, out) {
			for _, p := range in[v] {
				hb.pushOnce(p, e.inQB)
			}
		}
	}
	e.heap = hb.a
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
	in, _, _ := e.g.Rows()
	e.Update([]int{v}, in[v])
}

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

// ordHeap is a binary heap of node ids keyed by their position in the
// view's topological order — a min-heap, or a max-heap when desc is set —
// with O(1) duplicate suppression through a shared membership mask.
type ordHeap struct {
	a    []int
	ord  []int
	desc bool
}

func (h *ordHeap) less(x, y int) bool {
	if h.desc {
		return h.ord[x] > h.ord[y]
	}
	return h.ord[x] < h.ord[y]
}

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
