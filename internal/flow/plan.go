package flow

import (
	"sync"

	"repro/internal/graph"
)

// Plan is a per-graph, immutable execution plan: everything about HOW a
// forward or suffix pass iterates a c-graph, precomputed once per Model
// and shared by every engine, clone and placement that evaluates it.
//
// The propagation passes dominate placement time and are memory-bound: the
// pre-plan engines walked Model.Topo() and gathered each node's neighbors
// through the Digraph's CSR, so consecutive iterations touched rec/emit
// slots scattered across the whole array. The plan removes that scatter at
// construction time:
//
//   - Nodes are RENUMBERED level-contiguously: plan position i carries
//     original node perm[i], positions are grouped by topological level
//     (depth), and within a level nodes are ordered by ascending original
//     id. The level-contiguous order is itself a topological order, so a
//     serial pass is one strictly sequential sweep over positions 0..n-1
//     — no index vector in the loop at all. The layout is CANONICAL — a
//     pure function of the edge set, independent of the order rows are
//     given in — which is what lets a plan rebuilt from a mutable overlay
//     (see Splicer) be array-for-array identical to a from-scratch build,
//     and every model over the same edges answer the same Model.Topo.
//   - The in- and out-adjacency CSR is RE-INDEXED to plan positions, with
//     each node's neighbor list kept in ascending ORIGINAL id order — the
//     exact accumulation order of the pre-plan kernels, which is what
//     makes plan-backed float results bit-for-bit identical.
//   - Edge weights (probabilistic models) are flattened into per-edge
//     arrays aligned with the CSR, so the weighted kernel reads w[j]
//     instead of calling a closure per edge.
//
// The flat kernels (forwardRange/suffixRange) are written index-based with
// hoisted bounds checks and branch-light filter masking so a GOAMD64=v3
// build can keep them in the pipeline; the dominant win on current gc
// toolchains is the sequential rec/emit/suf access pattern plus the
// disappearance of per-edge closure and interface calls.
//
// A Plan also owns the scratch-buffer arena for its graph: engines and
// their clones borrow plan-sized rec/emit/suf/mask buffers from a pool
// (getScratch/GetMask) instead of allocating per clone, which is what
// drops the per-candidate sharding in core.Place to ~zero steady-state
// allocations.
//
// Every plan is laid out by layoutPlan from rows alone — by NewModel and
// WithWeights when the model is made, by a Splicer after each mutation
// batch, and by Coarsen for its quotient — whose Kahn pass finds the
// levels and rejects cycles. Plans are safe for concurrent use; all
// exported and unexported methods are read-only with respect to the plan
// itself.
type Plan struct {
	n        int
	weighted bool

	// perm maps plan position -> original node id; pos is its inverse.
	// identity marks the common generated-graph case where node ids are
	// already level-contiguous (perm[i] == i), letting mask translation
	// and the original-order sum skip their gathers.
	perm     []int32
	pos      []int32
	identity bool

	// levelOff are the level boundaries: level l occupies plan positions
	// [levelOff[l], levelOff[l+1]). Every in-neighbor of a position in
	// level l lies in a level < l; every out-neighbor in a level > l.
	levelOff []int32

	// In-CSR over plan positions: the in-neighbors of position i are
	// inAdj[inOff[i]:inOff[i+1]], listed in ascending ORIGINAL id order.
	// inW, when non-nil, carries the relay probability of each in-edge.
	inOff []int32
	inAdj []int32
	inW   []float64

	// Out-CSR, symmetric to the above.
	outOff []int32
	outAdj []int32
	outW   []float64

	// mulW, when non-nil, is the plan-indexed node multiplicity of a
	// coarse (quotient) model: position i stands for mulW[i] contracted
	// receivers beyond itself. The suffix kernel seeds suf[i] with it and
	// sumPhi adds mulW[i]·emit[i] per node, so coarse Φ/gain evaluation
	// runs on the same flat kernels as ordinary plans. nil everywhere else
	// — the hot kernels of ordinary models are untouched.
	mulW []float64

	// falseMask is a shared all-false mask handed to kernels when the
	// caller passes nil filters; it is never written.
	falseMask []bool

	// arena holds the pooled scratch buffers. It is SHARED across the
	// lineage of a plan (every Splicer repair hands the new plan
	// the old plan's arena), so a dynamic graph keeps its warm buffers
	// across mutations instead of repaying the allocation after every
	// batch; buffers grow in place when AddNodes extends the graph.
	arena *planArena
}

// planArena is the pooled scratch shared by a plan and all of its
// Splicer descendants. Buffers are sized lazily against the borrowing
// plan's n — a pool entry allocated for an older, smaller plan is grown
// (never shrunk) on its next borrow.
type planArena struct {
	scratch sync.Pool // *floatScratch
	masks   sync.Pool // *[]bool
}

func newPlanArena() *planArena {
	a := &planArena{}
	a.scratch.New = func() any { return &floatScratch{} }
	a.masks.New = func() any { return new([]bool) }
	return a
}

// floatScratch is one borrowed working set for float passes over a plan:
// plan-indexed rec/emit/suf plus a plan-order filter mask. All four live
// together so an engine borrows and releases them as one arena.
type floatScratch struct {
	rec, emit, suf []float64
	fmask          []bool
}

// ensure resizes the working set to n slots, reslicing in place when
// capacity allows (the warm-arena path after a PATCH grows a graph).
func (s *floatScratch) ensure(n int) {
	if cap(s.rec) < n || cap(s.fmask) < n {
		s.rec = make([]float64, n)
		s.emit = make([]float64, n)
		s.suf = make([]float64, n)
		s.fmask = make([]bool, n)
		return
	}
	s.rec, s.emit, s.suf, s.fmask = s.rec[:n], s.emit[:n], s.suf[:n], s.fmask[:n]
}

// layoutPlan is the one plan builder (for NewModel, WithWeights,
// Splicer.rebuildPlan and Coarsen). It takes each of the n = len(in)
// nodes' in- and out-row in any order (parallel edges repeat; out must be
// in's transpose) and finds the levels itself with one FIFO Kahn pass
// (Kahn, CACM 1962), which is also the acyclicity check: it returns
// ErrNotDAG when fewer than n nodes drain. Rows come out in ascending
// original-id order, so equal edge multisets give array-for-array equal
// plans whatever the input's row order. weight, when non-nil, is baked
// into per-edge arrays, and mul, when non-nil, into a coarse plan's mulW.
// The plan gets a fresh scratch arena.
func layoutPlan(in, out [][]int, weight func(u, v int) float64, mul []int64) (*Plan, error) {
	n := len(in)
	p := &Plan{n: n, weighted: weight != nil, perm: make([]int32, n), pos: make([]int32, n), arena: newPlanArena()}
	// The Kahn pass runs in the plan's own arrays: perm holds the queue and
	// pos each node's count of undrained in-edges, overwritten by its depth
	// (0 for in-degree-0 nodes, else 1 + the max over its in-neighbors)
	// once the count reaches zero. FIFO order drains nodes in nondecreasing
	// depth, so the in-neighbor that drains a node last is its deepest.
	queue, depth := p.perm, p.pos
	tail := 0
	for v, row := range in {
		depth[v] = int32(len(row))
		if depth[v] == 0 {
			queue[tail] = int32(v)
			tail++
		}
	}
	for head := 0; head < tail; head++ {
		v := queue[head]
		d := depth[v] + 1
		for _, c := range out[v] {
			if depth[c]--; depth[c] == 0 {
				depth[c] = d
				queue[tail] = int32(c)
				tail++
			}
		}
	}
	if tail < n {
		return nil, ErrNotDAG
	}
	maxDepth := int32(-1)
	if n > 0 {
		maxDepth = depth[queue[n-1]]
	}
	p.layoutLevels(maxDepth)

	// Rows are not copied from the input, whose order is arbitrary (the
	// overlay swap-deletes). Instead each row is sized from its length,
	// and both CSRs are filled in one sweep over original ids in ascending
	// order: tail u is appended to the in-row of each head in out[u], and
	// head u to the out-row of each tail in in[u]. Every row therefore
	// comes out in ascending original-id order — the pre-plan kernels'
	// accumulation order — with no sort. off[i+1] serves as row i's fill
	// cursor: it starts at row i's first slot and ends at its last slot
	// + 1, which is row i+1's start.
	inOff, outOff := make([]int32, n+1), make([]int32, n+1)
	var ein, eout int32
	for i, v := range p.perm {
		inOff[i+1], outOff[i+1] = ein, eout
		ein += int32(len(in[v]))
		eout += int32(len(out[v]))
	}
	inAdj, outAdj := make([]int32, ein), make([]int32, eout)
	pos := p.pos
	for u := range n {
		pu := pos[u]
		for _, c := range out[u] {
			j := pos[c] + 1
			inAdj[inOff[j]] = pu
			inOff[j]++
		}
		for _, q := range in[u] {
			j := pos[q] + 1
			outAdj[outOff[j]] = pu
			outOff[j]++
		}
	}
	p.inOff, p.inAdj, p.outOff, p.outAdj = inOff, inAdj, outOff, outAdj

	// Weights are baked after the sweep, not in it: a closure call inside
	// the sweep's loops slowed the unweighted overlay rebuild by a fifth.
	if weight != nil {
		p.inW, p.outW = make([]float64, ein), make([]float64, eout)
		for i, v := range p.perm {
			for j := inOff[i]; j < inOff[i+1]; j++ {
				p.inW[j] = weight(int(p.perm[inAdj[j]]), int(v))
			}
			for j := outOff[i]; j < outOff[i+1]; j++ {
				p.outW[j] = weight(int(v), int(p.perm[outAdj[j]]))
			}
		}
	}
	if mul != nil {
		p.mulW = make([]float64, n)
		for i, v := range p.perm {
			p.mulW[i] = float64(mul[v])
		}
	}
	p.falseMask = make([]bool, n)
	return p, nil
}

// layoutLevels lays out the canonical level-contiguous permutation from
// each node's depth, which layoutPlan's Kahn pass leaves in pos, and the
// maximum depth. A counting sort by depth, stable in ascending original-id
// order, yields perm/pos/levelOff — still a valid topological order,
// since edges always cross into a strictly deeper level. pos is rewritten
// in place: node v's depth is read just before its position replaces it.
func (p *Plan) layoutLevels(maxDepth int32) {
	n := p.n
	p.levelOff = make([]int32, maxDepth+2)
	for _, d := range p.pos {
		p.levelOff[d+1]++
	}
	for l := 1; l < len(p.levelOff); l++ {
		p.levelOff[l] += p.levelOff[l-1]
	}
	next := append([]int32(nil), p.levelOff...)
	for v := 0; v < n; v++ {
		d := p.pos[v]
		i := next[d]
		next[d]++
		p.perm[i] = int32(v)
		p.pos[v] = i
	}
	p.checkIdentity()
}

// checkIdentity recomputes the identity flag — the common generated-graph
// case where node ids are already level-contiguous in canonical order.
func (p *Plan) checkIdentity() {
	p.identity = true
	for i, v := range p.perm {
		if int32(i) != v {
			p.identity = false
			break
		}
	}
}

// N returns the node count the plan was built for.
func (p *Plan) N() int { return p.n }

// M returns the edge count.
func (p *Plan) M() int { return len(p.inAdj) }

// Levels returns the number of topological levels — the critical-path
// length of a level-parallel pass.
func (p *Plan) Levels() int { return p.numLevels() }

// MaxWidth returns the widest level's node count — the available
// parallelism of the widest pass step.
func (p *Plan) MaxWidth() int {
	w := 0
	for l := 0; l < p.numLevels(); l++ {
		lo, hi := p.level(l)
		if hi-lo > w {
			w = hi - lo
		}
	}
	return w
}

// Weighted reports whether the plan carries per-edge relay probabilities.
func (p *Plan) Weighted() bool { return p.weighted }

// Coarse reports whether the plan carries node multiplicity weights (it
// belongs to a quotient model built by Coarsen).
func (p *Plan) Coarse() bool { return p.mulW != nil }

func (p *Plan) numLevels() int { return len(p.levelOff) - 1 }

// level returns the plan-position range [lo, hi) of level l.
func (p *Plan) level(l int) (lo, hi int) {
	return int(p.levelOff[l]), int(p.levelOff[l+1])
}

// getScratch borrows a plan-sized float working set; return it with
// putScratch when the borrower is done (engines do this via
// ReleaseScratch). Contents are unspecified.
func (p *Plan) getScratch() *floatScratch {
	s := p.arena.scratch.Get().(*floatScratch)
	s.ensure(p.n)
	return s
}

func (p *Plan) putScratch(s *floatScratch) {
	if s != nil {
		p.arena.scratch.Put(s)
	}
}

// GetMask borrows an N()-length []bool from the plan's arena; contents
// are unspecified. core.Place borrows per-shard candidate masks here so
// candidate sharding stops allocating O(N) state per placement.
func (p *Plan) GetMask() []bool {
	mp := p.arena.masks.Get().(*[]bool)
	mask := *mp
	if cap(mask) < p.n {
		mask = make([]bool, p.n)
	}
	return mask[:p.n]
}

// PutMask returns a mask borrowed with GetMask.
func (p *Plan) PutMask(mask []bool) {
	if mask != nil {
		p.arena.masks.Put(&mask)
	}
}

// fillMask translates an original-id mask into plan order; nil means no
// filters and returns the shared all-false mask (do not write to it).
func (p *Plan) fillMask(dst []bool, orig []bool) []bool {
	if orig == nil {
		return p.falseMask
	}
	if p.identity {
		copy(dst, orig)
		return dst
	}
	perm := p.perm
	for i := range dst {
		dst[i] = orig[perm[i]]
	}
	return dst
}

// forwardRange runs the flat forward kernel over plan positions [lo, hi):
// rec[i] accumulates the weighted emissions of i's in-neighbors in the
// same order as the pre-plan per-node kernel, and emit[i] applies the
// source/filter rule, each filter leaking a leak fraction of its
// duplicates (filterEmit; 0 is the paper's perfect filter). src and fmask
// are plan-order masks (fmask may be the shared falseMask); rec and emit
// are plan-indexed. Positions in [lo, hi) must only depend on emit values
// already computed — the full range [0, n) serially, or any subrange of
// one level in parallel.
func (p *Plan) forwardRange(src, fmask []bool, leak float64, rec, emit []float64, lo, hi int) {
	inOff, inAdj := p.inOff, p.inAdj
	if p.inW == nil {
		for i := lo; i < hi; i++ {
			r := 0.0
			for _, q := range inAdj[inOff[i]:inOff[i+1]] {
				r += emit[q]
			}
			rec[i] = r
			e := r
			if src[i] {
				e = 1
			} else if fmask[i] {
				e = filterEmit(r, leak)
			}
			emit[i] = e
		}
		return
	}
	inW := p.inW
	for i := lo; i < hi; i++ {
		r := 0.0
		adj := inAdj[inOff[i]:inOff[i+1]]
		w := inW[inOff[i]:inOff[i+1]]
		w = w[:len(adj)] // hoist the bounds check out of the edge loop
		for k, q := range adj {
			r += w[k] * emit[q]
		}
		rec[i] = r
		e := r
		if src[i] {
			e = 1
		} else if fmask[i] {
			e = filterEmit(r, leak)
		}
		emit[i] = e
	}
}

// filterEmit is the emission of a filter that receives r copies and
// leaks a leak fraction of the duplicates: min(r, 1 + leak·(r−1)),
// evaluated as written so every leak rounds like the scalar formula. At
// leak 0 it is the perfect filter's rule (one copy once r > 1) taken
// literally, since 0·(r−1) is NaN at r = +Inf.
func filterEmit(r, leak float64) float64 {
	if leak == 0 {
		if r > 1 {
			return 1
		}
		return r
	}
	if f := 1 + leak*(r-1); f < r {
		return f
	}
	return r
}

// filterRelay is the suffix term of an edge into a filter whose own
// suffix is s: the one copy it always forwards plus the leaked fraction
// of its downstream amplification. At leak 0 it is exactly 1.
func filterRelay(s, leak float64) float64 {
	if leak == 0 {
		return 1
	}
	return 1 + leak*s
}

// suffixRange runs the flat suffix kernel over plan positions [lo, hi) in
// DESCENDING order: suf[i] accumulates 1 + suf[c] (filterRelay when c is
// a filter) over i's out-neighbors in the pre-plan order, scaled by the
// edge weight on weighted plans. Positions must only depend on suf values
// already computed — the full range [0, n) serially, or any subrange of
// one level in parallel once all later levels are done.
func (p *Plan) suffixRange(fmask []bool, leak float64, suf []float64, lo, hi int) {
	outOff, outAdj := p.outOff, p.outAdj
	if p.mulW != nil {
		// Coarse plan (never weighted): a supernode's suffix starts at its
		// own multiplicity — one extra unit of emission reaches each of its
		// mulW[i] contracted interior receivers exactly once — and then
		// accumulates the usual external out-edge terms.
		mw := p.mulW
		for i := hi - 1; i >= lo; i-- {
			s := mw[i]
			for _, c := range outAdj[outOff[i]:outOff[i+1]] {
				t := 1 + suf[c]
				if fmask[c] {
					t = filterRelay(suf[c], leak)
				}
				s += t
			}
			suf[i] = s
		}
		return
	}
	if p.outW == nil {
		for i := hi - 1; i >= lo; i-- {
			s := 0.0
			for _, c := range outAdj[outOff[i]:outOff[i+1]] {
				t := 1 + suf[c]
				if fmask[c] {
					t = filterRelay(suf[c], leak)
				}
				s += t
			}
			suf[i] = s
		}
		return
	}
	outW := p.outW
	for i := hi - 1; i >= lo; i-- {
		s := 0.0
		adj := outAdj[outOff[i]:outOff[i+1]]
		w := outW[outOff[i]:outOff[i+1]]
		w = w[:len(adj)] // hoist the bounds check out of the edge loop
		for k, c := range adj {
			t := 1 + suf[c]
			if fmask[c] {
				t = filterRelay(suf[c], leak)
			}
			s += w[k] * t
		}
		suf[i] = s
	}
}

// sumOriginal sums a plan-indexed vector in ascending ORIGINAL node
// order — the exact float addition order of the pre-plan Phi.
func (p *Plan) sumOriginal(vals []float64) float64 {
	total := 0.0
	if p.identity {
		for _, v := range vals {
			total += v
		}
		return total
	}
	for _, i := range p.pos {
		total += vals[i]
	}
	return total
}

// sumPhi folds one forward pass into Φ(A,V): Σ rec on ordinary plans,
// Σ rec[i] + mulW[i]·emit[i] on coarse plans (each supernode's contracted
// interior receives emit[i] once per multiplicity unit). Both sum in
// ascending original node order for bit-stable float accumulation.
func (p *Plan) sumPhi(rec, emit []float64) float64 {
	if p.mulW == nil {
		return p.sumOriginal(rec)
	}
	mw := p.mulW
	total := 0.0
	if p.identity {
		for i, r := range rec {
			total += r + mw[i]*emit[i]
		}
		return total
	}
	for _, i := range p.pos {
		total += rec[i] + mw[i]*emit[i]
	}
	return total
}

// inDegree returns original node v's in-degree, read from its in-row.
func (p *Plan) inDegree(v int) int {
	i := p.pos[v]
	return int(p.inOff[i+1] - p.inOff[i])
}

// SinkCount counts the nodes with out-degree zero: the plan's empty
// out-rows.
func (p *Plan) SinkCount() int {
	k := 0
	for i := 0; i < p.n; i++ {
		if p.outOff[i] == p.outOff[i+1] {
			k++
		}
	}
	return k
}

// Digraph materializes the plan's edge set as an immutable graph.Digraph
// in O(n+m) — no sorting, no edge map. Plan CSR rows are already in
// ascending original-id order, the exact Digraph contract, so rows are a
// straight position→id translation. Model.Graph uses this to widen a
// model built by NewModelFromPlan on its first call, without paying the
// overlay snapshot's O(m log m) sort.
func (p *Plan) Digraph() *graph.Digraph {
	n := p.n
	outOff := make([]int, n+1)
	inOff := make([]int, n+1)
	outAdj := make([]int, len(p.outAdj))
	inAdj := make([]int, len(p.inAdj))
	var eout, ein int
	for v := 0; v < n; v++ {
		i := int(p.pos[v])
		outOff[v] = eout
		for _, c := range p.outAdj[p.outOff[i]:p.outOff[i+1]] {
			outAdj[eout] = int(p.perm[c])
			eout++
		}
		inOff[v] = ein
		for _, q := range p.inAdj[p.inOff[i]:p.inOff[i+1]] {
			inAdj[ein] = int(p.perm[q])
			ein++
		}
	}
	outOff[n] = eout
	inOff[n] = ein
	return graph.FromCSR(n, outOff, outAdj, inOff, inAdj)
}

// scatter copies a plan-indexed vector into a freshly allocated
// original-id-indexed slice.
func (p *Plan) scatter(vals []float64) []float64 {
	out := make([]float64, p.n)
	for i, v := range vals {
		out[p.perm[i]] = v
	}
	return out
}

// runLevel runs fn over level l's position range in at most procs
// scheduler chunks. Per-node kernels are independent within a level, so
// results never depend on the chunking.
func (p *Plan) runLevel(l, procs int, fn func(i, lo, hi int)) {
	lo, hi := p.level(l)
	split(lo, hi, procs, fn)
}

// forwardLevels is forwardRange over every level in ascending order with
// each level sharded across procs scheduler chunks; procs ≤ 1 is one
// sequential sweep over [0, n), the same level order.
func (p *Plan) forwardLevels(src, fmask []bool, leak float64, rec, emit []float64, procs int) {
	if procs <= 1 {
		p.forwardRange(src, fmask, leak, rec, emit, 0, p.n)
		return
	}
	for l := 0; l < p.numLevels(); l++ {
		p.runLevel(l, procs, func(_, lo, hi int) {
			p.forwardRange(src, fmask, leak, rec, emit, lo, hi)
		})
	}
}

// suffixLevels is suffixRange over every level in descending order with
// each level sharded across procs scheduler chunks; procs ≤ 1 is one
// sequential descending sweep over [0, n). Out-neighbors always live in
// strictly later levels, so by the time level l runs every suf value it
// reads is final.
func (p *Plan) suffixLevels(fmask []bool, leak float64, suf []float64, procs int) {
	if procs <= 1 {
		p.suffixRange(fmask, leak, suf, 0, p.n)
		return
	}
	for l := p.numLevels() - 1; l >= 0; l-- {
		p.runLevel(l, procs, func(_, lo, hi int) {
			p.suffixRange(fmask, leak, suf, lo, hi)
		})
	}
}
