package flow

import (
	"sync"

	"repro/internal/graph"
	"repro/internal/sched"
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
//     — no index vector in the loop at all. The within-level order is
//     CANONICAL — a pure function of the edge set, independent of which
//     topological order the model happened to cache — which is what lets
//     a plan rebuilt from a mutable overlay (see Splicer) be
//     array-for-array identical to a from-scratch build.
//   - The in- and out-adjacency CSR is RE-INDEXED to plan positions, with
//     each node's neighbor list kept in ascending ORIGINAL id order — the
//     exact accumulation order of the pre-plan kernels, which is what
//     makes plan-backed float results bit-for-bit identical.
//   - Edge weights (probabilistic models) are flattened into per-edge
//     arrays aligned with the CSR, so the weighted kernel reads w[j]
//     instead of calling a closure per edge.
//   - Chunk boundaries for level-parallel execution are precomputed for
//     the shared scheduler's worker count (sched.Default().ChunkHint()),
//     so the steady-state parallel pass does no chunk arithmetic.
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
// Plans are built lazily by Model.Plan and are safe for concurrent use;
// all exported and unexported methods are read-only with respect to the
// plan itself.
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

	// chunkHint is the scheduler worker count the precomputed chunk
	// tables were sized for; levelChunks[l] holds the absolute position
	// boundaries of level l's chunks (nil for levels run serially).
	chunkHint   int
	levelChunks [][]int32

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

// buildPlan computes the plan of a model. It is called once per Model
// through Model.Plan; weighted models have every edge weight validated
// (and baked into the flat arrays) here, so kernels never re-check.
func buildPlan(m *Model) *Plan {
	g := m.g
	n := g.N()
	p := &Plan{n: n, weighted: m.weight != nil}
	p.layoutLevels(m.topo, g.In, make([]int32, n))

	// Re-index both CSRs to plan positions. Neighbor lists stay in
	// ascending original-id order (Digraph.In/Out order), preserving the
	// pre-plan float accumulation order bit for bit.
	p.inOff = make([]int32, n+1)
	p.outOff = make([]int32, n+1)
	p.inAdj = make([]int32, g.M())
	p.outAdj = make([]int32, g.M())
	if p.weighted {
		p.inW = make([]float64, g.M())
		p.outW = make([]float64, g.M())
	}
	var ein, eout int32
	for i := 0; i < n; i++ {
		v := int(p.perm[i])
		p.inOff[i] = ein
		for _, q := range g.In(v) {
			p.inAdj[ein] = p.pos[q]
			if p.weighted {
				p.inW[ein] = m.checkedWeight(q, v)
			}
			ein++
		}
		p.outOff[i] = eout
		for _, c := range g.Out(v) {
			p.outAdj[eout] = p.pos[c]
			if p.weighted {
				p.outW[eout] = m.checkedWeight(v, c)
			}
			eout++
		}
	}
	p.inOff[n] = ein
	p.outOff[n] = eout

	if m.mul != nil {
		p.mulW = make([]float64, n)
		for i := 0; i < n; i++ {
			p.mulW[i] = float64(m.mul[p.perm[i]])
		}
	}

	p.layoutChunks()
	p.arena = newPlanArena()
	return p
}

// layoutLevels lays out the canonical level-contiguous permutation. Each
// node's forward depth is 1 + the max over its in-neighbors, computed in
// the given topological order into the depth scratch (length n). A
// counting sort by depth, stable in ascending original-id order, then
// yields perm/pos/levelOff — still a valid topological order, since
// edges always cross into a strictly deeper level.
func (p *Plan) layoutLevels(topo []int, in func(int) []int, depth []int32) {
	n := p.n
	maxDepth := int32(-1)
	for _, v := range topo {
		var d int32
		for _, q := range in(v) {
			if depth[q]+1 > d {
				d = depth[q] + 1
			}
		}
		depth[v] = d
		if d > maxDepth {
			maxDepth = d
		}
	}
	p.levelOff = make([]int32, maxDepth+2)
	for v := 0; v < n; v++ {
		p.levelOff[depth[v]+1]++
	}
	for l := 1; l < len(p.levelOff); l++ {
		p.levelOff[l] += p.levelOff[l-1]
	}
	p.perm = make([]int32, n)
	p.pos = make([]int32, n)
	next := append([]int32(nil), p.levelOff...)
	for v := 0; v < n; v++ {
		i := next[depth[v]]
		next[depth[v]]++
		p.perm[i] = int32(v)
		p.pos[v] = i
	}
	p.checkIdentity()
}

// layoutChunks allocates the all-false mask and precomputes per-level
// chunk boundaries for the scheduler's current worker count. The tables
// are a perf hint only: chunking never affects results (per-node kernels
// are independent within a level), and passes asked for a different
// parallelism fall back to the same arithmetic inline.
func (p *Plan) layoutChunks() {
	p.falseMask = make([]bool, p.n)
	p.chunkHint = sched.Default().ChunkHint()
	p.levelChunks = make([][]int32, p.numLevels())
	for l := range p.levelChunks {
		lo, hi := p.level(l)
		p.levelChunks[l] = p.chunksFor(lo, hi)
	}
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

// chunksFor computes the precomputed chunk boundaries for one level's
// position range [lo, hi) against the plan's scheduler hint, or nil when
// the level runs serially. Boundaries depend only on (size, chunkHint),
// never on contents, so every build of the same graph computes the same
// tables.
func (p *Plan) chunksFor(lo, hi int) []int32 {
	size := hi - lo
	if size < minParallelSpan || p.chunkHint <= 1 {
		return nil
	}
	procs := p.chunkHint
	if procs > size {
		procs = size
	}
	chunk := (size + procs - 1) / procs
	bounds := []int32{int32(lo)}
	for c := lo + chunk; c < hi; c += chunk {
		bounds = append(bounds, int32(c))
	}
	return append(bounds, int32(hi))
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
// source/filter rule. src and fmask are plan-order masks (fmask may be
// the shared falseMask); rec and emit are plan-indexed. Positions in
// [lo, hi) must only depend on emit values already computed — the full
// range [0, n) serially, or any subrange of one level in parallel.
func (p *Plan) forwardRange(src, fmask []bool, rec, emit []float64, lo, hi int) {
	inOff, inAdj := p.inOff, p.inAdj
	if p.inW == nil {
		for i := lo; i < hi; i++ {
			r := 0.0
			for _, q := range inAdj[inOff[i]:inOff[i+1]] {
				r += emit[q]
			}
			rec[i] = r
			e := r
			if src[i] || (fmask[i] && r > 1) {
				e = 1
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
		if src[i] || (fmask[i] && r > 1) {
			e = 1
		}
		emit[i] = e
	}
}

// suffixRange runs the flat suffix kernel over plan positions [lo, hi) in
// DESCENDING order: suf[i] accumulates 1 + suf[c] (or just the edge
// weight when c is a filter) over i's out-neighbors in the pre-plan
// order. Positions must only depend on suf values already computed — the
// full range [0, n) serially, or any subrange of one level in parallel
// once all later levels are done.
func (p *Plan) suffixRange(fmask []bool, suf []float64, lo, hi int) {
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
					t = 1
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
					t = 1
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
				t = 1
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

// Digraph materializes the plan's edge set as an immutable graph.Digraph
// in O(n+m) — no sorting, no edge map. Plan CSR rows are already in
// ascending original-id order, the exact Digraph contract, so rows are a
// straight position→id translation. NewModelFromPlan uses this to stand
// up a fresh Model over a Splicer plan without paying the overlay
// snapshot's O(m log m) sort.
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

// runLevel executes fn over level l's position range, split into at most
// procs contiguous chunks on the shared scheduler. Chunk boundaries come
// from the precomputed table when procs matches the plan's scheduler
// hint, and from the same arithmetic inline otherwise; either way they
// depend only on (level size, procs), and per-node kernels are
// independent within a level, so results never depend on chunking.
func (p *Plan) runLevel(l, procs int, fn func(lo, hi int)) {
	lo, hi := p.level(l)
	size := hi - lo
	if procs <= 1 || size < minParallelSpan {
		fn(lo, hi)
		return
	}
	if procs == p.chunkHint && p.levelChunks[l] != nil {
		bounds := p.levelChunks[l]
		b := sched.Default().NewBatch()
		for c := 0; c+1 < len(bounds); c++ {
			clo, chi := int(bounds[c]), int(bounds[c+1])
			b.Go(func() { fn(clo, chi) })
		}
		b.Wait()
		return
	}
	// Off-hint parallelism: same split arithmetic, computed inline.
	parallelFor(size, procs, func(clo, chi int) { fn(lo+clo, lo+chi) })
}

// forwardLevels is forwardRange over every level in ascending order with
// each level sharded across procs scheduler chunks.
func (p *Plan) forwardLevels(src, fmask []bool, rec, emit []float64, procs int) {
	for l := 0; l < p.numLevels(); l++ {
		p.runLevel(l, procs, func(lo, hi int) {
			p.forwardRange(src, fmask, rec, emit, lo, hi)
		})
	}
}

// suffixLevels is suffixRange over every level in descending order with
// each level sharded across procs scheduler chunks. Out-neighbors always
// live in strictly later levels, so by the time level l runs every suf
// value it reads is final.
func (p *Plan) suffixLevels(fmask []bool, suf []float64, procs int) {
	for l := p.numLevels() - 1; l >= 0; l-- {
		p.runLevel(l, procs, func(lo, hi int) {
			p.suffixRange(fmask, suf, lo, hi)
		})
	}
}
