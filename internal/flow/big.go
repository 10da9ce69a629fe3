package flow

import (
	"math/big"
)

// BigEngine evaluates the deterministic objective in exact math/big integer
// arithmetic. Path counts — and therefore copy counts — grow exponentially
// with graph depth, overflowing int64 on graphs as small as a few dozen
// layered nodes; BigEngine never loses precision, at the cost of allocation
// per arithmetic step. Greedy selections made through ArgmaxImpact compare
// exact integers, so the chosen filter sets are exactly those of the
// idealized algorithm. Weighted (probabilistic) models are not supported;
// use FloatEngine.
//
// Like FloatEngine's, its invariants — exact Φ(∅,V), F(V) and node
// multiplicities — live on the Model and are computed once per model: the
// first NewBig runs two exact forward passes, every later one runs none.
type BigEngine struct {
	m *Model
	p *Plan
	// phiEmpty, maxF and mul are read from the model's invariant cache and
	// never mutated; shared by clones. mul holds the exact node
	// multiplicities of a coarse model (nil entries for zero-weight nodes,
	// nil slice for ordinary models).
	phiEmpty *big.Int
	maxF     *big.Int
	mul      []*big.Int
	// pc counts topological passes; the shallow Clone copy shares it.
	pc *passCount
}

// NewBig builds an exact evaluator for the model. It panics when the model
// carries edge weights, which have no exact integer semantics. The model's
// first engine computes the exact invariants (two forward passes, counted
// on that engine); later engines reuse them and run no pass.
func NewBig(m *Model) *BigEngine {
	if m.Weighted() {
		panic("flow: BigEngine does not support weighted models")
	}
	e := &BigEngine{m: m, p: m.Plan(), pc: &passCount{}}
	inv := m.inv
	inv.bigOnce.Do(func() {
		if m.mul != nil {
			e.mul = make([]*big.Int, len(m.mul))
			for v, w := range m.mul {
				if w != 0 {
					e.mul[v] = big.NewInt(w)
				}
			}
		}
		inv.bigMul = e.mul
		inv.bigPhiEmpty = e.phiBig(nil)
		inv.bigMaxF = new(big.Int).Sub(inv.bigPhiEmpty, e.phiBig(AllFilters(m)))
	})
	e.mul, e.phiEmpty, e.maxF = inv.bigMul, inv.bigPhiEmpty, inv.bigMaxF
	return e
}

// Model implements Evaluator.
func (e *BigEngine) Model() *Model { return e.m }

// Clone implements Cloner. A BigEngine allocates per call and never
// mutates its cached invariants, so the clone shares them; the method
// exists so big-engine placements can join the same parallel candidate
// sharding as float ones.
func (e *BigEngine) Clone() Evaluator {
	c := *e
	return &c
}

var bigOne = big.NewInt(1)

// stepForwardBig computes rec and emit at one node from its in-neighbors,
// accumulating in the same ascending in-neighbor order everywhere. It is
// the single per-node kernel shared by the serial and level-parallel
// passes, so both produce the same exact integers.
func (e *BigEngine) stepForwardBig(v int, filters []bool, rec, emit []*big.Int) {
	r := new(big.Int)
	for _, p := range e.m.g.In(v) {
		r.Add(r, emit[p])
	}
	rec[v] = r
	switch {
	case e.m.isSrc[v]:
		emit[v] = bigOne
	case filters != nil && filters[v] && r.Cmp(bigOne) > 0:
		emit[v] = bigOne
	default:
		emit[v] = r
	}
}

// forwardBig computes rec and emit exactly, sweeping the plan's
// level-packed order (a topological order of the original ids the rec and
// emit slices are indexed by). Entries of emit may alias entries of rec or
// bigOne; callers must not mutate them.
func (e *BigEngine) forwardBig(filters []bool) (rec, emit []*big.Int) {
	rec = make([]*big.Int, e.m.g.N())
	emit = make([]*big.Int, e.m.g.N())
	for _, v := range e.p.perm {
		e.stepForwardBig(int(v), filters, rec, emit)
	}
	e.pc.fwd.Add(1)
	return rec, emit
}

// Passes implements PassCounter.
func (e *BigEngine) Passes() (forward, suffix int64) {
	return e.pc.fwd.Load(), e.pc.suf.Load()
}

// forwardBigP is forwardBig with each plan level's nodes sharded across
// procs scheduler chunks. A node of a level only reads emit values of
// earlier levels and writes its own rec/emit slots, so the shards are
// disjoint; every slot is still produced by stepForwardBig, keeping the
// integers exactly those of the serial pass.
func (e *BigEngine) forwardBigP(filters []bool, procs int) (rec, emit []*big.Int) {
	rec = make([]*big.Int, e.m.g.N())
	emit = make([]*big.Int, e.m.g.N())
	for l := 0; l < e.p.numLevels(); l++ {
		e.p.runLevel(l, procs, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				e.stepForwardBig(int(e.p.perm[i]), filters, rec, emit)
			}
		})
	}
	e.pc.fwd.Add(1)
	return rec, emit
}

func (e *BigEngine) phiBig(filters []bool) *big.Int {
	rec, emit := e.forwardBig(filters)
	total := new(big.Int)
	var tmp big.Int
	for v, r := range rec {
		total.Add(total, r)
		if e.mul != nil && e.mul[v] != nil {
			// Coarse model: the supernode's contracted interior receives
			// emit(v) once per multiplicity unit.
			total.Add(total, tmp.Mul(e.mul[v], emit[v]))
		}
	}
	return total
}

// PhiBig returns Φ(A, V) as an exact integer. The caller owns the result.
func (e *BigEngine) PhiBig(filters []bool) *big.Int {
	if filters == nil {
		return new(big.Int).Set(e.phiEmpty)
	}
	return e.phiBig(filters)
}

// FBig returns F(A) exactly.
func (e *BigEngine) FBig(filters []bool) *big.Int {
	return new(big.Int).Sub(e.phiEmpty, e.phiBig(filters))
}

// stepSuffixBig computes the downstream amplification at one node from
// its out-neighbors; the per-node kernel shared with the parallel pass.
func (e *BigEngine) stepSuffixBig(v int, filters []bool, suf []*big.Int) {
	s := new(big.Int)
	if e.mul != nil && e.mul[v] != nil {
		// Coarse model: seed with the node's own multiplicity — one extra
		// unit of emission reaches each contracted interior receiver once.
		s.Set(e.mul[v])
	}
	for _, c := range e.m.g.Out(v) {
		s.Add(s, bigOne)
		if filters == nil || !filters[c] {
			s.Add(s, suf[c])
		}
	}
	suf[v] = s
}

// suffixBig computes the downstream amplification exactly, sweeping the
// plan order in reverse.
func (e *BigEngine) suffixBig(filters []bool) []*big.Int {
	suf := make([]*big.Int, e.m.g.N())
	perm := e.p.perm
	for i := len(perm) - 1; i >= 0; i-- {
		e.stepSuffixBig(int(perm[i]), filters, suf)
	}
	e.pc.suf.Add(1)
	return suf
}

// suffixBigP is suffixBig with each plan level's nodes sharded across
// procs scheduler chunks, levels descending: out-neighbors always live in
// strictly later levels, so their suffixes are final when a level runs.
func (e *BigEngine) suffixBigP(filters []bool, procs int) []*big.Int {
	suf := make([]*big.Int, e.m.g.N())
	for l := e.p.numLevels() - 1; l >= 0; l-- {
		e.p.runLevel(l, procs, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				e.stepSuffixBig(int(e.p.perm[i]), filters, suf)
			}
		})
	}
	e.pc.suf.Add(1)
	return suf
}

// gainAt assembles one node's exact marginal gain from the pass results;
// zero must be a shared zero-valued big.Int no caller mutates.
func (e *BigEngine) gainAt(v int, filters []bool, rec, suf []*big.Int, zero *big.Int) *big.Int {
	if e.m.isSrc[v] || (filters != nil && filters[v]) || rec[v].Sign() == 0 {
		return zero
	}
	excess := new(big.Int).Sub(rec[v], bigOne)
	return excess.Mul(excess, suf[v])
}

// impactsBig returns exact marginal gains.
func (e *BigEngine) impactsBig(filters []bool) []*big.Int {
	rec, _ := e.forwardBig(filters)
	suf := e.suffixBig(filters)
	gains := make([]*big.Int, len(rec))
	zero := new(big.Int)
	for v := range gains {
		gains[v] = e.gainAt(v, filters, rec, suf, zero)
	}
	return gains
}

// impactsBigP is impactsBig with level-parallel passes and a sharded
// assembly loop. Every integer is produced by the same kernels as the
// serial path, so the results are exactly equal.
func (e *BigEngine) impactsBigP(filters []bool, procs int) []*big.Int {
	rec, _ := e.forwardBigP(filters, procs)
	suf := e.suffixBigP(filters, procs)
	gains := make([]*big.Int, len(rec))
	zero := new(big.Int)
	parallelFor(len(gains), procs, func(lo, hi int) {
		for v := lo; v < hi; v++ {
			gains[v] = e.gainAt(v, filters, rec, suf, zero)
		}
	})
	return gains
}

// Phi implements Evaluator (float approximation of the exact value).
func (e *BigEngine) Phi(filters []bool) float64 { return bigToFloat(e.PhiBig(filters)) }

// Received implements Evaluator.
func (e *BigEngine) Received(filters []bool) []float64 {
	rec, _ := e.forwardBig(filters)
	return bigsToFloats(rec)
}

// Suffix implements Evaluator.
func (e *BigEngine) Suffix(filters []bool) []float64 {
	return bigsToFloats(e.suffixBig(filters))
}

// Impacts implements Evaluator.
func (e *BigEngine) Impacts(filters []bool) []float64 {
	return bigsToFloats(e.impactsBig(filters))
}

// argmaxOver scans gains[lo:hi] for the strictly largest positive gain,
// ties toward the smaller node id — the selection rule shared by the
// serial scan and each parallel shard.
func argmaxOver(gains []*big.Int, banned []bool, lo, hi int) (int, *big.Int) {
	best := -1
	var bestGain *big.Int
	for v := lo; v < hi; v++ {
		gn := gains[v]
		if banned != nil && banned[v] {
			continue
		}
		if gn.Sign() <= 0 {
			continue
		}
		if bestGain == nil || gn.Cmp(bestGain) > 0 {
			best, bestGain = v, gn
		}
	}
	return best, bestGain
}

// ArgmaxImpact implements Evaluator with exact integer comparisons.
func (e *BigEngine) ArgmaxImpact(filters, banned []bool) (int, float64) {
	best, bestGain := argmaxOver(e.impactsBig(filters), banned, 0, e.m.g.N())
	if best < 0 {
		return -1, 0
	}
	return best, bigToFloat(bestGain)
}

// ArgmaxImpactP implements ParallelEvaluator with exact arithmetic: the
// passes shard by topological level and the scan shards into contiguous
// node ranges whose local maxima are reduced in ascending order under the
// same strict-improvement rule as the serial scan, so ties break toward
// the smaller node id exactly as ArgmaxImpact does.
func (e *BigEngine) ArgmaxImpactP(filters, banned []bool, procs int) (int, float64) {
	if procs <= 1 {
		return e.ArgmaxImpact(filters, banned)
	}
	gains := e.impactsBigP(filters, procs)
	type local struct {
		v    int
		gain *big.Int
	}
	locals := parallelForChunks(len(gains), procs, func(lo, hi int) local {
		v, gn := argmaxOver(gains, banned, lo, hi)
		return local{v, gn}
	})
	best := -1
	var bestGain *big.Int
	for _, l := range locals {
		if l.v >= 0 && (bestGain == nil || l.gain.Cmp(bestGain) > 0) {
			best, bestGain = l.v, l.gain
		}
	}
	if best < 0 {
		return -1, 0
	}
	return best, bigToFloat(bestGain)
}

// ImpactsP implements ParallelEvaluator.
func (e *BigEngine) ImpactsP(filters []bool, procs int) []float64 {
	if procs <= 1 {
		return e.Impacts(filters)
	}
	return bigsToFloats(e.impactsBigP(filters, procs))
}

// F implements Evaluator.
func (e *BigEngine) F(filters []bool) float64 { return bigToFloat(e.FBig(filters)) }

// MaxF implements Evaluator.
func (e *BigEngine) MaxF() float64 { return bigToFloat(e.maxF) }

// MaxFBig returns F(V) exactly. The caller owns the result.
func (e *BigEngine) MaxFBig() *big.Int { return new(big.Int).Set(e.maxF) }

func bigToFloat(x *big.Int) float64 {
	f, _ := new(big.Float).SetInt(x).Float64()
	return f
}

func bigsToFloats(xs []*big.Int) []float64 {
	fs := make([]float64, len(xs))
	for i, x := range xs {
		fs[i] = bigToFloat(x)
	}
	return fs
}
