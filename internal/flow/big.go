package flow

import "math/big"

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
//
// Its passes read the plan alone (rows and perm; integer sums do not
// depend on term order), so it never widens a plan-built model. Its
// vectors stay indexed by original id.
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

// stepForwardBig computes rec and emit at the node at plan position i
// from its plan in-row. It is the exact engine's one per-node forward
// kernel, so a pass yields the same integers at every parallelism.
func (e *BigEngine) stepForwardBig(i int, filters []bool, rec, emit []*big.Int) {
	p := e.p
	v := p.perm[i]
	r := new(big.Int)
	for _, q := range p.inAdj[p.inOff[i]:p.inOff[i+1]] {
		r.Add(r, emit[p.perm[q]])
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

// Passes implements PassCounter.
func (e *BigEngine) Passes() (forward, suffix int64) {
	return e.pc.fwd.Load(), e.pc.suf.Load()
}

// forwardBig computes rec and emit exactly, sweeping the plan's levels in
// ascending order with each level's nodes sharded across procs scheduler
// chunks (procs ≤ 1 runs every level inline). A node of a level only
// reads emit values of earlier levels and writes its own rec/emit slots,
// so the shards are disjoint and the integers do not depend on procs.
// rec and emit are indexed by original id; entries of emit may alias
// entries of rec or bigOne, and callers must not mutate them.
func (e *BigEngine) forwardBig(filters []bool, procs int) (rec, emit []*big.Int) {
	rec = make([]*big.Int, e.m.N())
	emit = make([]*big.Int, e.m.N())
	for l := 0; l < e.p.numLevels(); l++ {
		e.p.runLevel(l, procs, func(_, lo, hi int) {
			for i := lo; i < hi; i++ {
				e.stepForwardBig(i, filters, rec, emit)
			}
		})
	}
	e.pc.fwd.Add(1)
	return rec, emit
}

func (e *BigEngine) phiBig(filters []bool) *big.Int {
	rec, emit := e.forwardBig(filters, 1)
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

// stepSuffixBig computes the downstream amplification at the node at
// plan position i from its plan out-row; the exact engine's one per-node
// suffix kernel.
func (e *BigEngine) stepSuffixBig(i int, filters []bool, suf []*big.Int) {
	p := e.p
	v := p.perm[i]
	s := new(big.Int)
	if e.mul != nil && e.mul[v] != nil {
		// Coarse model: seed with the node's own multiplicity — one extra
		// unit of emission reaches each contracted interior receiver once.
		s.Set(e.mul[v])
	}
	for _, j := range p.outAdj[p.outOff[i]:p.outOff[i+1]] {
		c := p.perm[j]
		s.Add(s, bigOne)
		if filters == nil || !filters[c] {
			s.Add(s, suf[c])
		}
	}
	suf[v] = s
}

// suffixBig computes the downstream amplification exactly, sweeping the
// plan's levels in descending order with each level's nodes sharded
// across procs scheduler chunks: out-neighbors always live in strictly
// later levels, so their suffixes are final when a level runs.
func (e *BigEngine) suffixBig(filters []bool, procs int) []*big.Int {
	suf := make([]*big.Int, e.m.N())
	for l := e.p.numLevels() - 1; l >= 0; l-- {
		e.p.runLevel(l, procs, func(_, lo, hi int) {
			for i := lo; i < hi; i++ {
				e.stepSuffixBig(i, filters, suf)
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

// impactsBig returns exact marginal gains from level-parallel passes and
// a sharded assembly loop; the integers do not depend on procs.
func (e *BigEngine) impactsBig(filters []bool, procs int) []*big.Int {
	rec, _ := e.forwardBig(filters, procs)
	suf := e.suffixBig(filters, procs)
	gains := make([]*big.Int, len(rec))
	zero := new(big.Int)
	split(0, len(gains), procs, func(_, lo, hi int) {
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
	rec, _ := e.forwardBig(filters, 1)
	return bigsToFloats(rec)
}

// Suffix implements Evaluator.
func (e *BigEngine) Suffix(filters []bool) []float64 {
	return bigsToFloats(e.suffixBig(filters, 1))
}

// Impacts implements Evaluator.
func (e *BigEngine) Impacts(filters []bool) []float64 { return e.ImpactsP(filters, 1) }

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
	return e.ArgmaxImpactP(filters, banned, 1)
}

// ArgmaxImpactP implements ParallelEvaluator with exact arithmetic: the
// passes shard by topological level and the scan shards into contiguous
// node ranges whose local maxima are reduced in ascending order under the
// same strict-improvement rule as the serial scan, so ties break toward
// the smaller node id exactly as ArgmaxImpact does.
func (e *BigEngine) ArgmaxImpactP(filters, banned []bool, procs int) (int, float64) {
	gains := e.impactsBig(filters, procs)
	type local struct {
		v    int
		gain *big.Int
	}
	// A slot no chunk writes keeps a nil gain and is skipped.
	locals := make([]local, max(procs, 1))
	split(0, len(gains), procs, func(i, lo, hi int) {
		v, gn := argmaxOver(gains, banned, lo, hi)
		locals[i] = local{v, gn}
	})
	best := -1
	var bestGain *big.Int
	for _, l := range locals {
		if l.gain != nil && (bestGain == nil || l.gain.Cmp(bestGain) > 0) {
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
	return bigsToFloats(e.impactsBig(filters, procs))
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
