package dyn

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/flow"
	"repro/internal/obs"
)

// Options configures a Maintainer.
type Options struct {
	// K is the filter budget (required, ≥ 1).
	K int
	// Parallelism bounds the worker goroutines of the Greedy_All runs (the
	// initial placement and the drift fallback); ≤ 1 is serial. Placements
	// are bit-for-bit identical at any setting (see core.Place).
	Parallelism int
}

// Repair tuning.
const (
	// maxDrift is the dirty-cone node visits per graph node, accumulated
	// across batches, past which Maintain abandons incremental repair and
	// recomputes the placement with Greedy_All.
	maxDrift = 0.5
	// swapLimit bounds the filter-swap rounds of one incremental repair.
	swapLimit = 4
	// minGainFrac is the relative objective improvement below which
	// repair stops.
	minGainFrac = 1e-9
)

// Maintain strategies reported by Report.Strategy.
const (
	// StrategyInitial is the first placement on a fresh Maintainer.
	StrategyInitial = "initial"
	// StrategyIncremental repaired the previous placement in place.
	StrategyIncremental = "incremental"
	// StrategyRecompute fell back to a full greedy-all run (drift bound
	// exceeded, or the Maintainer lost sync with the overlay).
	StrategyRecompute = "recompute"
)

// Report describes what one Maintain call did.
type Report struct {
	Strategy string `json:"strategy"`
	K        int    `json:"k"`
	// Filters is the refreshed placement, ascending.
	Filters []int `json:"filters"`
	// FBefore is the objective of the previous placement evaluated on the
	// CURRENT graph; FAfter the refreshed placement's objective. Delta is
	// their difference — what maintenance recovered.
	FBefore float64 `json:"f_before"`
	FAfter  float64 `json:"f_after"`
	Delta   float64 `json:"delta"`
	// PhiEmpty, MaxF and FRatio are the paper's report quantities on the
	// current graph.
	PhiEmpty float64 `json:"phi_empty"`
	MaxF     float64 `json:"max_f"`
	FRatio   float64 `json:"fr"`
	// Added and Removed list which filters moved.
	Added   []int `json:"added,omitempty"`
	Removed []int `json:"removed,omitempty"`
	// Swaps counts accepted swap rounds; TouchedForward/TouchedBackward
	// count dirty-cone node visits since the previous Maintain.
	Swaps           int `json:"swaps"`
	TouchedForward  int `json:"touched_forward"`
	TouchedBackward int `json:"touched_backward"`
}

// Maintainer keeps a filter placement fresh on a mutating graph. It owns
// one incremental flow state — the current placement's, repaired per batch
// within the dirty cone only — and reads each graph version's immutable
// flow.Model from the overlay (Dynamic.Model). Φ(∅,V) and F(V), the
// Filter-Ratio denominator, come from that model's invariant cache (one
// forward pass), so whoever serves the model next (the server registry
// does) reads them for free. Maintain then fixes the placement itself:
// top-up to the budget, then bounded weakest-filter swaps with exact
// objective verification, reverting any swap that does not improve F.
// When the dirty cones accumulated since the last Maintain exceed a fixed
// drift bound, it recomputes the placement from scratch with the paper's
// Greedy_All on the version's model instead.
//
// A Maintainer supports only deterministic (unweighted) models. It is not
// safe for concurrent use.
type Maintainer struct {
	d    *Dynamic
	opts Options
	cur  *flow.Incremental // the maintained placement

	// phiEmpty and maxF are Φ(∅,V) and F(V) of the version lastGen, read
	// from its model's invariant cache.
	phiEmpty, maxF float64

	lastGen uint64
	placed  bool
	// lastStats is cur's visit count at the end of the last Maintain:
	// every visit since is batch drift.
	lastStats flow.IncStats
}

// NewMaintainer builds a Maintainer over the overlay. The first Maintain
// call computes the initial placement with a full Greedy_All run (strategy
// "initial"); pass the previous filter set in initial to warm-start from an
// existing placement instead.
func NewMaintainer(d *Dynamic, opts Options, initial []int) (*Maintainer, error) {
	if opts.K < 1 {
		return nil, fmt.Errorf("dyn: maintainer budget K = %d, want ≥ 1", opts.K)
	}
	n := d.N()
	for _, v := range initial {
		if v < 0 || v >= n {
			return nil, fmt.Errorf("%w: initial filter %d outside [0,%d)", ErrBadNode, v, n)
		}
		if d.IsSource(v) {
			// A source filter is meaningless (sources emit one copy) and
			// would corrupt the budget: the engine refuses to clear it, so
			// repair would grow the placement past K around it.
			return nil, fmt.Errorf("%w: initial filter %d is a source", ErrBadNode, v)
		}
	}
	mt := &Maintainer{
		d:    d,
		opts: opts,
		cur:  flow.NewIncrementalWith(d, d.Sources(), initial, d.Model().Plan()),
	}
	mt.readInvariants()
	mt.placed = len(initial) > 0
	mt.lastStats = mt.cur.Stats()
	return mt, nil
}

// K returns the maintenance budget.
func (mt *Maintainer) K() int { return mt.opts.K }

// SetK changes the budget. Shrinking takes effect at the next Maintain
// (weakest filters are dropped); growing is a plain top-up.
func (mt *Maintainer) SetK(k int) error {
	if k < 1 {
		return fmt.Errorf("dyn: maintainer budget K = %d, want ≥ 1", k)
	}
	mt.opts.K = k
	return nil
}

// Graph returns the underlying overlay.
func (mt *Maintainer) Graph() *Dynamic { return mt.d }

// Filters returns the current placement, ascending.
func (mt *Maintainer) Filters() []int { return mt.cur.FilterNodes() }

// Objective returns F(A) of the current placement on the current graph.
func (mt *Maintainer) Objective() float64 { return mt.phiEmpty - mt.cur.Phi() }

// Apply routes a batch through the overlay and, on success, repairs the
// placement's flow state within the dirty cone and reads the new
// version's Φ(∅,V) and F(V) through its model, which the overlay builds
// here. A rejected batch (e.g. a cycle-creating edge) leaves both the
// overlay and all flow state untouched.
func (mt *Maintainer) Apply(b Batch) (ApplyResult, error) {
	res, err := mt.d.Apply(b)
	if err != nil {
		return res, err
	}
	mt.cur.Grow()
	mt.cur.Update(res.DirtyFwd, res.DirtyBwd)
	mt.readInvariants()
	return res, nil
}

// readInvariants reads Φ(∅,V) and F(V) of the overlay's current version
// through its model's invariant cache, filling the cache on the version's
// first read, and marks that version as the one the Maintainer tracks.
func (mt *Maintainer) readInvariants() {
	ev := flow.NewFloat(mt.d.Model())
	mt.phiEmpty, mt.maxF = ev.Phi(nil), ev.MaxF()
	mt.lastGen = mt.d.Gen()
}

// Maintain refreshes the placement after one or more Apply calls and
// reports what moved. Strategy selection: the first call places from
// scratch ("initial"); exceeded drift, missed batches (the overlay mutated
// without going through Apply) or a shrunken budget trigger a full
// Greedy_All recompute ("recompute"); otherwise the previous placement is
// repaired in place ("incremental").
func (mt *Maintainer) Maintain(ctx context.Context) (*Report, error) {
	if mt.d.Gen() != mt.lastGen {
		// Missed batches: the cached flow state is unsound. Re-read the
		// version's model from the overlay (building its plan if no one
		// has yet), then rebuild the placement's flow state on its flat
		// kernels. The fresh state's whole-graph initialization counts as
		// drift, past the bound, so the placement is recomputed below.
		span := obs.TraceFrom(ctx).Begin("plan-rebuild")
		mt.cur = flow.NewIncrementalWith(mt.d, mt.d.Sources(), mt.cur.FilterNodes(), mt.d.Model().Plan())
		mt.readInvariants()
		span.End()
		mt.lastStats = flow.IncStats{}
	}

	prev := mt.cur.FilterNodes()
	rep := &Report{
		K:       mt.opts.K,
		FBefore: mt.Objective(),
	}

	st := mt.cur.Stats()
	rep.TouchedForward = st.ForwardVisits - mt.lastStats.ForwardVisits
	rep.TouchedBackward = st.BackwardVisits - mt.lastStats.BackwardVisits
	drift := float64(rep.TouchedForward+rep.TouchedBackward) / float64(max(mt.d.N(), 1))
	switch {
	case !mt.placed:
		rep.Strategy = StrategyInitial
	case drift > maxDrift || len(prev) > mt.opts.K:
		rep.Strategy = StrategyRecompute
	default:
		rep.Strategy = StrategyIncremental
	}

	var err error
	if rep.Strategy == StrategyIncremental {
		err = mt.repair(ctx, rep)
	} else {
		err = mt.recompute(ctx)
	}
	if err != nil {
		return nil, err
	}

	// Repair work is not drift: resync the baseline instead of counting
	// it toward the next Maintain's fallback decision.
	mt.lastStats = mt.cur.Stats()
	mt.placed = true

	rep.Filters = mt.cur.FilterNodes()
	rep.FAfter = mt.Objective()
	rep.Delta = rep.FAfter - rep.FBefore
	rep.PhiEmpty = mt.phiEmpty
	rep.MaxF = mt.maxF
	if rep.MaxF > 0 {
		rep.FRatio = min(max(rep.FAfter/rep.MaxF, 0), 1)
	} else {
		rep.FRatio = 1
	}
	rep.Added, rep.Removed = diffSets(prev, rep.Filters)
	return rep, nil
}

// recompute runs the paper's Greedy_All from scratch and swaps the
// resulting placement into the incremental state. It places on the
// version's model — no overlay snapshot, no plan rebuild, no invariant
// pass — so the fallback path, too, runs on the flat kernels.
func (mt *Maintainer) recompute(ctx context.Context) error {
	m := mt.d.Model()
	ev := flow.NewFloat(m)
	res, err := core.Place(ctx, ev, mt.opts.K, core.Options{
		Strategy:    core.StrategyGreedyAll,
		Parallelism: mt.opts.Parallelism,
	})
	ev.ReleaseScratch() // the engine dies with this call; its arena goes back to the plan pool
	if err != nil {
		return err
	}
	mt.cur = flow.NewIncrementalWith(mt.d, mt.d.Sources(), res.Filters, m.Plan())
	return nil
}

// repair fixes the previous placement in place: greedy top-up to the
// budget, then at most swapLimit weakest-filter swaps, each verified
// against the exact objective and reverted when not an improvement.
func (mt *Maintainer) repair(ctx context.Context, rep *Report) error {
	k := mt.opts.K
	floor := minGainFrac * max(rep.FBefore, 1)

	for len(mt.cur.FilterNodes()) < k {
		if err := ctx.Err(); err != nil {
			return err
		}
		v, gain := mt.cur.ArgmaxGain()
		if v < 0 || gain <= floor {
			break
		}
		mt.cur.SetFilter(v, true)
	}

	for rep.Swaps < swapLimit {
		if err := ctx.Err(); err != nil {
			return err
		}
		w, gainW := mt.cur.ArgmaxGain()
		if w < 0 || gainW <= floor {
			break
		}
		// Weakest current filter by held-gain proxy: what it presently
		// blocks, scaled by its amplification. The proxy only picks the
		// eviction victim; profitability is verified against the exact
		// objective below and reverted when wrong.
		f, held := -1, 0.0
		for _, c := range mt.cur.FilterNodes() {
			h := mt.cur.HeldGain(c)
			if f < 0 || h < held {
				f, held = c, h
			}
		}
		if f < 0 {
			break
		}
		f0 := mt.Objective()
		mt.cur.SetFilter(f, false)
		w2, g2 := mt.cur.ArgmaxGain()
		if w2 < 0 || g2 <= floor || w2 == f {
			mt.cur.SetFilter(f, true)
			break
		}
		mt.cur.SetFilter(w2, true)
		if f1 := mt.Objective(); f1 <= f0+floor {
			mt.cur.SetFilter(w2, false)
			mt.cur.SetFilter(f, true)
			break
		}
		rep.Swaps++
	}
	return nil
}

// diffSets returns added = b∖a and removed = a∖b for ascending int sets.
func diffSets(a, b []int) (added, removed []int) {
	i, j := 0, 0
	for i < len(a) || j < len(b) {
		switch {
		case i == len(a) || (j < len(b) && b[j] < a[i]):
			added = append(added, b[j])
			j++
		case j == len(b) || a[i] < b[j]:
			removed = append(removed, a[i])
			i++
		default:
			i++
			j++
		}
	}
	return added, removed
}
