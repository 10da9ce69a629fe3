package dyn

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/flow"
	"repro/internal/obs"
)

// Options configures a Maintainer. Zero values pick the documented
// defaults.
type Options struct {
	// K is the filter budget (required, ≥ 1).
	K int
	// MaxDrift is the fraction of the graph's propagation state that may be
	// recomputed across batches before Maintain abandons incremental repair
	// and falls back to a from-scratch core.Place greedy-all run. The unit
	// is dirty-cone node visits per graph node; default 0.5.
	MaxDrift float64
	// SwapLimit bounds the filter-swap rounds of one incremental repair;
	// default 4.
	SwapLimit int
	// MinGainFrac is the relative objective improvement below which repair
	// stops; default 1e-9.
	MinGainFrac float64
	// Parallelism bounds the worker goroutines of the Greedy_All runs (the
	// initial placement and the drift fallback); ≤ 1 is serial. Placements
	// are bit-for-bit identical at any setting (see core.Place).
	Parallelism int
	// Splicer, when non-nil, is the plan splicer the Maintainer keeps in
	// sync with the overlay (the server registry shares one splicer between
	// the maintainer and the placement path). It must be built over the
	// same overlay. When nil, the Maintainer creates its own.
	Splicer *flow.Splicer
}

func (o Options) withDefaults() Options {
	if o.MaxDrift <= 0 {
		o.MaxDrift = 0.5
	}
	if o.SwapLimit <= 0 {
		o.SwapLimit = 4
	}
	if o.MinGainFrac <= 0 {
		o.MinGainFrac = 1e-9
	}
	return o
}

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
// three incremental flow states over the same overlay — the empty-filter
// state (for Φ(∅,V)), the all-filters state (for F(V), the Filter-Ratio
// denominator) and the current placement's state — each repaired per batch
// within the dirty cone only. Maintain then fixes the placement itself:
// top-up to the budget, then bounded weakest-filter swaps with exact
// objective verification, reverting any swap that does not improve F. When
// accumulated drift exceeds Options.MaxDrift, it recomputes the placement
// from scratch with the paper's Greedy_All instead.
//
// A Maintainer supports only deterministic (unweighted) models. It is not
// safe for concurrent use.
type Maintainer struct {
	d    *Dynamic
	opts Options

	base *flow.Incremental // no filters: Φ(∅,·)
	full *flow.Incremental // all non-source filters: F(V)
	cur  *flow.Incremental // the maintained placement

	// splicer keeps an execution plan current with the overlay, so
	// full re-initializations (Reinit after missed batches) and recompute
	// placements run on the flat plan kernels instead of per-node scalar
	// sweeps, and so the server can reuse the repaired plan for
	// placements without rebuilding it from a snapshot.
	splicer *flow.Splicer

	lastGen   uint64
	placed    bool
	touchedF  int
	touchedB  int
	lastStats flow.IncStats
}

// NewMaintainer builds a Maintainer over the overlay. The first Maintain
// call computes the initial placement with a full Greedy_All run (strategy
// "initial"); pass the previous filter set in initial to warm-start from an
// existing placement instead.
func NewMaintainer(d *Dynamic, opts Options, initial []int) (*Maintainer, error) {
	opts = opts.withDefaults()
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
	sources := d.Sources()
	all := make([]int, 0, n)
	for v := 0; v < n; v++ {
		if !d.IsSource(v) {
			all = append(all, v)
		}
	}
	sp := opts.Splicer
	if sp == nil {
		sp = flow.NewSplicer(d, nil, flow.SpliceOptions{})
	}
	p := sp.Plan()
	mt := &Maintainer{
		d:       d,
		opts:    opts,
		splicer: sp,
		base:    flow.NewIncrementalWith(d, sources, nil, p),
		full:    flow.NewIncrementalWith(d, sources, all, p),
		cur:     flow.NewIncrementalWith(d, sources, initial, p),
	}
	mt.placed = len(initial) > 0
	mt.lastGen = d.Gen()
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
func (mt *Maintainer) Objective() float64 { return mt.base.Phi() - mt.cur.Phi() }

// Apply routes a batch through the overlay and, on success, repairs the
// three flow states within the dirty cone. A rejected batch (e.g. a
// cycle-creating edge) leaves both the overlay and all flow state
// untouched.
func (mt *Maintainer) Apply(b Batch) (ApplyResult, error) {
	res, err := mt.d.Apply(b)
	if err != nil {
		return res, err
	}
	if res.NodesAdded > 0 {
		mt.base.Grow(false)
		mt.cur.Grow(false)
		mt.full.Grow(true) // new nodes join the all-filters mask
	}
	mt.base.Update(res.DirtyFwd, res.DirtyBwd)
	mt.full.Update(res.DirtyFwd, res.DirtyBwd)
	mt.cur.Update(res.DirtyFwd, res.DirtyBwd)
	mt.splicer.Apply(res.DirtyFwd, res.DirtyBwd, res.NodesAdded)
	mt.accountDrift()
	mt.lastGen = mt.d.Gen()
	return res, nil
}

// Splicer returns the plan splicer the Maintainer keeps in sync with the
// overlay; Splicer().Plan() is always current after a successful Apply or
// Maintain.
func (mt *Maintainer) Splicer() *flow.Splicer { return mt.splicer }

// accountDrift accumulates the current-state dirty-cone visits since the
// last reading.
func (mt *Maintainer) accountDrift() {
	st := mt.cur.Stats()
	mt.touchedF += st.ForwardVisits - mt.lastStats.ForwardVisits
	mt.touchedB += st.BackwardVisits - mt.lastStats.BackwardVisits
	mt.lastStats = st
}

// Maintain refreshes the placement after one or more Apply calls and
// reports what moved. Strategy selection: the first call places from
// scratch ("initial"); exceeded drift, missed batches (the overlay mutated
// without going through Apply) or a shrunken budget trigger a full
// Greedy_All recompute ("recompute"); otherwise the previous placement is
// repaired in place ("incremental").
func (mt *Maintainer) Maintain(ctx context.Context) (*Report, error) {
	if mt.d.Gen() != mt.lastGen {
		// Missed batches: the cached flow state is unsound. Rebuild the
		// plan once, re-initialize all three flow states on its flat
		// kernels, then recompute the placement below.
		span := obs.TraceFrom(ctx).Begin("plan-rebuild")
		mt.base.Grow(false)
		mt.cur.Grow(false)
		mt.full.Grow(true)
		p := mt.splicer.Rebuild()
		mt.base.ReinitWith(p)
		mt.full.ReinitWith(p)
		mt.cur.ReinitWith(p)
		span.End()
		mt.lastStats = mt.cur.Stats()
		mt.lastGen = mt.d.Gen()
		mt.touchedF = mt.d.N() // force the drift fallback
	}

	prev := mt.cur.FilterNodes()
	rep := &Report{
		K:       mt.opts.K,
		FBefore: mt.Objective(),
	}

	n := mt.d.N()
	drift := float64(mt.touchedF+mt.touchedB) / float64(max(n, 1))
	switch {
	case !mt.placed:
		rep.Strategy = StrategyInitial
	case drift > mt.opts.MaxDrift || len(prev) > mt.opts.K:
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

	rep.TouchedForward, rep.TouchedBackward = mt.touchedF, mt.touchedB
	// Repair work is not drift: resync the stats baseline instead of
	// accounting it toward the next Maintain's fallback decision.
	mt.touchedF, mt.touchedB = 0, 0
	mt.lastStats = mt.cur.Stats()
	mt.placed = true

	rep.Filters = mt.cur.FilterNodes()
	rep.FAfter = mt.Objective()
	rep.Delta = rep.FAfter - rep.FBefore
	rep.PhiEmpty = mt.base.Phi()
	rep.MaxF = mt.base.Phi() - mt.full.Phi()
	if rep.MaxF > 0 {
		rep.FRatio = min(max(rep.FAfter/rep.MaxF, 0), 1)
	} else {
		rep.FRatio = 1
	}
	rep.Added, rep.Removed = diffSets(prev, rep.Filters)
	return rep, nil
}

// recompute runs the paper's Greedy_All from scratch and swaps the
// resulting placement into the incremental state. The model is stood up
// over the splicer's current plan in O(n+m) — no overlay snapshot, no
// plan rebuild — so the fallback path, too, runs on the flat kernels.
func (mt *Maintainer) recompute(ctx context.Context) error {
	m, err := flow.NewModelFromPlan(mt.splicer.Plan(), mt.d.Sources())
	if err != nil {
		// The splicer's plan should always be adoptable; a snapshot build is
		// the conservative fallback if it ever is not.
		m, err = flow.NewModel(mt.d.Snapshot(), mt.d.Sources())
		if err != nil {
			return err
		}
	}
	ev := flow.NewFloat(m)
	res, err := core.Place(ctx, ev, mt.opts.K, core.Options{
		Strategy:    core.StrategyGreedyAll,
		Parallelism: mt.opts.Parallelism,
	})
	ev.ReleaseScratch() // the engine dies with this call; its arena goes back to the plan pool
	if err != nil {
		return err
	}
	mt.cur = flow.NewIncrementalWith(mt.d, mt.d.Sources(), res.Filters, mt.splicer.Plan())
	mt.lastStats = mt.cur.Stats()
	return nil
}

// repair fixes the previous placement in place: greedy top-up to the
// budget, then at most SwapLimit weakest-filter swaps, each verified
// against the exact objective and reverted when not an improvement.
func (mt *Maintainer) repair(ctx context.Context, rep *Report) error {
	k := mt.opts.K
	floor := mt.opts.MinGainFrac * max(rep.FBefore, 1)

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

	for rep.Swaps < mt.opts.SwapLimit {
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
