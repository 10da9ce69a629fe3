package core

import (
	"context"
	"math"

	"repro/internal/flow"
)

// Approximate placement: CELF's lazy greedy driven by sampled gain
// estimates, with exact re-checks only where they decide a commit.
//
// Exact CELF pays one full exact gain sweep (V evaluations) to seed its
// heap, then a handful of exact re-evaluations per round. On graphs
// where one exact pass is already the budget, that V-sized init is the
// wall. approx-celf replaces it with ONE sampled sweep from a
// flow.SamplingEngine (O(V + EdgeRate·E) per sampled pass) and keeps the
// exact oracle only for the few heap-top entries that must be compared
// before a pick commits — so exact work scales with k·recheckWidth, not
// V·k, while every committed pick is still justified by exact gains.
//
// Correctness leans on the same property as CELF: stale heap values only
// defer work when they are upper bounds. Re-checked entries are exact
// gains, hence true upper bounds under submodularity; estimate-seeded
// entries are inflated by a slack factor derived from Options.Quality,
// so an underestimate within the target relative error cannot hide a
// node from the re-check window. The result: F(A) within ~Quality of
// exact CELF's, verified by the property suite on graphs where both
// paths run.
//
// Determinism: the sampling engine's estimates depend only on its seed
// (never on worker count), the re-check batch width is a constant, and
// exact re-checks run through the same evalPool arithmetic as naive —
// so filters, OracleStats AND the reported Φ confidence interval are
// bit-for-bit identical at every Parallelism setting.

// DefaultQuality is the target relative estimate error when
// Options.Quality is 0.
const DefaultQuality = 0.05

// approxRecheckWidth is how many stale/estimated heap entries one
// re-check batch evaluates exactly. It is a constant — NOT tied to
// Parallelism — so the commit sequence is identical at every setting.
const approxRecheckWidth = 4

// approxQuality clamps the quality knob to its accepted range.
func approxQuality(q float64) float64 {
	if q == 0 {
		q = DefaultQuality
	}
	return math.Min(0.5, math.Max(0.005, q))
}

// approxSampleOptions maps the quality knob to sampling parameters:
// the pass budget grows as 1/ε and the per-node edge-sampling rate
// rises as ε tightens, floored/capped to keep a single estimate
// bounded. SampleBudget overrides the derived pass count.
func approxSampleOptions(opts Options) (float64, flow.SampleOptions) {
	eps := approxQuality(opts.Quality)
	samples := opts.SampleBudget
	if samples <= 0 {
		samples = int(math.Round(0.4 / eps))
		samples = min(max(samples, 4), 64)
	}
	rate := math.Min(0.5, math.Max(0.05, 0.01/eps))
	return eps, flow.SampleOptions{
		Samples:     samples,
		EdgeRate:    rate,
		Seed:        opts.SampleSeed,
		Parallelism: opts.Parallelism,
	}
}

// placeApproxCELF runs the lazy greedy over estimated gains.
//
// Heap discipline: entries carry the usual round stamp; estimate-seeded
// entries are stamped -1 (never "fresh") and their priority is the
// sampled estimate inflated by (1 + ε). A pick commits only when the
// heap top is an EXACT gain computed this round — estimates and stale
// exact bounds above it have all been re-checked down, so the committed
// gain beats every bound that could have hidden a better node (up to
// the estimate error the slack absorbs).
func placeApproxCELF(ctx context.Context, ev flow.Evaluator, k int, opts Options, res *Result) error {
	m := ev.Model()
	n := m.N()
	eps, sopts := approxSampleOptions(opts)
	se := flow.NewSampling(m, sopts)
	defer se.ReleaseScratch()
	pool := newEvalPool(ev, opts.Parallelism, opts.Tenant)
	defer pool.close()
	res.Parallelism = pool.width()
	st := &res.Stats
	filters := make([]bool, n)
	chosen := make([]int, 0, k)

	// One sampled sweep estimates every candidate's gain; construction
	// of the engine itself estimated Φ(∅,V) (its confidence interval is
	// re-used for the final report).
	sp := opts.Trace.Begin("approx-sample")
	est := se.Impacts(nil)
	sp.AddEvals(int64(n))
	sp.SetWorkers(pool.width())
	sp.End()
	st.SampledEvaluations += n

	slack := 1 + eps
	var h celfHeap
	for v := 0; v < n; v++ {
		if !m.IsSource(v) && est[v] > 0 {
			h.push(celfEntry{est[v] * slack, v, -1})
		}
	}

	round := 0
	batch := make([]celfEntry, 0, approxRecheckWidth)
	nodes := make([]int, 0, approxRecheckWidth)
	for len(chosen) < k && len(h) > 0 {
		if err := ctx.Err(); err != nil {
			return err
		}
		if h[0].stamp == round {
			top := h.pop()
			if top.gain <= 0 {
				break
			}
			filters[top.v] = true
			chosen = append(chosen, top.v)
			round++
			st.Iterations++
			continue
		}
		// Top is an estimate or a stale exact bound: exactly re-check the
		// next batch of such entries in heap (descending-bound) order.
		batch, nodes = batch[:0], nodes[:0]
		for len(h) > 0 && h[0].stamp != round && len(batch) < approxRecheckWidth {
			e := h.pop()
			batch = append(batch, e)
			nodes = append(nodes, e.v)
		}
		rsp := opts.Trace.Begin("approx-recheck")
		exact, err := pool.gains(ctx, filters, nodes)
		rsp.AddEvals(int64(len(nodes)))
		rsp.SetWorkers(pool.width())
		rsp.End()
		if err != nil {
			return err
		}
		st.GainEvaluations += len(nodes)
		for i := range batch {
			if g := exact[i]; g > 0 {
				h.push(celfEntry{g, batch[i].v, round})
			}
		}
	}
	res.Filters = chosen

	// Report the sampled confidence interval on Φ(A) for the final set.
	fsp := opts.Trace.Begin("approx-sample")
	ci := se.PhiEstimate(filters)
	fsp.AddEvals(1)
	fsp.SetWorkers(pool.width())
	fsp.End()
	st.SampledEvaluations++
	res.PhiCI = &ci
	return nil
}

// celfEntry is a lazy-greedy heap entry: a gain upper bound for node v,
// valid as of greedy round stamp.
type celfEntry struct {
	gain  float64
	v     int
	stamp int
}

// celfLess orders entries by priority: larger gain first, ties toward the
// smaller node id (so results match greedy-all exactly).
func celfLess(a, b celfEntry) bool { // is a lower priority than b?
	if a.gain != b.gain {
		return a.gain < b.gain
	}
	return a.v > b.v
}

// celfHeap is a max-heap of celfEntry under celfLess.
type celfHeap []celfEntry

func (h *celfHeap) push(e celfEntry) {
	*h = append(*h, e)
	a := *h
	i := len(a) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !celfLess(a[p], a[i]) {
			break
		}
		a[p], a[i] = a[i], a[p]
		i = p
	}
}

func (h *celfHeap) pop() celfEntry {
	a := *h
	top := a[0]
	last := len(a) - 1
	a[0] = a[last]
	a = a[:last]
	*h = a
	i := 0
	for {
		l, r, big := 2*i+1, 2*i+2, i
		if l < len(a) && celfLess(a[big], a[l]) {
			big = l
		}
		if r < len(a) && celfLess(a[big], a[r]) {
			big = r
		}
		if big == i {
			break
		}
		a[i], a[big] = a[big], a[i]
		i = big
	}
	return top
}
