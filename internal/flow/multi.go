package flow

import (
	"fmt"

	"repro/internal/graph"
)

// Multi-item propagation — the paper's §3 notes the technical results are
// identical for the multiple-item version, and §6 names multirate sources
// as the model extension under investigation. Here each item is generated
// by its own source node (possibly at a rate ≠ 1 item per epoch) and
// propagates independently; a filter de-duplicates per item, so the total
// objective is the rate-weighted sum of the per-item objectives:
//
//	Φ_multi(A, V) = Σ_i rate_i · Φ_i(A, V)
//
// A sum of monotone submodular functions is monotone submodular, so
// Greedy_All retains its (1−1/e) guarantee on MultiEngine.
//
// Unlike the single-item model, an item's source may have in-edges: it
// receives (and counts) copies of *other* items like any relay, while for
// its own item it emits exactly one copy and recognizes — never re-relays —
// returning duplicates. Source nodes are therefore legitimate filter
// candidates in the multi-item setting.

// Item is one information stream in a multi-item model.
type Item struct {
	// Name is used in diagnostics only.
	Name string
	// Source is the node that generates the item.
	Source int
	// Rate is the item's generation rate (items per epoch); values ≤ 0
	// default to 1.
	Rate float64
}

// MultiEngine evaluates the multi-item objective. It implements Evaluator,
// so every placement algorithm in internal/core runs on it unchanged.
type MultiEngine struct {
	base    *Model
	items   []Item
	engines []*FloatEngine
	rates   []float64
}

// NewMulti builds a multi-item evaluator over a DAG. Each item's source
// must be a valid node; in-edges on sources are allowed (see the package
// comment for the semantics).
func NewMulti(g *graph.Digraph, items []Item) (*MultiEngine, error) {
	if len(items) == 0 {
		return nil, fmt.Errorf("flow: no items")
	}
	// The base model drives candidate pruning (Evaluator.Model): its
	// sources default to the in-degree-zero nodes, which can never
	// usefully filter any item because they receive nothing.
	base, err := NewModel(g, nil)
	if err != nil {
		return nil, err
	}
	me := &MultiEngine{base: base, items: append([]Item(nil), items...)}
	for _, it := range items {
		if it.Source < 0 || it.Source >= g.N() {
			return nil, fmt.Errorf("flow: item %q source %d out of range [0,%d)", it.Name, it.Source, g.N())
		}
		isSrc := make([]bool, g.N())
		isSrc[it.Source] = true
		// Item models share the base model's plan and digraph: both are
		// structural (graph + weights only), so one plan serves every
		// per-item engine. Each item's invariants depend on its source,
		// so each model gets its own cache.
		m := &Model{n: base.n, sources: []int{it.Source}, isSrc: isSrc, plan: base.plan, g: base.g, inv: &invariants{}}
		me.engines = append(me.engines, NewFloat(m))
		rate := it.Rate
		if rate <= 0 {
			rate = 1
		}
		me.rates = append(me.rates, rate)
	}
	return me, nil
}

// Items returns the configured items.
func (me *MultiEngine) Items() []Item { return append([]Item(nil), me.items...) }

// Model implements Evaluator; see NewMulti for what the base model means.
func (me *MultiEngine) Model() *Model { return me.base }

// Clone implements Cloner: per-item engines are cloned, everything else is
// shared immutable state.
func (me *MultiEngine) Clone() Evaluator {
	c := &MultiEngine{base: me.base, items: me.items, rates: me.rates}
	c.engines = make([]*FloatEngine, len(me.engines))
	for i, e := range me.engines {
		c.engines[i] = e.Clone().(*FloatEngine)
	}
	return c
}

// Passes implements PassCounter by summing the per-item engines' pass
// counts. Each item engine shares its counter with every clone derived
// from it, so the total attributes the multi-item placement's real pass
// workload regardless of candidate sharding — previously multi-item
// placements reported zero passes and escaped cost accounting entirely.
func (me *MultiEngine) Passes() (forward, suffix int64) {
	for _, e := range me.engines {
		f, s := e.Passes()
		forward += f
		suffix += s
	}
	return forward, suffix
}

// ReleaseScratch implements ScratchReleaser by releasing every per-item
// engine's borrowed arena.
func (me *MultiEngine) ReleaseScratch() {
	for _, e := range me.engines {
		e.ReleaseScratch()
	}
}

// Phi implements Evaluator: the rate-weighted total deliveries across all
// items.
func (me *MultiEngine) Phi(filters []bool) float64 {
	total := 0.0
	for i, e := range me.engines {
		total += me.rates[i] * e.Phi(filters)
	}
	return total
}

// PhiOf returns item i's (unweighted) Φ under the filter set.
func (me *MultiEngine) PhiOf(i int, filters []bool) float64 {
	return me.engines[i].Phi(filters)
}

// Received implements Evaluator: rate-weighted per-node deliveries.
func (me *MultiEngine) Received(filters []bool) []float64 {
	out := make([]float64, me.base.N())
	for i, e := range me.engines {
		for v, r := range e.Received(filters) {
			out[v] += me.rates[i] * r
		}
	}
	return out
}

// Suffix implements Evaluator: rate-weighted sum of per-item suffixes.
// Note the product form of the single-item impact does not survive the
// sum; use Impacts for exact gains.
func (me *MultiEngine) Suffix(filters []bool) []float64 {
	out := make([]float64, me.base.N())
	for i, e := range me.engines {
		for v, s := range e.Suffix(filters) {
			out[v] += me.rates[i] * s
		}
	}
	return out
}

// Impacts implements Evaluator: the exact multi-item marginal gain of each
// candidate, Σ_i rate_i · gain_i(v).
func (me *MultiEngine) Impacts(filters []bool) []float64 {
	out := make([]float64, me.base.N())
	for i, e := range me.engines {
		for v, gn := range e.Impacts(filters) {
			out[v] += me.rates[i] * gn
		}
	}
	return out
}

// ArgmaxImpact implements Evaluator.
func (me *MultiEngine) ArgmaxImpact(filters, banned []bool) (int, float64) {
	gains := me.Impacts(filters)
	best, bestGain := -1, 0.0
	for v, gn := range gains {
		if banned != nil && banned[v] {
			continue
		}
		if gn > bestGain {
			best, bestGain = v, gn
		}
	}
	return best, bestGain
}

// F implements Evaluator.
func (me *MultiEngine) F(filters []bool) float64 {
	total := 0.0
	for i, e := range me.engines {
		total += me.rates[i] * e.F(filters)
	}
	return total
}

// MaxF implements Evaluator: the rate-weighted sum of per-item maxima
// (filters everywhere except the respective item's source).
func (me *MultiEngine) MaxF() float64 {
	total := 0.0
	for i, e := range me.engines {
		total += me.rates[i] * e.MaxF()
	}
	return total
}
