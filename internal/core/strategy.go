package core

import (
	"fmt"
	"strings"
)

// Strategy names a placement algorithm accepted by Place.
type Strategy string

const (
	// StrategyGreedyAll is the paper's Greedy_All via the closed-form
	// marginal gain: one forward + one backward pass per round. With
	// Parallelism > 1 on a flow.ParallelEvaluator the passes shard by
	// topological level.
	StrategyGreedyAll Strategy = "greedy-all"
	// StrategyCELF is Greedy_All at the paper's per-candidate cost profile
	// with CELF lazy evaluation; stale heap entries re-evaluate in
	// round-stamped batches across cloned evaluators.
	StrategyCELF Strategy = "celf"
	// StrategyNaive is Greedy_All at the paper's cost profile with no
	// laziness: every candidate re-evaluates every round. Candidates shard
	// across cloned evaluators.
	StrategyNaive Strategy = "naive"
	// StrategyApproxCELF is CELF on SAMPLED gain estimates: the lazy heap
	// is seeded by a flow.SamplingEngine's edge-sampled estimates and only
	// the heap-top handful is re-checked exactly before each commit, so
	// exact oracle work scales with k instead of V·k. Options.Quality sets
	// the target relative error; Result.PhiCI reports the sampled
	// confidence interval on Φ(A).
	StrategyApproxCELF Strategy = "approx-celf"
	// StrategyMLCELF is multilevel CELF: coarsen the graph losslessly (or,
	// with Options.Coarsen.Lossless false, further via bounded twin
	// merging), run CELF — exact, or approx-celf when Quality/SampleBudget
	// ask for sampling — on the quotient, project the picks back to their
	// supernode heads and locally refine each pick within its fiber by
	// exact gains. When only lossless rules fired the result is bit-for-bit
	// StrategyCELF's. Result.CoarsenStats reports the contraction.
	StrategyMLCELF Strategy = "ml-celf"
	// StrategyGreedyMax is the paper's Greedy_Max (impacts once, top k).
	StrategyGreedyMax Strategy = "greedy-max"
	// StrategyGreedy1 is the paper's Greedy_1 (rank by din·dout).
	StrategyGreedy1 Strategy = "greedy-1"
	// StrategyGreedyL is the paper's Greedy_L. On the float engine over an
	// unweighted model it maintains prefixes incrementally (the paper's
	// "clever bookkeeping" remark); elsewhere it runs one forward pass per
	// round. Both paths choose the same filters.
	StrategyGreedyL Strategy = "greedy-l"
	// StrategyRandK, StrategyRandI and StrategyRandW are the paper's
	// randomized baselines.
	StrategyRandK Strategy = "rand-k"
	StrategyRandI Strategy = "rand-i"
	StrategyRandW Strategy = "rand-w"
	// StrategyProp1 is Proposition 1's unbounded-budget optimal set; the
	// budget k is ignored.
	StrategyProp1 Strategy = "prop1"
)

// Serving says how the fpd daemon runs a strategy.
type Serving uint8

const (
	// ServeNone keeps a strategy library- and fpplace-only.
	ServeNone Serving = iota
	// ServeSync runs inline in the HTTP request.
	ServeSync
	// ServeAsync runs as a cached job on the job engine.
	ServeAsync
)

// Sampling says when a strategy reads Quality, SampleBudget and
// SampleSeed.
type Sampling uint8

const (
	// NoSampling strategies are exact and ignore the sampling knobs.
	NoSampling Sampling = iota
	// SamplesAlways strategies are always estimate-driven.
	SamplesAlways
	// SamplesOnRequest strategies sample only when Quality or SampleBudget
	// is set, and are exact otherwise.
	SamplesOnRequest
)

// StrategyInfo is one row of the strategy table: a strategy's two names
// and the facts every surface (Place, fpd, fpplace, the experiment
// harness) needs about which options it reads.
type StrategyInfo struct {
	// Name is the core name; Short is the terse form fpd echoes. Both are
	// accepted everywhere.
	Name  Strategy
	Short string
	// Serve is how fpd runs the strategy.
	Serve Serving
	// Randomized strategies read Seed (or Rand).
	Randomized bool
	// Sampling says when the strategy reads Quality, SampleBudget and
	// SampleSeed.
	Sampling Sampling
	// Coarsens marks strategies that read Coarsen.
	Coarsens bool
	// Kless strategies ignore the budget k.
	Kless bool
}

// strategyTable is the only place strategy names are defined, in
// documentation order.
var strategyTable = []StrategyInfo{
	{Name: StrategyGreedyAll, Short: "gall", Serve: ServeAsync},
	{Name: StrategyCELF, Short: "celf", Serve: ServeAsync},
	{Name: StrategyNaive, Short: "naive", Serve: ServeNone},
	{Name: StrategyApproxCELF, Short: "approx", Serve: ServeAsync, Sampling: SamplesAlways},
	{Name: StrategyMLCELF, Short: "mlcelf", Serve: ServeAsync, Sampling: SamplesOnRequest, Coarsens: true},
	{Name: StrategyGreedyMax, Short: "gmax", Serve: ServeSync},
	{Name: StrategyGreedy1, Short: "g1", Serve: ServeSync},
	{Name: StrategyGreedyL, Short: "gl", Serve: ServeSync},
	{Name: StrategyRandK, Short: "randk", Serve: ServeSync, Randomized: true},
	{Name: StrategyRandI, Short: "randi", Serve: ServeSync, Randomized: true},
	{Name: StrategyRandW, Short: "randw", Serve: ServeSync, Randomized: true},
	{Name: StrategyProp1, Short: "prop1", Serve: ServeSync, Kless: true},
}

// legacyNames maps retired strategy names onto their successors.
var legacyNames = map[string]Strategy{"greedy-l-fast": StrategyGreedyL, "glfast": StrategyGreedyL}

// strategyByName indexes the table by core, short and legacy name.
var strategyByName = func() map[string]StrategyInfo {
	idx := make(map[string]StrategyInfo, 2*len(strategyTable)+len(legacyNames))
	for _, s := range strategyTable {
		idx[string(s.Name)], idx[s.Short] = s, s
	}
	for old, s := range legacyNames {
		idx[old] = idx[string(s)]
	}
	return idx
}()

// Strategies lists every strategy Place accepts, in documentation order.
func Strategies() []Strategy {
	out := make([]Strategy, len(strategyTable))
	for i, s := range strategyTable {
		out[i] = s.Name
	}
	return out
}

// StrategyTable returns a copy of the strategy table, in documentation
// order.
func StrategyTable() []StrategyInfo {
	return append([]StrategyInfo(nil), strategyTable...)
}

// LookupStrategy resolves a core, short or legacy strategy name to its
// table row. The error text is the same on every surface that resolves
// names, so only each surface's prefix differs.
func LookupStrategy(name string) (StrategyInfo, error) {
	if s, ok := strategyByName[name]; ok {
		return s, nil
	}
	names := make([]string, len(strategyTable))
	for i, s := range strategyTable {
		names[i] = string(s.Name)
		if s.Short != string(s.Name) {
			names[i] += " (" + s.Short + ")"
		}
	}
	return StrategyInfo{}, fmt.Errorf("unknown strategy %q (have %s)", name, strings.Join(names, ", "))
}

// ReadsSeed reports whether a run with these sampling knobs reads Seed or
// SampleSeed — that is, whether the seed can change its result.
func (s StrategyInfo) ReadsSeed(quality float64, sampleBudget int) bool {
	return s.Randomized || s.Sampling == SamplesAlways ||
		s.Sampling == SamplesOnRequest && sampleRequested(quality, sampleBudget)
}

// sampleRequested reports whether the sampling knobs ask a
// SamplesOnRequest strategy to sample.
func sampleRequested(quality float64, sampleBudget int) bool {
	return quality != 0 || sampleBudget > 0
}
