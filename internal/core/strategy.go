package core

import (
	"fmt"
	"strings"
)

// Strategy names a placement algorithm accepted by Place.
type Strategy string

const (
	// StrategyGreedyAll is the paper's Greedy_All via the closed-form
	// marginal gain: one forward + one backward pass per round. It first
	// contracts the graph with flow.Coarsen's lossless rules when a size
	// check says the smaller sweeps repay the contraction, then projects
	// each quotient pick to its supernode head; the filters are the same
	// either way, and Result.CoarsenStats says when it coarsened. With
	// Parallelism > 1 on a flow.ParallelEvaluator the passes shard by
	// topological level.
	StrategyGreedyAll Strategy = "greedy-all"
	// StrategyCELF names CELF lazy evaluation and runs StrategyGreedyAll's
	// path: one closed-form sweep prices every candidate of a round, so a
	// lazy heap would save no passes, and greedy-all's argmax compares the
	// big engine's gains exactly. Its Result (filters, Stats, Passes,
	// CoarsenStats) is greedy-all's.
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
	// StrategyMLCELF names multilevel greedy and runs StrategyGreedyAll's
	// path, which already coarsens first wherever that pays. Its Result is
	// greedy-all's; the name stays for callers and caches that use it.
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
	{Name: StrategyMLCELF, Short: "mlcelf", Serve: ServeAsync},
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

// ReadsSeed reports whether the strategy reads Seed or SampleSeed — that
// is, whether the seed can change its result.
func (s StrategyInfo) ReadsSeed() bool {
	return s.Randomized || s.Sampling == SamplesAlways
}
