// Package core implements the paper's filter-placement algorithms: the
// (1−1/e)-approximate greedy (Greedy_All) with two cost profiles and a lazy
// (CELF-style) variant, the scalable heuristics Greedy_Max, Greedy_1 and
// Greedy_L, the randomized baselines Rand_K, Rand_I and Rand_W, the exact
// dynamic program for communication trees, an exhaustive optimal solver for
// validation, and Proposition 1's unbounded-budget optimal set.
//
// Place is the only entry point to the greedy algorithms and heuristics:
// one engine with pluggable strategies, shared context/cancellation
// plumbing, oracle accounting and an optional parallel inner loop that
// shards per-round marginal-gain evaluation across cloned evaluators with
// results bit-for-bit identical to the serial path. The strategy table
// (StrategyTable, LookupStrategy) is the one definition of every
// strategy's names and of the options it reads; the fpd daemon, the
// fpplace CLI and the experiment harness all read it.
//
// All algorithms return the placed filter nodes in the order chosen (greedy
// algorithms) or ascending order (set-valued algorithms); the returned slice
// may be shorter than k when further filters cannot improve the objective.
package core

import (
	"math/rand"
	"sort"

	"repro/internal/flow"
	"repro/internal/graph"
)

// OracleStats counts objective-function work done by an algorithm, used by
// the CELF ablation experiment and surfaced per-job by the fpd service.
type OracleStats struct {
	// GainEvaluations counts single-node marginal-gain computations.
	GainEvaluations int `json:"gain_evaluations"`
	// SampledEvaluations counts single-node SAMPLED gain/Φ estimates
	// (approx-celf only): each costs EdgeRate-sampled passes instead of
	// exact ones. Like GainEvaluations it is part of the deterministic
	// contract — identical at every Parallelism setting.
	SampledEvaluations int `json:"sampled_evaluations,omitempty"`
	// Iterations counts greedy rounds completed.
	Iterations int `json:"iterations"`
}

// greedy1 is the paper's Greedy_1 heuristic: rank nodes by the local
// redundancy lower bound m(v) = din(v)·dout(v) and keep the k largest.
// Runs in O(|E| + n log n).
func greedy1(g *graph.Digraph, k int) []int {
	m := make([]float64, g.N())
	for v := range m {
		m[v] = float64(g.InDegree(v)) * float64(g.OutDegree(v))
	}
	return topK(m, k)
}

// topK returns the indices of the k largest strictly-positive scores,
// breaking ties toward smaller indices, in descending score order.
func topK(scores []float64, k int) []int {
	idx := make([]int, 0, len(scores))
	for v, s := range scores {
		if s > 0 {
			idx = append(idx, v)
		}
	}
	sort.Slice(idx, func(i, j int) bool {
		a, b := idx[i], idx[j]
		if scores[a] != scores[b] {
			return scores[a] > scores[b]
		}
		return a < b
	})
	if len(idx) > k {
		idx = idx[:k]
	}
	return idx
}

// UnboundedOptimal returns Proposition 1's minimal filter set achieving the
// maximum possible reduction F(V): every node that is not a sink and has
// in-degree greater than one. Runs in O(|E|).
func UnboundedOptimal(g *graph.Digraph) []int {
	var a []int
	for v := 0; v < g.N(); v++ {
		if g.InDegree(v) > 1 && g.OutDegree(v) > 0 {
			a = append(a, v)
		}
	}
	return a
}

// RandK is the paper's Random_k baseline: k filters chosen uniformly at
// random without replacement from all nodes.
func RandK(m *flow.Model, k int, rng *rand.Rand) []int {
	n := m.N()
	if k > n {
		k = n
	}
	perm := rng.Perm(n)
	nodes := append([]int(nil), perm[:k]...)
	sort.Ints(nodes)
	return nodes
}

// RandI is the paper's Random_Independent baseline: every node becomes a
// filter independently with probability k/n, so the expected filter count
// is k.
func RandI(m *flow.Model, k int, rng *rand.Rand) []int {
	n := m.N()
	p := float64(k) / float64(n)
	var nodes []int
	for v := 0; v < n; v++ {
		if rng.Float64() < p {
			nodes = append(nodes, v)
		}
	}
	return nodes
}

// RandW is the paper's Random_Weighted baseline: node v is assigned weight
// w(v) = Σ_{u ∈ children(v)} 1/din(u) — v's share of responsibility for the
// copies its children receive — and becomes a filter independently with
// probability min(1, w(v)·k/n).
func RandW(m *flow.Model, k int, rng *rand.Rand) []int {
	g := m.Graph()
	n := m.N()
	var nodes []int
	for v := 0; v < n; v++ {
		w := 0.0
		for _, u := range g.Out(v) {
			w += 1 / float64(g.InDegree(u))
		}
		p := w * float64(k) / float64(n)
		if p > 1 {
			p = 1
		}
		if rng.Float64() < p {
			nodes = append(nodes, v)
		}
	}
	return nodes
}
