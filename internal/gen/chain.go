package gen

import (
	"math/rand"

	"repro/internal/graph"
)

// ChainDAG returns a chain-heavy DAG: a preferential-attachment core of
// about n/(1+chainLen) nodes with long single-in relay chains hanging off
// it. Each chain leaves a random core node, runs for a geometric-ish
// length around chainLen, and with probability 1/2 re-enters the core at
// a node strictly after its origin (so the graph stays acyclic); the
// other chains dangle as relay tails. The structure models dissemination
// paths dominated by forwarding — the regime where multilevel placement's
// lossless chain folding contracts hardest. Node 0 is the single source.
func ChainDAG(n, chainLen int, seed int64) (*graph.Digraph, int) {
	if chainLen < 1 {
		chainLen = 1
	}
	rng := rand.New(rand.NewSource(seed))
	core := n / (1 + chainLen)
	if core < 4 {
		core = 4
	}
	if core > n {
		core = n
	}
	b := graph.NewBuilder(n)
	for v := 1; v < core; v++ {
		d := 1 + rng.Intn(3)
		for j := 0; j < d; j++ {
			b.AddEdge(rng.Intn(v), v)
		}
	}
	v := core
	for v < n {
		length := 1 + chainLen/2 + rng.Intn(chainLen+1)
		if v+length > n {
			length = n - v
		}
		origin := rng.Intn(core)
		at := origin
		for j := 0; j < length; j++ {
			b.AddEdge(at, v)
			at = v
			v++
		}
		// Core edges ascend by id and chains are linear, so re-entry at a
		// core node after the origin admits a topological order.
		if rng.Intn(2) == 0 && origin+1 < core {
			b.AddEdge(at, origin+1+rng.Intn(core-origin-1))
		}
	}
	return b.MustBuild(), 0
}

// DeepDAG returns a deep DAG with heterogeneous fan-in: n nodes arranged
// in `levels` levels, where each node draws its in-degree from a
// heavy-tailed distribution (most nodes are single-in relays, a few are
// high-fan-in aggregators) over the previous level. Deep level counts
// with per-level noise are the sampling engine's hardest regime, and the
// single-in majority gives the coarsener folding opportunities between
// the aggregation points. A super-source (the returned id, node n) feeds
// every first-level node.
func DeepDAG(n, levels int, seed int64) (*graph.Digraph, int) {
	if levels < 2 {
		levels = 2
	}
	if levels > n {
		levels = n
	}
	rng := rand.New(rand.NewSource(seed))
	width := n / levels
	if width < 1 {
		width = 1
	}
	b := graph.NewBuilder(n + 1)
	source := n
	// lo/hi bound the previous level's node ids.
	prevLo, prevHi := 0, 0
	v := 0
	for l := 0; l < levels && v < n; l++ {
		count := width
		if l == levels-1 {
			count = n - v // last level absorbs the remainder
		}
		lo := v
		for i := 0; i < count && v < n; i++ {
			if l == 0 {
				b.AddEdge(source, v)
			} else {
				// Heavy-tailed fan-in: 3/4 of nodes relay a single parent,
				// the rest aggregate a Pareto-ish handful.
				d := 1
				if rng.Intn(4) == 0 {
					d = 2
					for d < prevHi-prevLo && rng.Intn(2) == 0 {
						d *= 2
					}
				}
				seen := map[int]bool{}
				for e := 0; e < d; e++ {
					u := prevLo + rng.Intn(prevHi-prevLo)
					if !seen[u] {
						seen[u] = true
						b.AddEdge(u, v)
					}
				}
			}
			v++
		}
		prevLo, prevHi = lo, v
	}
	return b.MustBuild(), source
}

// DiamondChain returns d diamonds in series: 3d+1 nodes, where diamond i
// is 3i→3i+1, 3i→3i+2, 3i+1→3i+3, 3i+2→3i+3. Node 0 is the single source.
// Every diamond doubles the copies its join receives, so Φ(∅) grows as
// 2^d: past d ≈ 53 the gains stop being exact float64 integers, and past
// d ≈ 1023 Φ overflows float64 — the deep-graph regime of the numeric
// range checks.
func DiamondChain(d int) (*graph.Digraph, int) {
	b := graph.NewBuilder(3*d + 1)
	for i := 0; i < d; i++ {
		u := 3 * i
		b.AddEdge(u, u+1)
		b.AddEdge(u, u+2)
		b.AddEdge(u+1, u+3)
		b.AddEdge(u+2, u+3)
	}
	return b.MustBuild(), 0
}
