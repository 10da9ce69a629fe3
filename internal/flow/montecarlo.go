package flow

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/sched"
)

// Monte-Carlo evaluation of the probabilistic propagation model.
//
// The analytic weighted engine computes *expected* copy counts and models a
// filter as emitting min(1, E[received]) — exact for the deterministic
// model, an approximation under randomness because E[min(1, X)] ≤
// min(1, E[X]) (Jensen). MonteCarlo measures the ground truth by sampling
// actual propagations: every copy crosses each edge independently with the
// edge's probability and a filter forwards only the first copy of the item
// it sees. The estimator reports the sample mean of Φ(A, V) with a normal
// confidence interval, letting tests and experiments quantify the gap the
// paper's §3 glosses over.
//
// Runs execute in fixed-size SHARDS of mcShardRuns, each with its own
// simulator and its own RNG stream derived only from (seed, shard index).
// The shard layout depends solely on the requested run count — never on
// worker count or scheduler state — and per-shard moments are reduced in
// ascending shard order, so a given (runs, seed) pair yields the same
// MCResult whether the shards execute serially or across the shared
// scheduler at any parallelism.

// mcShardRuns is the number of simulator runs one shard executes. It is
// part of the deterministic contract: changing it changes which stream
// drives which run and therefore the estimate for a given seed.
const mcShardRuns = 16

// MCResult is a Monte-Carlo estimate of Φ(A, V).
type MCResult struct {
	Mean   float64 `json:"mean"`
	StdErr float64 `json:"std_err"`
	Runs   int     `json:"runs"`
}

// CI95 returns the half-width of the 95% confidence interval.
func (r MCResult) CI95() float64 { return 1.96 * r.StdErr }

// mcShardSeed derives shard s's RNG stream from the caller's seed.
func mcShardSeed(seed int64, s int) int64 {
	return int64(mix64(uint64(seed) ^ (uint64(s)+1)*sampleGamma))
}

// MonteCarlo estimates Φ(A, V) under true probabilistic semantics for a
// weighted model by running the event-level simulator `runs` times,
// sharded across the process-wide scheduler with its worker count as the
// concurrency bound (a zero-worker pool runs serially). For unweighted
// models a single run suffices (the process is deterministic) and the
// standard error is zero. Same seed ⇒ same result at any worker count;
// see MonteCarloP to bound the parallelism explicitly.
func MonteCarlo(m *Model, filters []bool, runs int, seed int64) (MCResult, error) {
	return MonteCarloP(m, filters, runs, seed, sched.Default().Workers())
}

// MonteCarloP is MonteCarlo with the shard concurrency bounded by procs
// (≤ 1 runs every shard inline). procs only decides where shards
// execute, never how runs split into shards, so the returned MCResult is
// bit-for-bit identical at every setting.
func MonteCarloP(m *Model, filters []bool, runs int, seed int64, procs int) (MCResult, error) {
	if runs <= 0 {
		return MCResult{}, fmt.Errorf("flow: runs = %d, need ≥ 1", runs)
	}
	if !m.Weighted() {
		sim, err := NewSimulator(m.Graph(), m.Sources())
		if err != nil {
			return MCResult{}, err
		}
		phi, err := sim.Phi(filters)
		if err != nil {
			return MCResult{}, err
		}
		return MCResult{Mean: float64(phi), Runs: 1}, nil
	}

	shards := (runs + mcShardRuns - 1) / mcShardRuns
	type shardMoments struct {
		sum, sumSq float64
		err        error
	}
	acc := make([]shardMoments, shards)
	runShard := func(s int) {
		sim, err := NewSimulator(m.Graph(), m.Sources())
		if err != nil {
			acc[s].err = err
			return
		}
		sim.Rand = rand.New(rand.NewSource(mcShardSeed(seed, s)))
		sim.Prob = m.weight
		count := mcShardRuns
		if rem := runs - s*mcShardRuns; rem < count {
			count = rem
		}
		for i := 0; i < count; i++ {
			phi, err := sim.Phi(filters)
			if err != nil {
				acc[s].err = err
				return
			}
			f := float64(phi)
			acc[s].sum += f
			acc[s].sumSq += f * f
		}
	}
	if procs <= 1 || shards == 1 {
		for s := 0; s < shards; s++ {
			runShard(s)
		}
	} else {
		b := sched.Default().NewBatch()
		for s := 0; s < shards; s++ {
			s := s
			b.Go(func() { runShard(s) })
		}
		b.Wait()
	}

	// Reduce in ascending shard order — the serial accumulation order.
	var sum, sumSq float64
	for s := range acc {
		if acc[s].err != nil {
			return MCResult{}, acc[s].err
		}
		sum += acc[s].sum
		sumSq += acc[s].sumSq
	}
	n := float64(runs)
	mean := sum / n
	variance := 0.0
	if runs > 1 {
		variance = (sumSq - n*mean*mean) / (n - 1)
		if variance < 0 {
			variance = 0
		}
	}
	return MCResult{Mean: mean, StdErr: math.Sqrt(variance / n), Runs: runs}, nil
}
