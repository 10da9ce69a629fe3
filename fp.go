// Package fp is a Go implementation of the Filter-Placement problem from
// "The Filter-Placement Problem and its Application to Minimizing
// Information Multiplicity" (Erdős, Ishakian, Lapets, Terzi, Bestavros;
// PVLDB 5(5), 2012).
//
// In a communication graph, source nodes inject information items and every
// node blindly relays every copy it receives to all out-neighbors, so a
// node receives one copy per directed path from a source — the paper's
// "information multiplicity". A filter is a node that forwards each
// distinct item once. Given a budget k, filter placement asks for the k
// nodes whose filtering maximizes the drop in total copies delivered:
//
//	F(A) = Φ(∅, V) − Φ(A, V)
//
// This package is the public facade over the implementation:
//
//   - Graph construction: NewBuilder, FromEdges, ReadEdgeList.
//   - Propagation models and objective evaluation: NewModel, NewFloat
//     (fast float64, supports probabilistic edge weights), NewBig (exact
//     big-integer arithmetic), FR.
//   - Placement: Place, the one entry point for every algorithm of the
//     paper (greedy-all, its celf/naive cost profiles, greedy-max,
//     greedy-1, greedy-l, the rand-* baselines, prop1) and the approx-celf
//     and ml-celf extensions, with context cancellation, oracle accounting
//     and a Parallelism option that shards per-round marginal-gain
//     evaluation by topological level or across cloned evaluators
//     (results are bit-for-bit identical to serial). PlaceOptions.Strategy takes a core name
//     (greedy-all) or its short form (gall); PlaceStrategies lists them.
//     All parallel work executes on a process-wide work-stealing scheduler
//     (SetSchedulerWorkers), and PlaceBatch gang-submits placements over
//     many graphs onto it at once. TreeDP (exact on communication trees)
//     and Exhaustive (tiny instances) stay separate.
//   - Cyclic inputs: Acyclic and AcyclicBestRoot extract a maximal
//     connected acyclic subgraph first (paper §4.3).
//   - Dataset generators used by the paper's evaluation, from the layered
//     synthetic graphs to structure-matched stand-ins for the Quote,
//     Twitter and APS-citation datasets.
//   - Dynamic graphs: NewDynamic wraps a DAG in a mutable overlay with
//     atomic batched edge mutations and incremental topological-order
//     maintenance (cycle-creating edges are rejected with ErrWouldCycle),
//     and NewMaintainer keeps a placement fresh across mutation batches —
//     incremental dirty-cone repair, falling back to a full greedy-all
//     placement when drift grows. TwitterChurn generates benchmarkable mutation streams.
//   - The full experiment harness: RunExperiment regenerates any figure of
//     the paper's evaluation section.
//
// A minimal session:
//
//	g := fp.MustFromEdges(4, [][2]int{{0, 1}, {0, 2}, {1, 3}, {2, 3}})
//	model, _ := fp.NewModel(g, nil)        // sources = in-degree-0 nodes
//	ev := fp.NewFloat(model)
//	res, _ := fp.Place(context.Background(), ev, 1, fp.PlaceOptions{})
//	fmt.Println(fp.FR(ev, fp.MaskOf(g.N(), res.Filters)))
package fp

import (
	"context"
	"io"
	"math/rand"

	"repro/internal/acyclic"
	"repro/internal/centrality"
	"repro/internal/core"
	"repro/internal/dyn"
	"repro/internal/experiments"
	"repro/internal/flow"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/sched"
)

// Graph is an immutable directed communication graph. See Builder and
// FromEdges for construction.
type Graph = graph.Digraph

// Builder accumulates edges and produces a Graph.
type Builder = graph.Builder

// DegreeStats summarizes a degree sequence.
type DegreeStats = graph.DegreeStats

// ErrCyclic is returned by DAG-only operations on cyclic graphs.
var ErrCyclic = graph.ErrCyclic

// NewBuilder returns a Builder for a graph with n nodes.
func NewBuilder(n int) *Builder { return graph.NewBuilder(n) }

// FromEdges builds a graph with n nodes from an explicit edge list.
func FromEdges(n int, edges [][2]int) (*Graph, error) { return graph.FromEdges(n, edges) }

// MustFromEdges is FromEdges that panics on error.
func MustFromEdges(n int, edges [][2]int) *Graph { return graph.MustFromEdges(n, edges) }

// ReadEdgeList parses a whitespace-separated edge list ("u v" per line,
// '#' comments; non-numeric tokens become node labels).
func ReadEdgeList(r io.Reader) (*Graph, error) { return graph.ReadEdgeList(r) }

// ReadWeightedEdgeList parses the "u v p" format carrying per-edge relay
// probabilities; the returned lookup plugs into Model.WithWeights.
func ReadWeightedEdgeList(r io.Reader) (*Graph, func(u, v int) float64, error) {
	return graph.ReadWeightedEdgeList(r)
}

// WriteEdgeList writes a graph in the edge-list format.
func WriteEdgeList(w io.Writer, g *Graph) error { return graph.WriteEdgeList(w, g) }

// WriteDOT writes a graph in Graphviz DOT format; highlight (optional)
// marks nodes — typically a filter placement — to draw filled.
func WriteDOT(w io.Writer, g *Graph, name string, highlight []bool) error {
	return graph.WriteDOT(w, g, name, highlight)
}

// Dominators returns idom[v] for every node reachable from root (-1 for
// unreachable nodes). Node d dominates v when every root→v path passes
// through d — the structure behind the paper's Figure-10 bottleneck.
func Dominators(g *Graph, root int) []int { return g.Dominators(root) }

// Dominates reports whether d dominates v under an idom table.
func Dominates(idom []int, d, v int) bool { return graph.Dominates(idom, d, v) }

// DominatedCount returns each node's choke-point score: how many nodes it
// dominates.
func DominatedCount(idom []int) []int { return graph.DominatedCount(idom) }

// Model binds a DAG to its information sources and optional edge weights.
type Model = flow.Model

// Evaluator computes Φ, impacts and the objective for a model; see NewFloat
// and NewBig.
type Evaluator = flow.Evaluator

// Simulator propagates individual copies event-by-event; unlike the
// analytic evaluators it also runs on cyclic graphs under an event budget.
type Simulator = flow.Simulator

// ErrNotDAG is returned when a model is constructed over a cyclic graph.
var ErrNotDAG = flow.ErrNotDAG

// ErrBudget is returned by Simulator when propagation diverges.
var ErrBudget = flow.ErrBudget

// NewModel validates a DAG + sources pair. Empty sources means every
// in-degree-0 node.
func NewModel(g *Graph, sources []int) (*Model, error) { return flow.NewModel(g, sources) }

// NewFloat builds the fast float64 evaluator (supports WithWeights models).
func NewFloat(m *Model) Evaluator { return flow.NewFloat(m) }

// Plan is a model's immutable, level-packed execution plan: the shared
// iteration order, re-indexed CSR and scratch arena every engine's passes
// run over (see the internal/flow package docs).
type Plan = flow.Plan

// PlanOf returns (building on first use) the model's execution plan.
// Useful for capacity planning: Plan.Levels is the critical-path length of
// a level-parallel pass and Plan.MaxWidth the parallelism available at the
// widest step.
func PlanOf(m *Model) *Plan { return m.Plan() }

// NewBig builds the exact big-integer evaluator for deterministic models.
func NewBig(m *Model) Evaluator { return flow.NewBig(m) }

// NewSimulator builds an event-level simulator over any directed graph.
func NewSimulator(g *Graph, sources []int) (*Simulator, error) {
	return flow.NewSimulator(g, sources)
}

// FR returns the paper's Filter Ratio F(A)/F(V) ∈ [0, 1].
func FR(ev Evaluator, filters []bool) float64 { return flow.FR(ev, filters) }

// MaskOf converts a node list to a boolean mask of length n.
func MaskOf(n int, nodes []int) []bool { return flow.MaskOf(n, nodes) }

// NodesOf converts a mask to an ascending node list.
func NodesOf(mask []bool) []int { return flow.NodesOf(mask) }

// AllFilters returns the mask with a filter at every non-source node.
func AllFilters(m *Model) []bool { return flow.AllFilters(m) }

// PlaceStrategy names a placement algorithm for Place.
type PlaceStrategy = core.Strategy

// The strategies Place accepts. StrategyGreedyAll is the paper's
// (1−1/e)-approximation; StrategyCELF and StrategyNaive are its lazy and
// paper-cost-profile variants (same filter sets, counted oracle calls);
// the rest are the paper's heuristics and baselines.
const (
	StrategyGreedyAll = core.StrategyGreedyAll
	StrategyCELF      = core.StrategyCELF
	StrategyNaive     = core.StrategyNaive
	StrategyGreedyMax = core.StrategyGreedyMax
	StrategyGreedy1   = core.StrategyGreedy1
	StrategyGreedyL   = core.StrategyGreedyL
	StrategyRandK     = core.StrategyRandK
	StrategyRandI     = core.StrategyRandI
	StrategyRandW     = core.StrategyRandW
	StrategyProp1     = core.StrategyProp1
	// StrategyApproxCELF is the approximate engine: CELF's lazy greedy
	// driven by sampled gain estimates, with exact re-checks only at heap
	// tops — exact oracle work scales with k, not V·k. Quality (or
	// SampleBudget/SampleSeed) in PlaceOptions tunes it; the Result
	// carries a sampled confidence interval on Φ(A).
	StrategyApproxCELF = core.StrategyApproxCELF
	// StrategyMLCELF is multilevel placement: coarsen the model into a
	// quotient graph (PlaceOptions.Coarsen), run CELF — or, when Quality/
	// SampleBudget ask for it, approx-celf — on the quotient, project the
	// picks back, and locally refine within each supernode's fiber. With
	// lossless coarsening the result is bit-for-bit CELF's; the Placement
	// carries the contraction's CoarsenStats.
	StrategyMLCELF = core.StrategyMLCELF
)

// PlaceStrategies lists every strategy Place accepts.
func PlaceStrategies() []PlaceStrategy { return core.Strategies() }

// PlaceOptions configures Place: strategy, parallelism (worker goroutines
// for marginal-gain evaluation — results are bit-for-bit identical to the
// serial path at any setting), the seed/rng of randomized baselines, and
// an optional Trace recording per-stage timing (see NewTrace).
type PlaceOptions = core.Options

// Placement is Place's outcome: the filters, the oracle-work stats, the
// topological-pass counts and the effective parallelism.
type Placement = core.Result

// PassStats counts the topological passes a placement executed — the
// engine-level cost behind the oracle calls (Placement.Passes). Unlike
// OracleStats it is an execution measurement of the engine, not part of
// the determinism contract.
type PassStats = core.PassStats

// Trace aggregates named, timed stages; pass one via PlaceOptions.Trace
// to see where a placement spends its time (greedy rounds, CELF init and
// rechecks). All methods are safe on a nil receiver — a nil trace records
// nothing — and safe for the concurrent use parallel placement makes of
// it. The fpd daemon attaches one per async job and serves the snapshot
// as the job's timeline.
type Trace = obs.Trace

// StageRecord is one aggregated stage of a Trace snapshot: occurrence
// count, total duration, evaluations attributed and the maximum worker
// parallelism observed.
type StageRecord = obs.StageRecord

// NewTrace returns an empty stage trace for PlaceOptions.Trace; read the
// result with its Snapshot method after placement.
func NewTrace() *Trace { return obs.NewTrace() }

// TraceContext is a W3C Trace Context identity (trace-id, span-id, flags)
// as carried by the `traceparent` HTTP header. The fpd daemon accepts or
// mints one per request and threads it through job records, stage
// timelines and structured logs.
type TraceContext = obs.TraceContext

// ParseTraceparent parses a W3C traceparent header
// ("00-<32 hex>-<16 hex>-<2 hex>") into a TraceContext; it rejects
// malformed, all-zero and unknown-version values.
func ParseTraceparent(s string) (TraceContext, error) { return obs.ParseTraceparent(s) }

// NewTraceContext mints a fresh sampled TraceContext with random trace
// and span ids.
func NewTraceContext() TraceContext { return obs.NewTraceContext() }

// TenantCounters accumulates one tenant's resource usage — oracle
// evaluations, topological passes, queue waits, cache traffic. Pass one
// via PlaceOptions.Account to attribute a placement's cost; all methods
// are nil-safe, so a nil *TenantCounters disables accounting. Accounting
// never changes placement results — charges are recorded strictly after
// the algorithm's work.
type TenantCounters = obs.TenantCounters

// TenantUsage is a point-in-time JSON-ready snapshot of one tenant's
// TenantCounters.
type TenantUsage = obs.TenantUsage

// Accountant tracks TenantCounters per tenant name with a bounded
// tenant-count cap; the fpd daemon keeps one process-wide and serves it
// under /v1/tenants.
type Accountant = obs.Accountant

// NewAccountant returns an Accountant tracking at most max distinct
// tenants (max ≤ 0 uses the default cap); names past the cap fold into
// the "(overflow)" tenant.
func NewAccountant(max int) *Accountant { return obs.NewAccountant(max) }

// Place is the unified placement engine; see PlaceOptions for the knobs.
// It returns ctx.Err() when canceled mid-placement. Its parallel inner
// loop executes on the process-wide scheduler shared by every placement
// in the process (see SetSchedulerWorkers).
func Place(ctx context.Context, ev Evaluator, k int, opts PlaceOptions) (Placement, error) {
	return core.Place(ctx, ev, k, opts)
}

// PlaceBatch places k filters on every evaluator with one gang submission
// to the process-wide scheduler: sub-placements from all graphs interleave
// their oracle-level work units on the shared workers, so a fleet of many
// c-graphs (per-venue or per-year subgraphs of one corpus, say) amortizes
// scheduling instead of serializing graph by graph. results[i] is
// bit-for-bit what a solo Place(ctx, evs[i], k, opts) returns — same
// filters, same OracleStats. Each evaluator must be distinct; randomized
// strategies seed a fresh rng per graph from opts.Seed (a shared
// opts.Rand is rejected).
func PlaceBatch(ctx context.Context, evs []Evaluator, k int, opts PlaceOptions) ([]Placement, error) {
	return core.PlaceBatch(ctx, evs, k, opts)
}

// SetSchedulerWorkers resizes the process-wide placement scheduler — the
// bounded work-stealing pool all Place/PlaceBatch parallel work runs on
// (the fpd daemon exposes it as -sched-workers). n ≤ 0 resets to
// GOMAXPROCS. Placements are bit-for-bit identical at every pool size;
// only throughput changes.
func SetSchedulerWorkers(n int) { sched.SetDefaultWorkers(n) }

// SchedulerWorkers returns the process-wide scheduler's current worker
// count.
func SchedulerWorkers() int { return sched.Default().Workers() }

// CloneableEvaluator is implemented by evaluators that duplicate cheaply
// for concurrent use (NewFloat, NewBig and NewMulti engines all qualify);
// Place's Parallelism option shards naive's and approx-celf's exact
// candidate evaluations across clones.
type CloneableEvaluator = flow.Cloner

// ParallelEvaluator is implemented by evaluators whose topological passes
// parallelize internally by level (NewFloat's and NewBig's engines
// qualify); greedy-all, celf and ml-celf shard their passes this way.
type ParallelEvaluator = flow.ParallelEvaluator

// OracleStats counts objective evaluations spent by a greedy variant.
type OracleStats = core.OracleStats

// RandK, RandI and RandW are the paper's randomized baselines.
func RandK(m *Model, k int, rng *rand.Rand) []int { return core.RandK(m, k, rng) }

// RandI places a filter at every node independently with probability k/n.
func RandI(m *Model, k int, rng *rand.Rand) []int { return core.RandI(m, k, rng) }

// RandW places filters with probability proportional to Σ_children 1/din.
func RandW(m *Model, k int, rng *rand.Rand) []int { return core.RandW(m, k, rng) }

// UnboundedOptimal returns Proposition 1's minimal filter set achieving the
// maximum reduction F(V): every non-sink node with in-degree > 1.
func UnboundedOptimal(g *Graph) []int { return core.UnboundedOptimal(g) }

// Exhaustive finds an optimal size-≤k filter set by enumeration (small
// instances only).
func Exhaustive(ev Evaluator, k int) ([]int, float64) { return core.Exhaustive(ev, k) }

// ErrNotCTree is returned by TreeDP on non-tree inputs.
var ErrNotCTree = core.ErrNotCTree

// TreeDP solves filter placement exactly on a communication tree
// (polynomial; paper §4.1).
func TreeDP(g *Graph, source, k int) ([]int, float64, error) { return core.TreeDP(g, source, k) }

// AcyclicStats reports what the Acyclic extraction did.
type AcyclicStats = acyclic.BuildStats

// Acyclic extracts a connected maximal acyclic subgraph rooted at source
// (paper §4.3).
func Acyclic(g *Graph, source int) (*Graph, AcyclicStats, error) { return acyclic.Build(g, source) }

// AcyclicBestRoot runs Acyclic from every node and keeps the largest DAG,
// as the paper does for the Quote dataset.
func AcyclicBestRoot(g *Graph) (*Graph, int, AcyclicStats, error) { return acyclic.BestRoot(g) }

// Dataset generators (see internal/gen for the structural targets each one
// matches).

// QuoteLike generates the G_Phrase stand-in (932 nodes, ≈2.7K edges).
func QuoteLike(seed int64) (*Graph, int) { return gen.QuoteLike(seed) }

// TwitterLike generates the Twitter stand-in (≈90K nodes at scale 1).
func TwitterLike(scale float64, seed int64) (*Graph, int) { return gen.TwitterLike(scale, seed) }

// CitationLike generates the APS-citation stand-in (≈10K nodes).
func CitationLike(seed int64) (*Graph, int) { return gen.CitationLike(seed) }

// Layered generates the paper's layered synthetic graphs (§5).
func Layered(levels, perLevel int, x, y float64, seed int64) (*Graph, int) {
	return gen.Layered(levels, perLevel, x, y, seed)
}

// RandomDAG generates a connected random single-source DAG.
func RandomDAG(n int, p float64, seed int64) (*Graph, int) { return gen.RandomDAG(n, p, seed) }

// RandomCTree generates a random communication tree.
func RandomCTree(n int, pSource float64, seed int64) (*Graph, int) {
	return gen.RandomCTree(n, pSource, seed)
}

// PowerLawDAG generates a preferential-attachment DAG.
func PowerLawDAG(n, edgesPerNode int, seed int64) (*Graph, int) {
	return gen.PowerLawDAG(n, edgesPerNode, seed)
}

// BottleneckChain generates the paper's Figure-10 motif.
func BottleneckChain(width, chainLen, depth int, seed int64) (*Graph, int) {
	return gen.BottleneckChain(width, chainLen, depth, seed)
}

// Figure1, Figure2 and Figure3 rebuild the paper's toy graphs with their
// exact copy counts.
func Figure1() (*Graph, int) { return gen.Figure1() }

// Figure2 rebuilds the Greedy_1 counterexample (Φ: 14 → 12).
func Figure2() (*Graph, int) { return gen.Figure2() }

// Figure3 rebuilds the Greedy_All suboptimality example (Φ(∅,V) = 26).
func Figure3() (*Graph, []int) { return gen.Figure3() }

// Dynamic graphs (internal/dyn): the paper's networks are streams, so the
// library supports evolving c-graphs with incremental placement
// maintenance instead of re-running everything per edge change.

// DynamicGraph is a mutable DAG overlay with atomic mutation batches and
// Pearce–Kelly incremental topological-order maintenance.
type DynamicGraph = dyn.Dynamic

// MutationBatch is one atomic group of edge insertions/deletions and node
// additions.
type MutationBatch = dyn.Batch

// MutationResult summarizes a committed batch, including the dirty seeds
// that bound downstream recomputation.
type MutationResult = dyn.ApplyResult

// ErrWouldCycle is the typed rejection for cycle-creating edge insertions:
// errors.Is(err, ErrWouldCycle) after a failed DynamicGraph.Apply.
var ErrWouldCycle = dyn.ErrCycle

// NewDynamic wraps a DAG in a mutable overlay. sources (empty = every
// in-degree-0 node) are pinned: edges into them are rejected, so the
// overlay always remains a valid propagation model.
func NewDynamic(g *Graph, sources []int) (*DynamicGraph, error) {
	return dyn.FromDigraph(g, sources)
}

// ParseMutations parses the "+ u v" / "- u v" / "n k" text form of a
// mutation batch (the fpd PATCH "patch" field).
func ParseMutations(text string) (MutationBatch, error) { return dyn.ParseBatch(text) }

// Maintainer refreshes a filter placement after mutation batches: warm
// incremental repair inside the dirty cone, with a full greedy-all
// fallback when the drift bound is exceeded.
type Maintainer = dyn.Maintainer

// MaintainOptions configures a Maintainer (budget K, drift bound, swap
// limit).
type MaintainOptions = dyn.Options

// MaintainReport describes one maintenance pass: strategy, objective
// delta, and which filters moved.
type MaintainReport = dyn.Report

// NewMaintainer builds a placement maintainer over a dynamic overlay;
// initial may carry an existing placement to warm-start from.
func NewMaintainer(d *DynamicGraph, opts MaintainOptions, initial []int) (*Maintainer, error) {
	return dyn.NewMaintainer(d, opts, initial)
}

// Mutation is one batch of a generated churn stream.
type Mutation = gen.Mutation

// TwitterChurn generates a stream of always-acyclic mutation batches over
// a DAG (churn is the per-batch edge fraction, e.g. 0.01), modelling the
// paper's streaming networks for benchmarks and load tests.
func TwitterChurn(g *Graph, batches int, churn float64, seed int64) []Mutation {
	return gen.TwitterChurn(g, batches, churn, seed)
}

// Extensions beyond the paper's core algorithms.

// PartialEvaluator is implemented by evaluators supporting lossy filters
// (paper footnote 1); NewFloat's engine is one.
type PartialEvaluator = flow.PartialEvaluator

// GreedyAllPartial places k lossy filters that each leak a ρ fraction of
// duplicates.
func GreedyAllPartial(ev PartialEvaluator, k int, leak float64) []int {
	return core.GreedyAllPartial(ev, k, leak)
}

// Item is one information stream in a multi-item model (paper §3, §6).
type Item = flow.Item

// MultiEngine evaluates the rate-weighted multi-item objective; it
// implements Evaluator, so every placement algorithm runs on it.
type MultiEngine = flow.MultiEngine

// NewMulti builds a multi-item evaluator; item sources may have in-edges.
func NewMulti(g *Graph, items []Item) (*MultiEngine, error) { return flow.NewMulti(g, items) }

// MCResult is a Monte-Carlo estimate of Φ(A, V) with a confidence
// interval.
type MCResult = flow.MCResult

// MonteCarlo estimates Φ(A, V) under true probabilistic semantics (a
// filter forwards the first copy it actually receives) by repeated
// event-level simulation; see experiment abl-mc for the gap to the
// analytic expected-value engine.
func MonteCarlo(m *Model, filters []bool, runs int, seed int64) (MCResult, error) {
	return flow.MonteCarlo(m, filters, runs, seed)
}

// MonteCarloP is MonteCarlo with an explicit worker bound. Results are
// bit-for-bit identical at every procs setting (runs are sharded into
// fixed-size blocks whose RNG streams derive from the seed alone).
func MonteCarloP(m *Model, filters []bool, runs int, seed int64, procs int) (MCResult, error) {
	return flow.MonteCarloP(m, filters, runs, seed, procs)
}

// SamplingEngine estimates Φ and per-node impacts by sampled topological
// passes — O(V + EdgeRate·E) per pass instead of O(V + E) — with a
// confidence interval on Φ. It implements Evaluator, and its estimates
// depend only on the seed, never on the worker count.
type SamplingEngine = flow.SamplingEngine

// SampleOptions configures NewSampling; the zero value gives the engine
// defaults.
type SampleOptions = flow.SampleOptions

// NewSampling builds a sampled estimator over the model.
func NewSampling(m *Model, opts SampleOptions) *SamplingEngine { return flow.NewSampling(m, opts) }

// CoarsenOptions configures Coarsen (and PlaceOptions.Coarsen for
// StrategyMLCELF): lossless-only contraction, the bounded target ratio,
// and the round cap.
type CoarsenOptions = flow.CoarsenOptions

// CoarsenStats reports what a contraction did — node/edge counts before
// and after, per-rule fire counts, and whether every rule that fired was
// Φ-exact (LosslessOnly).
type CoarsenStats = flow.CoarsenStats

// CoarsenMap is the reversible record of a contraction: which original
// nodes each supernode stands for (Fiber), where each original node went
// (Quotient), and how quotient-level filter picks project back
// (ProjectFilters).
type CoarsenMap = flow.CoarsenMap

// Coarsen contracts an unweighted model into a quotient model by chain
// folding, sink absorption and (unless opts.Lossless) modular-twin
// merging. Per-supernode multiplicity weights make the quotient's Φ
// equal (lossless rules) or a tight bound (twin merging) of the
// original's, and the contraction is deterministic for a given model and
// options. StrategyMLCELF runs this under the hood; call it directly to
// inspect or reuse a quotient.
func Coarsen(m *Model, opts CoarsenOptions) (*Model, *CoarsenMap, CoarsenStats, error) {
	return flow.Coarsen(m, opts)
}

// ChainDAG generates a chain-heavy DAG: a small preferential-attachment
// core with long single-in relay chains hanging off it — the regime
// where lossless coarsening contracts hardest.
func ChainDAG(n, chainLen int, seed int64) (*Graph, int) { return gen.ChainDAG(n, chainLen, seed) }

// DeepDAG generates a deep layered DAG with heavy-tailed fan-in: mostly
// single-in relays between sparse aggregation points, fed by a
// super-source.
func DeepDAG(n, levels int, seed int64) (*Graph, int) { return gen.DeepDAG(n, levels, seed) }

// Betweenness returns Brandes betweenness centrality for every node. The
// paper's §2 argues (and experiment abl-between confirms) that central
// nodes are generally poor filter locations.
func Betweenness(g *Graph) []float64 { return centrality.Betweenness(g) }

// BetweennessTopK returns the k most central nodes — the strawman baseline
// of experiment abl-between.
func BetweennessTopK(g *Graph, k int) []int { return centrality.TopK(g, k) }

// Experiment harness.

// ExperimentOptions configures RunExperiment.
type ExperimentOptions = experiments.Options

// ExperimentReport is a printable experiment result.
type ExperimentReport = experiments.Report

// ExperimentIDs lists the reproducible experiments (fig1–fig11, prop1,
// ablations).
func ExperimentIDs() []string { return experiments.IDs() }

// RunExperiment regenerates one figure of the paper's evaluation.
func RunExperiment(id string, opt ExperimentOptions) (*ExperimentReport, error) {
	return experiments.Run(id, opt)
}
