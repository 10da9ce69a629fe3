package server

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/dyn"
	"repro/internal/flow"
	"repro/internal/gen"
	"repro/internal/graph"
)

// GraphSpec is the POST /v1/graphs request body. Exactly one of Edges or
// Generator must be set: Edges carries an inline edge list in the fpgen
// text format ("u v" per line, '#' comments, non-numeric tokens become
// labels); Generator names one of the internal/gen dataset generators with
// the same parameters the fpgen CLI exposes.
type GraphSpec struct {
	Name    string `json:"name,omitempty"`
	Edges   string `json:"edges,omitempty"`
	Sources []int  `json:"sources,omitempty"`

	Generator string  `json:"generator,omitempty"`
	Seed      int64   `json:"seed,omitempty"`
	Scale     float64 `json:"scale,omitempty"`    // twitter
	X         float64 `json:"x,omitempty"`        // layered
	Y         float64 `json:"y,omitempty"`        // layered
	Levels    int     `json:"levels,omitempty"`   // layered
	PerLevel  int     `json:"perlevel,omitempty"` // layered
	N         int     `json:"n,omitempty"`        // dag | powerlaw | tree
	P         float64 `json:"p,omitempty"`        // dag | tree
	EPN       int     `json:"epn,omitempty"`      // powerlaw
	Width     int     `json:"width,omitempty"`    // bottleneck
	ChainLen  int     `json:"chainlen,omitempty"` // bottleneck
	Depth     int     `json:"depth,omitempty"`    // bottleneck
}

// Generators lists the generator names accepted by GraphSpec.Generator.
func Generators() []string {
	return []string{"quote", "twitter", "citation", "layered", "dag",
		"powerlaw", "tree", "bottleneck", "fig1", "fig2", "fig3"}
}

// Upload bounds: node ids allocate O(maxID) adjacency state in the graph
// builder, so a tiny body like "0 2000000000" would otherwise OOM the
// daemon despite MaxBodyBytes.
const (
	maxUploadNodeID = 5_000_000
	maxUploadEdges  = 2_000_000
)

// checkEdgeListBounds pre-scans an uploaded edge list, rejecting numeric
// node ids beyond maxUploadNodeID (when the file is in numeric-id mode,
// mirroring graph.ReadEdgeList's rules) and more than maxUploadEdges
// lines. Label-mode files are safe by construction: distinct labels are
// bounded by the edge count.
func checkEdgeListBounds(text string) error {
	edges, maxID, numeric := 0, 0, true
	for line := range strings.Lines(text) {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		edges++
		if edges > maxUploadEdges {
			return fmt.Errorf("edge list exceeds %d edges", maxUploadEdges)
		}
		for _, tok := range strings.Fields(line) {
			n, err := strconv.Atoi(tok)
			if err != nil || n < 0 {
				numeric = false
				continue
			}
			maxID = max(maxID, n)
		}
	}
	if numeric && maxID > maxUploadNodeID {
		return fmt.Errorf("node id %d exceeds the upload limit of %d", maxID, maxUploadNodeID)
	}
	return nil
}

// Build materializes the spec into a graph and its default sources. Every
// generator parameter is range-checked first: the quadratic generators
// (dag, layered) are capped at 20K nodes and the linear ones at 2M, so a
// single request can't wedge or OOM the daemon; edge-list uploads go
// through checkEdgeListBounds.
func (sp *GraphSpec) Build() (*graph.Digraph, []int, error) {
	if (sp.Edges != "") == (sp.Generator != "") {
		return nil, nil, fmt.Errorf("exactly one of \"edges\" and \"generator\" must be set")
	}
	if sp.Edges != "" {
		if err := checkEdgeListBounds(sp.Edges); err != nil {
			return nil, nil, err
		}
		g, err := graph.ReadEdgeList(strings.NewReader(sp.Edges))
		if err != nil {
			return nil, nil, err
		}
		return g, sp.Sources, nil
	}

	seed := sp.Seed
	if seed == 0 {
		seed = 1
	}
	or := func(v, def int) int {
		if v == 0 {
			return def
		}
		return v
	}
	orF := func(v, def float64) float64 {
		if v == 0 {
			return def
		}
		return v
	}
	// The check helpers collect the first parameter-range violation;
	// generators panic or allocate unboundedly on garbage, so the API
	// rejects it here with a 400 instead.
	var paramErr error
	checkInt := func(name string, v, lo, hi int) int {
		if paramErr == nil && (v < lo || v > hi) {
			paramErr = fmt.Errorf("%s = %d outside [%d, %d]", name, v, lo, hi)
		}
		return v
	}
	checkFloat := func(name string, v, lo, hi float64) float64 {
		if paramErr == nil && (v < lo || v > hi) {
			paramErr = fmt.Errorf("%s = %v outside [%v, %v]", name, v, lo, hi)
		}
		return v
	}
	var (
		g   *graph.Digraph
		src int
	)
	switch sp.Generator {
	case "quote":
		g, src = gen.QuoteLike(seed)
	case "twitter":
		scale := orF(sp.Scale, 1)
		if scale <= 0 || scale > 1 {
			return nil, nil, fmt.Errorf("twitter scale %v outside (0,1]", scale)
		}
		g, src = gen.TwitterLike(scale, seed)
	case "citation":
		g, src = gen.CitationLike(seed)
	case "layered":
		levels := checkInt("levels", or(sp.Levels, 10), 1, 20000)
		perLevel := checkInt("perlevel", or(sp.PerLevel, 100), 1, 20000)
		if paramErr == nil && levels*perLevel > 20000 {
			paramErr = fmt.Errorf("levels*perlevel = %d exceeds 20000 (the generator is quadratic)", levels*perLevel)
		}
		x := checkFloat("x", orF(sp.X, 1), 0, 1e6)
		y := checkFloat("y", orF(sp.Y, 4), 1, 1e6)
		if paramErr != nil {
			return nil, nil, paramErr
		}
		g, src = gen.Layered(levels, perLevel, x, y, seed)
	case "dag":
		n := checkInt("n", or(sp.N, 1000), 1, 20000)
		p := checkFloat("p", orF(sp.P, 0.01), 0, 1)
		if paramErr != nil {
			return nil, nil, paramErr
		}
		g, src = gen.RandomDAG(n, p, seed)
	case "powerlaw":
		n := checkInt("n", or(sp.N, 1000), 1, 2000000)
		epn := checkInt("epn", or(sp.EPN, 3), 1, 100)
		if paramErr == nil && n*epn > 4000000 {
			paramErr = fmt.Errorf("n*epn = %d exceeds 4000000 edges", n*epn)
		}
		if paramErr != nil {
			return nil, nil, paramErr
		}
		g, src = gen.PowerLawDAG(n, epn, seed)
	case "tree":
		n := checkInt("n", or(sp.N, 1000), 1, 2000000)
		p := checkFloat("p", orF(sp.P, 0.01), 0, 1)
		if paramErr != nil {
			return nil, nil, paramErr
		}
		g, src = gen.RandomCTree(n, p, seed)
	case "bottleneck":
		width := checkInt("width", or(sp.Width, 10), 1, 1000000)
		chainLen := checkInt("chainlen", or(sp.ChainLen, 5), 1, 1000000)
		depth := checkInt("depth", or(sp.Depth, 3), 1, 20)
		if paramErr != nil {
			return nil, nil, paramErr
		}
		g, src = gen.BottleneckChain(width, chainLen, depth, seed)
	case "fig1":
		g, src = gen.Figure1()
	case "fig2":
		g, src = gen.Figure2()
	case "fig3":
		gg, srcs := gen.Figure3()
		if len(sp.Sources) > 0 {
			srcs = sp.Sources
		}
		return gg, srcs, nil
	default:
		return nil, nil, fmt.Errorf("unknown generator %q (have %s)",
			sp.Generator, strings.Join(Generators(), ", "))
	}
	sources := sp.Sources
	if len(sources) == 0 {
		sources = []int{src}
	}
	return g, sources, nil
}

// GraphInfo is the JSON description of a registered graph.
type GraphInfo struct {
	ID      string `json:"id"`
	Name    string `json:"name,omitempty"`
	Nodes   int    `json:"nodes"`
	Edges   int    `json:"edges"`
	Sources []int  `json:"sources"`
	Sinks   int    `json:"sinks"`
	Hits    int64  `json:"hits"`
	// Patches counts committed PATCH batches; a non-zero value marks the
	// graph as dynamic.
	Patches   int64     `json:"patches,omitempty"`
	CreatedAt time.Time `json:"created_at"`
}

// graphEntry is one registry slot. The model (and the digraph inside it)
// is immutable and shared by every request that reads the entry; the
// bookkeeping fields mutate under the registry lock. The dynamic overlay
// and its maintainer — created lazily on the first PATCH — mutate under
// dynMu, which is never acquired while holding the registry lock (the
// reverse order, dynMu → registry lock, is the one mutation and maintain
// paths use).
type graphEntry struct {
	info  GraphInfo
	model *flow.Model

	dynMu      sync.Mutex
	dynamic    *dyn.Dynamic
	maintainer *dyn.Maintainer
	// splicer rebuilds the entry's execution plan per PATCH batch
	// (guarded by dynMu, like the overlay it watches). It is shared with
	// the maintainer, so auto-maintain and the placement path run on the
	// same plan instead of each rebuilding their own.
	splicer *flow.Splicer
}

// ErrUnknownGraph is returned by mutation paths when the graph id is not
// registered (or already evicted).
var ErrUnknownGraph = errors.New("server: unknown graph")

// Registry is the concurrency-safe LRU-bounded graph store. Get bumps
// recency; Add evicts the least-recently-used graph beyond capacity.
type Registry struct {
	mu      sync.Mutex
	entries *lruMap[string, *graphEntry]
	nextID  int
	metrics *Metrics
}

// NewRegistry creates a registry holding at most capacity graphs
// (minimum 1).
func NewRegistry(capacity int, m *Metrics) *Registry {
	return &Registry{entries: newLRUMap[string, *graphEntry](capacity), metrics: m}
}

// Add registers a validated model under a fresh id and returns its info.
// It may evict the least-recently-used graph.
func (r *Registry) Add(name string, m *flow.Model) GraphInfo {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.nextID++
	e := &graphEntry{
		info: GraphInfo{
			ID:        fmt.Sprintf("g%d", r.nextID),
			Name:      name,
			Nodes:     m.Graph().N(),
			Edges:     m.Graph().M(),
			Sources:   m.Sources(),
			Sinks:     len(m.Graph().Sinks()),
			CreatedAt: time.Now().UTC(),
		},
		model: m,
	}
	r.metrics.GraphsCreated.Add(1)
	r.metrics.GraphsEvicted.Add(int64(r.entries.put(e.info.ID, e)))
	return e.info
}

// Get returns the model and current info for id, bumping its recency and
// hit count. ok is false when the id is unknown (or already evicted).
func (r *Registry) Get(id string) (*flow.Model, GraphInfo, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	e, ok := r.entries.get(id)
	if !ok {
		return nil, GraphInfo{}, false
	}
	e.info.Hits++
	return e.model, e.info, true
}

// entry returns the registry slot for id, bumping recency (an actively
// mutated or maintained graph is in use and must not be the LRU eviction
// victim) but not the client-visible hit count.
func (r *Registry) entry(id string) (*graphEntry, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.entries.get(id)
}

// Patch applies a mutation batch to graph id, upgrading the entry to a
// dynamic overlay on first use and swapping in a refreshed immutable model
// for readers. It returns the updated info, the overlay's apply result and
// what the plan repair did; a rejected batch (cycle, bad edge) changes
// nothing. The entry's dynMu serializes mutations and maintenance per
// graph while other graphs stay fully concurrent.
//
// The refreshed model is NOT rebuilt from a snapshot: the entry's splicer
// rebuilds the execution plan from the overlay and the model is stood up
// over that plan in O(n+m), so subsequent placements (and the
// auto-maintain job) reuse it directly.
func (r *Registry) Patch(id string, b dyn.Batch) (GraphInfo, dyn.ApplyResult, flow.SpliceStats, error) {
	e, ok := r.entry(id)
	if !ok {
		return GraphInfo{}, dyn.ApplyResult{}, flow.SpliceStats{}, ErrUnknownGraph
	}
	e.dynMu.Lock()
	defer e.dynMu.Unlock()
	if err := r.upgradeLocked(e); err != nil {
		return GraphInfo{}, dyn.ApplyResult{}, flow.SpliceStats{}, err
	}
	var (
		res dyn.ApplyResult
		err error
	)
	// Route through the maintainer when one exists so its incremental flow
	// state stays warm; otherwise mutate the overlay directly. Either way
	// the shared splicer ends up holding the rebuilt plan.
	if e.maintainer != nil {
		res, err = e.maintainer.Apply(b)
	} else {
		res, err = e.dynamic.Apply(b)
		if err == nil {
			e.splicer.Apply(res.DirtyFwd, res.DirtyBwd, res.NodesAdded)
		}
	}
	if err != nil {
		return GraphInfo{}, res, flow.SpliceStats{}, err
	}
	st := e.splicer.Last()
	r.metrics.PlanRebuilds.Add(1)
	// The overlay pins the sources, so a model over the rebuilt plan
	// cannot fail validation; the snapshot build is a belt-and-suspenders
	// fallback only.
	model, err := flow.NewModelFromPlan(e.splicer.Plan(), e.dynamic.Sources())
	if err != nil {
		model, err = flow.NewModel(e.dynamic.Snapshot(), e.dynamic.Sources())
		if err != nil {
			return GraphInfo{}, res, st, err
		}
	}

	r.mu.Lock()
	// The entry may have been evicted between entry() and here; the
	// orphan's mutation is then moot and the client must see the graph as
	// gone rather than a confirmed patch on a 404-ing id.
	if cur, ok := r.entries.peek(id); !ok || cur != e {
		r.mu.Unlock()
		return GraphInfo{}, res, st, ErrUnknownGraph
	}
	e.model = model
	e.info.Nodes = e.dynamic.N()
	e.info.Edges = e.dynamic.M()
	e.info.Sinks = len(model.Graph().Sinks())
	e.info.Patches++
	info := e.info
	r.mu.Unlock()

	r.metrics.GraphsPatched.Add(1)
	r.metrics.EdgesAdded.Add(int64(res.EdgesAdded))
	r.metrics.EdgesRemoved.Add(int64(res.EdgesRemoved))
	return info, res, st, nil
}

// Maintainer returns graph id's placement maintainer with budget k,
// creating or re-budgeting it as needed, plus the function to release the
// per-entry lock the caller now holds. The lock spans the whole maintain
// run so a concurrent PATCH cannot mutate the overlay mid-placement.
// parallelism bounds the Greedy_All workers of recompute fallbacks (it is
// fixed at maintainer creation; later calls reuse the existing one).
func (r *Registry) Maintainer(id string, k, parallelism int) (*dyn.Maintainer, func(), error) {
	e, ok := r.entry(id)
	if !ok {
		return nil, nil, ErrUnknownGraph
	}
	e.dynMu.Lock()
	if err := r.upgradeLocked(e); err != nil {
		e.dynMu.Unlock()
		return nil, nil, err
	}
	if e.maintainer == nil {
		mt, err := dyn.NewMaintainer(e.dynamic, dyn.Options{K: k, Parallelism: parallelism, Splicer: e.splicer}, nil)
		if err != nil {
			e.dynMu.Unlock()
			return nil, nil, err
		}
		e.maintainer = mt
	} else if err := e.maintainer.SetK(k); err != nil {
		e.dynMu.Unlock()
		return nil, nil, err
	}
	return e.maintainer, e.dynMu.Unlock, nil
}

// upgradeLocked creates the dynamic overlay from the current immutable
// model; the caller holds e.dynMu.
func (r *Registry) upgradeLocked(e *graphEntry) error {
	if e.dynamic != nil {
		return nil
	}
	r.mu.Lock()
	m := e.model
	r.mu.Unlock()
	d, err := dyn.FromDigraph(m.Graph(), m.Sources())
	if err != nil {
		return err
	}
	e.dynamic = d
	// Adopt the model's already-built plan so upgrading costs no build.
	e.splicer = flow.NewSplicer(d, m.Plan(), flow.SpliceOptions{})
	return nil
}

// Delete removes a graph; it reports whether the id existed.
func (r *Registry) Delete(id string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.entries.delete(id) {
		return false
	}
	r.metrics.GraphsDeleted.Add(1)
	return true
}

// List returns every registered graph, most recently used first.
func (r *Registry) List() []GraphInfo {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]GraphInfo, 0, r.entries.len())
	r.entries.each(func(e *graphEntry) { out = append(out, e.info) })
	return out
}

// Len returns the number of registered graphs.
func (r *Registry) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.entries.len()
}
