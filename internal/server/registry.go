package server

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"time"

	"repro/internal/dyn"
	"repro/internal/flow"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/obs"
)

// GraphSpec is the POST /v1/graphs request body. Exactly one of Edges or
// Generator must be set: Edges carries an inline edge list in the fpgen
// text format ("u v" per line, '#' comments, non-numeric tokens become
// labels); Generator names a row of the internal/gen dataset table, and
// the parameter fields are that table's parameters, as fpgen's flags are.
type GraphSpec struct {
	Name    string `json:"name,omitempty"`
	Edges   string `json:"edges,omitempty"`
	Sources []int  `json:"sources,omitempty"`

	Generator string  `json:"generator,omitempty"`
	Seed      int64   `json:"seed,omitempty"`
	Scale     float64 `json:"scale,omitempty"`
	X         float64 `json:"x,omitempty"`
	Y         float64 `json:"y,omitempty"`
	Levels    int     `json:"levels,omitempty"`
	PerLevel  int     `json:"perlevel,omitempty"`
	N         int     `json:"n,omitempty"`
	P         float64 `json:"p,omitempty"`
	EPN       int     `json:"epn,omitempty"`
	Width     int     `json:"width,omitempty"`
	ChainLen  int     `json:"chainlen,omitempty"`
	Depth     int     `json:"depth,omitempty"`
}

// Generators lists the generator names accepted by GraphSpec.Generator.
func Generators() []string { return gen.Names() }

// uploadLimits bounds an uploaded edge list. Node ids allocate O(max id)
// adjacency state in the graph builder, so a tiny body like "0 2000000000"
// would otherwise OOM the daemon despite MaxBodyBytes.
var uploadLimits = graph.Limits{MaxEdges: 2_000_000, MaxNodeID: 5_000_000}

// Build materializes the spec into a graph and its default sources. An
// upload is parsed within uploadLimits; a generator's parameters are
// defaulted and range-checked by the dataset table.
func (sp *GraphSpec) Build() (*graph.Digraph, []int, error) {
	if (sp.Edges != "") == (sp.Generator != "") {
		return nil, nil, fmt.Errorf("exactly one of \"edges\" and \"generator\" must be set")
	}
	if sp.Edges != "" {
		g, err := graph.ReadEdgeListWithin(strings.NewReader(sp.Edges), uploadLimits)
		if err != nil {
			return nil, nil, err
		}
		return g, sp.Sources, nil
	}
	g, sources, err := gen.Build(sp.Generator, gen.Params{
		Seed: sp.Seed, Scale: sp.Scale, X: sp.X, Y: sp.Y,
		Levels: sp.Levels, PerLevel: sp.PerLevel, N: sp.N, P: sp.P, EPN: sp.EPN,
		Width: sp.Width, ChainLen: sp.ChainLen, Depth: sp.Depth,
	})
	if err != nil {
		return nil, nil, err
	}
	if len(sp.Sources) > 0 {
		sources = sp.Sources
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
// paths use). After each PATCH, model is the overlay's Model of the new
// version, so readers, auto-maintain and the overlay share one plan and
// one invariant cache per version.
type graphEntry struct {
	info  GraphInfo
	model *flow.Model

	dynMu      sync.Mutex
	dynamic    *dyn.Dynamic
	maintainer *dyn.Maintainer
}

// countSinks returns the number of nodes with out-degree zero — the
// GraphInfo.Sinks figure of an upload — without materializing the sink
// list. Patch counts the same figure from the new plan's out-rows.
func countSinks(g *graph.Digraph) int {
	n := 0
	for v := 0; v < g.N(); v++ {
		if g.OutDegree(v) == 0 {
			n++
		}
	}
	return n
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
	// fleet is the ledger row graph and edge counters are recorded on.
	fleet *obs.TenantCounters
}

// NewRegistry creates a registry holding at most capacity graphs
// (minimum 1); fleet (optional) records its counters.
func NewRegistry(capacity int, fleet *obs.TenantCounters) *Registry {
	return &Registry{entries: newLRUMap[string, *graphEntry](capacity), fleet: fleet}
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
			Sinks:     countSinks(m.Graph()),
			CreatedAt: time.Now().UTC(),
		},
		model: m,
	}
	r.fleet.Add(obs.GraphsCreated, 1)
	r.fleet.Add(obs.GraphsEvicted, int64(r.entries.put(e.info.ID, e)))
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
// dynamic overlay on first use and swapping in the new version's
// immutable model for readers. It returns the updated info and the
// overlay's apply result; a rejected batch (cycle, bad edge) changes
// nothing. The entry's dynMu serializes mutations and maintenance per
// graph while other graphs stay fully concurrent.
//
// The installed model is the overlay's own (Dynamic.Model): its plan is
// rebuilt from the overlay's rows, never from a snapshot, and is not
// widened into a digraph, so subsequent placements and the auto-maintain
// job reuse it directly. When the graph has a maintainer, its Apply has
// already read the version's Φ(∅,V) and F(V) through that model, so
// evaluate's first engine runs no invariant pass.
func (r *Registry) Patch(id string, b dyn.Batch) (GraphInfo, dyn.ApplyResult, error) {
	e, ok := r.entry(id)
	if !ok {
		return GraphInfo{}, dyn.ApplyResult{}, ErrUnknownGraph
	}
	e.dynMu.Lock()
	defer e.dynMu.Unlock()
	if err := r.upgradeLocked(e); err != nil {
		return GraphInfo{}, dyn.ApplyResult{}, err
	}
	var (
		res dyn.ApplyResult
		err error
	)
	// Route through the maintainer when one exists so its incremental flow
	// state stays warm; otherwise mutate the overlay directly.
	if e.maintainer != nil {
		res, err = e.maintainer.Apply(b)
	} else {
		res, err = e.dynamic.Apply(b)
	}
	if err != nil {
		return GraphInfo{}, res, err
	}
	model := e.dynamic.Model()

	r.mu.Lock()
	// The entry may have been evicted between entry() and here; the
	// orphan's mutation is then moot and the client must see the graph as
	// gone rather than a confirmed patch on a 404-ing id.
	if cur, ok := r.entries.peek(id); !ok || cur != e {
		r.mu.Unlock()
		return GraphInfo{}, res, ErrUnknownGraph
	}
	e.model = model
	e.info.Nodes = e.dynamic.N()
	e.info.Edges = e.dynamic.M()
	e.info.Sinks = model.Plan().SinkCount()
	e.info.Patches++
	info := e.info
	r.mu.Unlock()

	r.fleet.Add(obs.GraphsPatched, 1)
	r.fleet.Add(obs.EdgesAdded, int64(res.EdgesAdded))
	r.fleet.Add(obs.EdgesRemoved, int64(res.EdgesRemoved))
	return info, res, nil
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
		mt, err := dyn.NewMaintainer(e.dynamic, dyn.Options{K: k, Parallelism: parallelism}, nil)
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
// model, which becomes the overlay's generation 0, so upgrading builds no
// plan; the caller holds e.dynMu.
func (r *Registry) upgradeLocked(e *graphEntry) error {
	if e.dynamic != nil {
		return nil
	}
	r.mu.Lock()
	m := e.model
	r.mu.Unlock()
	d, err := dyn.FromModel(m)
	if err != nil {
		return err
	}
	e.dynamic = d
	return nil
}

// Delete removes a graph; it reports whether the id existed.
func (r *Registry) Delete(id string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.entries.delete(id) {
		return false
	}
	r.fleet.Add(obs.GraphsDeleted, 1)
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
