package flow

import "slices"

// SpliceOptions configures a Splicer. It has no settings: every plan
// repair is a rebuild from the view.
type SpliceOptions struct{}

// SpliceStats describes what one Splicer.Apply or Rebuild call did.
type SpliceStats struct {
	// Spliced is always false: the plan is rebuilt from the view on every
	// repair, and Reason says what triggered it ("batch" for Apply,
	// "forced" for Rebuild).
	Spliced bool   `json:"spliced"`
	Reason  string `json:"reason,omitempty"`
	// NodesAdded is the batch's node growth.
	NodesAdded int `json:"nodes_added,omitempty"`
	// DepthVisits, Moved, Window and RowsRebuilt are whole-graph figures:
	// a rebuild re-derives every node's depth, position and CSR rows.
	DepthVisits int `json:"depth_visits"`
	Moved       int `json:"moved"`
	Window      int `json:"window"`
	RowsRebuilt int `json:"rows_rebuilt"`
}

// Work returns the node-visit cost of the repair — the quantity tenant
// accounting charges for plan maintenance.
func (st SpliceStats) Work() int64 {
	return int64(st.DepthVisits) + int64(st.Window) + int64(st.RowsRebuilt)
}

// Splicer keeps an execution Plan in step with a mutable graph view, so
// dynamic workloads keep running on the flat plan kernels. After each
// committed mutation batch, Apply rebuilds the plan from the view in
// O(V+E). The paper's information-flow networks are shallow and wide, so
// even a 1% batch moves nodes across most of the level structure, and an
// incremental re-levelling would touch as much of the plan as a rebuild.
//
// Each result is a FRESH Plan — in-flight evaluations over the old plan
// stay valid — that is array-for-array identical to buildPlan run from
// scratch on the mutated graph (splice_test pins this). Successive plans
// share one scratch arena, so the pooled buffers stay warm across
// mutations and grow in place when AddNodes extends the graph.
//
// A Splicer supports only deterministic (unweighted) plans — the only
// kind a dynamic overlay serves. It is not safe for concurrent use;
// callers serialize Apply with plan consumers they hand the result to
// (the server does this under the per-graph mutation lock).
type Splicer struct {
	view DynDigraph
	plan *Plan

	// Per-call scratch for rebuildPlan.
	depth  []int32
	ordBuf []int
	rowBuf []int32

	rebuilds int64
	last     SpliceStats
}

// NewSplicer builds a splicer over the mutable view. When adopt is
// non-nil, unweighted and sized to the view's current node count, it
// becomes the starting plan (the registry hands over the model's already
// built plan this way, skipping a redundant build); otherwise the
// starting plan is built from the view. opts is ignored.
func NewSplicer(view DynDigraph, adopt *Plan, _ SpliceOptions) *Splicer {
	s := &Splicer{view: view}
	if adopt != nil && !adopt.weighted && adopt.mulW == nil && adopt.n == view.N() {
		s.plan = adopt
		return s
	}
	s.plan = s.rebuildPlan()
	return s
}

// Plan returns the current plan. It is immutable; Apply swaps in a new
// one rather than mutating it.
func (s *Splicer) Plan() *Plan { return s.plan }

// Counters returns the cumulative number of incremental splices (always
// 0) and full rebuilds performed.
func (s *Splicer) Counters() (splices, rebuilds int64) {
	return 0, s.rebuilds
}

// Last returns the stats of the most recent Apply or Rebuild.
func (s *Splicer) Last() SpliceStats { return s.last }

// Rebuild forces a plan build against the view's current state — the
// resync path when the view mutated without Apply being told
// (dyn.Maintainer uses it for missed batches).
func (s *Splicer) Rebuild() *Plan {
	return s.fullRebuild("forced")
}

// Apply repairs the plan after a committed mutation batch; the view must
// already reflect the batch. The dirty cones and nodesAdded describe the
// batch (dyn.ApplyResult supplies them); the rebuild reads the view
// directly, so only nodesAdded is recorded. It returns the new plan — a
// fresh immutable Plan sharing the old plan's scratch arena — plus what
// the repair did.
func (s *Splicer) Apply(_, _ []int, nodesAdded int) (*Plan, SpliceStats) {
	p := s.fullRebuild("batch")
	s.last.NodesAdded = nodesAdded
	return p, s.last
}

// fullRebuild rebuilds the plan from the view and records the stats and
// counters of the repair.
func (s *Splicer) fullRebuild(reason string) *Plan {
	p := s.rebuildPlan()
	n := p.n
	s.plan = p
	s.rebuilds++
	s.last = SpliceStats{
		Reason:      reason,
		DepthVisits: n,
		Moved:       n,
		Window:      n,
		RowsRebuilt: n,
	}
	return p
}

// rebuildPlan builds a canonical plan from the view's current state —
// the same layout buildPlan produces for a Model over the equivalent
// immutable snapshot — reusing the existing plan's scratch arena.
func (s *Splicer) rebuildPlan() *Plan {
	n := s.view.N()
	p := &Plan{n: n}
	s.ordBuf = slices.Grow(s.ordBuf[:0], n)[:n]
	m := 0
	for v := 0; v < n; v++ {
		s.ordBuf[s.view.OrdOf(v)] = v
		m += len(s.view.In(v))
	}
	s.depth = slices.Grow(s.depth[:0], n)[:n]
	p.layoutLevels(s.ordBuf, s.view.In, s.depth)

	// The view's adjacency order is arbitrary (the overlay swap-deletes),
	// so every row is sorted to restore the canonical ascending-id order.
	fill := func(view func(int) []int) (off, adj []int32) {
		off = make([]int32, n+1)
		adj = make([]int32, 0, m)
		for i := 0; i < n; i++ {
			off[i] = int32(len(adj))
			row := s.rowBuf[:0]
			for _, q := range view(int(p.perm[i])) {
				row = append(row, int32(q))
			}
			slices.Sort(row)
			s.rowBuf = row
			for _, q := range row {
				adj = append(adj, p.pos[q])
			}
		}
		off[n] = int32(len(adj))
		return off, adj
	}
	p.inOff, p.inAdj = fill(s.view.In)
	p.outOff, p.outAdj = fill(s.view.Out)

	p.layoutChunks()
	if s.plan != nil {
		p.arena = s.plan.arena
	} else {
		p.arena = newPlanArena()
	}
	return p
}
