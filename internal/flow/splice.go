package flow

// SpliceOptions configures a Splicer. It has no settings: every plan
// repair is a rebuild from the view.
type SpliceOptions struct{}

// SpliceStats describes what one Splicer.Apply call did.
type SpliceStats struct {
	// Spliced is always false: the plan is rebuilt from the view on every
	// repair, and Reason says what triggered it ("batch").
	Spliced bool   `json:"spliced"`
	Reason  string `json:"reason,omitempty"`
}

// Splicer keeps an execution Plan in step with a mutable graph view, so
// dynamic workloads keep running on the flat plan kernels. After each
// committed mutation batch, Apply rebuilds the plan from the view in
// O(V+E). The paper's information-flow networks are shallow and wide, so
// even a 1% batch moves nodes across most of the level structure, and an
// incremental re-levelling would touch as much of the plan as a rebuild.
//
// Each result is a FRESH Plan — in-flight evaluations over the old plan
// stay valid — laid out by layoutPlan from the view's rows, so it is
// array-for-array identical to NewModel's plan over a snapshot of the
// mutated graph (splice_test pins this). Successive plans
// share one scratch arena, so the pooled buffers stay warm across
// mutations and grow in place when AddNodes extends the graph.
//
// A Splicer supports only deterministic (unweighted) plans — the only
// kind a dynamic overlay serves. It is not safe for concurrent use;
// dyn.Dynamic owns one and builds each graph version's Model with it.
type Splicer struct {
	view DynDigraph
	plan *Plan
}

// NewSplicer builds a splicer over the mutable view. When adopt is
// non-nil, unweighted, not coarse and sized to the view's current node
// count, it becomes the starting plan (an uploaded model's already built
// plan is handed over this way, skipping a redundant build); otherwise
// the starting plan is built from the view. opts is ignored.
func NewSplicer(view DynDigraph, adopt *Plan, _ SpliceOptions) *Splicer {
	s := &Splicer{view: view}
	in, _, _ := view.Rows()
	if adopt != nil && !adopt.weighted && adopt.mulW == nil && adopt.n == len(in) {
		s.plan = adopt
		return s
	}
	s.plan = s.rebuildPlan()
	return s
}

// Plan returns the current plan. It is immutable; Apply swaps in a new
// one rather than mutating it.
func (s *Splicer) Plan() *Plan { return s.plan }

// Apply rebuilds the plan after one or more mutations of the view; the
// view must already reflect them. The dirty cones and node growth of the
// batch are ignored: the rebuild reads the view directly. It returns the
// new plan — a fresh immutable Plan sharing the old plan's scratch arena
// — and what the repair did.
func (s *Splicer) Apply(_, _ []int, _ int) (*Plan, SpliceStats) {
	s.plan = s.rebuildPlan()
	return s.plan, SpliceStats{Reason: "batch"}
}

// rebuildPlan builds a canonical plan from the view's current state —
// array-for-array the plan NewModel lays out over the equivalent
// immutable snapshot, since both go through layoutPlan — reusing the
// existing plan's scratch arena. It fetches the view's rows once and
// hands them to layoutPlan as plain slices, so each node costs no
// interface call; the view's own order is not read.
func (s *Splicer) rebuildPlan() *Plan {
	in, out, _ := s.view.Rows()
	p, err := layoutPlan(in, out, nil, nil)
	if err != nil {
		panic("flow: Splicer view is cyclic") // the view keeps itself a DAG
	}
	if s.plan != nil {
		p.arena = s.plan.arena
	}
	return p
}
