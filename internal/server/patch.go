package server

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"time"

	"repro/internal/dyn"
	"repro/internal/flow"
	"repro/internal/obs"
)

// PatchSpec is the PATCH /v1/graphs/{id}/edges request body. Mutations may
// be given structurally (Add/Remove/AddNodes) or as a text patch in the
// dyn.ParseBatch format; both forms merge. Setting Maintain enqueues an
// auto-maintain job refreshing a k-filter placement right after the batch
// commits.
type PatchSpec struct {
	Add      [][2]int `json:"add,omitempty"`
	Remove   [][2]int `json:"remove,omitempty"`
	AddNodes int      `json:"add_nodes,omitempty"`
	// Patch is the text form: "+ u v", "- u v", "n k", "#" comments.
	Patch string `json:"patch,omitempty"`
	// Maintain requests an auto-maintain job; K is its filter budget.
	Maintain bool `json:"maintain,omitempty"`
	K        int  `json:"k,omitempty"`
}

// maxPatchAddNodes bounds node growth per batch: edge lists cost body
// bytes, but a tiny "add_nodes" number would otherwise allocate adjacency
// state for billions of nodes (the same OOM vector checkEdgeListBounds
// closes for uploads).
const maxPatchAddNodes = 1_000_000

// batch merges the structural and text mutation forms.
func (sp *PatchSpec) batch() (dyn.Batch, error) {
	b := dyn.Batch{AddNodes: sp.AddNodes, Add: sp.Add, Remove: sp.Remove}
	if sp.AddNodes < 0 {
		return b, fmt.Errorf("add_nodes = %d is negative", sp.AddNodes)
	}
	if sp.Patch != "" {
		parsed, err := dyn.ParseBatch(sp.Patch)
		if err != nil {
			return b, err
		}
		b.AddNodes += parsed.AddNodes
		b.Add = append(b.Add, parsed.Add...)
		b.Remove = append(b.Remove, parsed.Remove...)
	}
	if b.AddNodes > maxPatchAddNodes {
		return b, fmt.Errorf("add_nodes = %d exceeds the per-batch limit of %d", b.AddNodes, maxPatchAddNodes)
	}
	return b, nil
}

// PatchResult is the PATCH response: the refreshed graph info, what the
// batch did, how many cached placements were invalidated, and — when
// auto-maintain was requested — the enqueued job (or why it wasn't).
type PatchResult struct {
	Graph        GraphInfo `json:"graph"`
	NodesAdded   int       `json:"nodes_added"`
	EdgesAdded   int       `json:"edges_added"`
	EdgesRemoved int       `json:"edges_removed"`
	Reordered    int       `json:"reordered"`
	Invalidated  int       `json:"cache_invalidated"`
	// PlanSpliced is always false: the execution plan is rebuilt from the
	// overlay on every PATCH. PlanRepair carries the rebuild's cost.
	PlanSpliced bool            `json:"plan_spliced"`
	PlanRepair  *PlanRepairInfo `json:"plan_repair,omitempty"`
	Job         *JobInfo        `json:"job,omitempty"`
	JobError    string          `json:"job_error,omitempty"`
}

// PlanRepairInfo breaks down what one PATCH's execution-plan repair did.
type PlanRepairInfo struct {
	Spliced bool `json:"spliced"`
	// Reason names what triggered the rebuild ("batch" for a PATCH).
	Reason      string  `json:"reason,omitempty"`
	DepthVisits int     `json:"depth_visits"`
	Moved       int     `json:"moved"`
	Window      int     `json:"window"`
	RowsRebuilt int     `json:"rows_rebuilt"`
	DurationMS  float64 `json:"duration_ms"`
}

func planRepairInfo(st flow.SpliceStats, d time.Duration) *PlanRepairInfo {
	return &PlanRepairInfo{
		Spliced:     st.Spliced,
		Reason:      st.Reason,
		DepthVisits: st.DepthVisits,
		Moved:       st.Moved,
		Window:      st.Window,
		RowsRebuilt: st.RowsRebuilt,
		DurationMS:  float64(d) / float64(time.Millisecond),
	}
}

// MaintainInfo augments a PlaceResult produced by an auto-maintain job.
type MaintainInfo struct {
	Strategy string  `json:"strategy"`
	FBefore  float64 `json:"f_before"`
	Delta    float64 `json:"delta"`
	Added    []int   `json:"added,omitempty"`
	Removed  []int   `json:"removed,omitempty"`
	Swaps    int     `json:"swaps"`
}

// handlePatchEdges is PATCH /v1/graphs/{id}/edges: apply one atomic
// mutation batch, drop every cached placement of the graph, and optionally
// enqueue an auto-maintain job. Cycle-creating batches return 409 with
// nothing changed.
func (s *Server) handlePatchEdges(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	var spec PatchSpec
	if !s.decodeBody(w, r, &spec) {
		return
	}
	b, err := spec.batch()
	if err != nil {
		s.writeError(w, r, http.StatusBadRequest, "patch spec: %v", err)
		return
	}
	if b.Empty() {
		s.writeError(w, r, http.StatusBadRequest, "patch spec: empty batch")
		return
	}
	if spec.Maintain && spec.K < 1 {
		s.writeError(w, r, http.StatusBadRequest, "maintain wants k ≥ 1, got %d", spec.K)
		return
	}

	patchStart := time.Now()
	info, res, st, err := s.registry.Patch(id, b)
	patchDur := time.Since(patchStart)
	switch {
	case errors.Is(err, ErrUnknownGraph):
		s.writeError(w, r, http.StatusNotFound, "unknown graph %q", id)
		return
	case errors.Is(err, dyn.ErrCycle):
		s.writeError(w, r, http.StatusConflict, "rejected: %v", err)
		return
	case err != nil:
		s.writeError(w, r, http.StatusUnprocessableEntity, "rejected: %v", err)
		return
	}
	// Plan repair ran synchronously on the requester's dime: charge its
	// abstract cost to the tenant alongside the usual oracle accounting.
	s.tenantCounters(r).AddPlanRepair(st.Work())

	out := &PatchResult{
		Graph:        info,
		NodesAdded:   res.NodesAdded,
		EdgesAdded:   res.EdgesAdded,
		EdgesRemoved: res.EdgesRemoved,
		Reordered:    res.Reordered,
		// Every cached placement for this graph is stale now.
		Invalidated: s.cache.invalidateGraph(id),
		PlanSpliced: st.Spliced,
		PlanRepair:  planRepairInfo(st, patchDur),
	}

	if spec.Maintain {
		job, err := s.submitMaintain(id, spec.K, jobMetaOf(r))
		if err != nil {
			// The mutation is committed either way; report the job failure
			// in-band instead of failing the whole request.
			out.JobError = err.Error()
		} else {
			out.Job = &job
			w.Header().Set("Location", "/v1/jobs/"+job.ID)
			// Stamp the synchronous repair onto the job's timeline so the
			// per-job view shows the full PATCH→maintain pipeline.
			s.jobs.ObserveStage(job.ID, "plan-splice", patchStart, patchDur)
		}
	}
	s.writeJSON(w, r, http.StatusOK, out)
}

// submitMaintain enqueues the auto-maintain job kind: refresh graph id's
// k-filter placement against its current version. The cache key carries
// the patch count (read under the registry lock — the overlay's dynMu may
// be held by a long maintain run), so each graph version computes at most
// once and concurrent identical requests dedup onto one job.
func (s *Server) submitMaintain(id string, k int, meta JobMeta) (JobInfo, error) {
	_, info, ok := s.registry.Get(id)
	if !ok {
		return JobInfo{}, ErrUnknownGraph
	}
	key := fmt.Sprintf("%s|maintain|%d|float|v%d|", id, k, info.Patches)
	spec := PlaceSpec{Algorithm: "maintain", K: k, Engine: "float"}
	job, err := s.jobs.SubmitFunc(id, spec, key, meta, func(ctx context.Context) (*PlaceResult, error) {
		return s.runMaintain(ctx, id, k)
	})
	if err == nil {
		s.metrics.MaintainJobs.Add(1)
	}
	return job, err
}

// runMaintain executes one maintenance pass under the graph's per-entry
// lock and shapes the report as a PlaceResult.
func (s *Server) runMaintain(ctx context.Context, id string, k int) (*PlaceResult, error) {
	mt, unlock, err := s.registry.Maintainer(id, k, s.maxParallelism)
	if err != nil {
		return nil, err
	}
	defer unlock()
	sp := obs.TraceFrom(ctx).Begin("maintain")
	// Maintain may resync its plan internally (missed batches force a
	// rebuild); diff the shared splicer's counter around the run so those
	// rebuilds land in the global metrics too. Patch-time rebuilds are
	// counted by Registry.Patch, so the two never double-count.
	_, r0 := mt.Splicer().Counters()
	rep, err := mt.Maintain(ctx)
	_, r1 := mt.Splicer().Counters()
	s.metrics.PlanRebuilds.Add(r1 - r0)
	sp.End()
	if err != nil {
		return nil, err
	}
	filters := rep.Filters
	if filters == nil {
		filters = []int{}
	}
	return &PlaceResult{
		GraphID:   id,
		Algorithm: "maintain",
		K:         k,
		Filters:   filters,
		PhiEmpty:  rep.PhiEmpty,
		PhiA:      rep.PhiEmpty - rep.FAfter,
		F:         rep.FAfter,
		FR:        rep.FRatio,
		Maintain: &MaintainInfo{
			Strategy: rep.Strategy,
			FBefore:  rep.FBefore,
			Delta:    rep.Delta,
			Added:    rep.Added,
			Removed:  rep.Removed,
			Swaps:    rep.Swaps,
		},
	}, nil
}
