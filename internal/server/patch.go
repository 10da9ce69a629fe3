package server

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"time"

	"repro/internal/dyn"
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
// state for billions of nodes (the same OOM vector uploadLimits closes
// for uploads).
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
	Job          *JobInfo  `json:"job,omitempty"`
	JobError     string    `json:"job_error,omitempty"`
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
	info, res, err := s.registry.Patch(id, b)
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
	// The new version's plan was rebuilt synchronously on the requester's
	// dime: charge the rebuild to the tenant.
	s.tenantCounters(r).Add(obs.PlanRebuilds, 1)

	out := &PatchResult{
		Graph:        info,
		NodesAdded:   res.NodesAdded,
		EdgesAdded:   res.EdgesAdded,
		EdgesRemoved: res.EdgesRemoved,
		Reordered:    res.Reordered,
		// Every cached placement for this graph is stale now.
		Invalidated: s.cache.invalidateGraph(id),
	}

	if spec.Maintain {
		job, err := s.submitMaintain(id, spec.K, jobMetaOf(r), patchStart, patchDur)
		if err != nil {
			// The mutation is committed either way; report the job failure
			// in-band instead of failing the whole request.
			out.JobError = err.Error()
		} else {
			out.Job = &job
			w.Header().Set("Location", "/v1/jobs/"+job.ID)
		}
	}
	s.writeJSON(w, r, http.StatusOK, out)
}

// submitMaintain enqueues the auto-maintain job kind: refresh graph id's
// k-filter placement against its current version. The cache key carries
// the patch count (read under the registry lock — the overlay's dynMu may
// be held by a long maintain run), so each graph version computes at most
// once and concurrent identical requests dedup onto one job. When the job
// starts it records the PATCH's synchronous plan rebuild, which began at
// rebuildStart and took rebuild, on its own trace, so the per-job view
// shows the whole PATCH→maintain pipeline.
func (s *Server) submitMaintain(id string, k int, meta JobMeta, rebuildStart time.Time, rebuild time.Duration) (JobInfo, error) {
	_, info, ok := s.registry.Get(id)
	if !ok {
		return JobInfo{}, ErrUnknownGraph
	}
	key := fmt.Sprintf("%s|maintain|%d|float|v%d|", id, k, info.Patches)
	spec := PlaceSpec{Algorithm: "maintain", K: k, Engine: "float"}
	job, err := s.jobs.Submit(id, spec, key, meta, nil, func(ctx context.Context) (*PlaceResult, error) {
		obs.TraceFrom(ctx).Observe("plan-rebuild", rebuildStart, rebuild)
		return s.runMaintain(ctx, id, k)
	})
	if err == nil {
		s.acct.Fleet().Add(obs.MaintainJobs, 1)
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
	rep, err := mt.Maintain(ctx)
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
