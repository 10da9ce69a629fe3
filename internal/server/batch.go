package server

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"slices"
	"strings"
	"sync"

	"repro/internal/flow"
	"repro/internal/obs"
	"repro/internal/sched"
)

// BatchPlaceSpec is the POST /v1/placements:batch request body: one
// PlaceSpec fanned out over many registered graphs as a single gang job.
// A fleet-wide tenant placing filters on hundreds of c-graphs (the
// per-venue/per-year subgraphs of a citation corpus) submits once instead
// of serializing through the job queue; the sub-placements share the
// process-wide scheduler, and each graph's result lands in the ordinary
// placement cache so later solo requests hit.
type BatchPlaceSpec struct {
	// Graphs names the registered graphs to place on. Order is
	// canonicalized (sorted, deduplicated) so two requests naming the
	// same set share cache entries and dedup onto one job.
	Graphs []string `json:"graphs"`
	// Spec is the placement to run on every graph. Parallelism is, as for
	// solo placements, excluded from every cache key.
	Spec PlaceSpec `json:"spec"`
}

// BatchItem is the per-graph view inside a batch job or result.
type BatchItem struct {
	GraphID string       `json:"graph_id"`
	State   JobState     `json:"state"`
	Error   string       `json:"error,omitempty"`
	Result  *PlaceResult `json:"result,omitempty"`
}

// BatchResult is the 200 response when every requested graph was already
// cached: no job is created, the items come back inline.
type BatchResult struct {
	Graphs []BatchItem `json:"graphs"`
}

// batchState tracks per-graph placement progress for one gang job. It has
// its own mutex so the job engine can snapshot it while holding the
// engine lock; no batchState method may acquire engine or registry locks.
type batchState struct {
	mu    sync.Mutex
	items []BatchItem
	index map[string]int
}

func newBatchState(items []BatchItem) *batchState {
	bs := &batchState{items: items, index: make(map[string]int, len(items))}
	for i, it := range items {
		bs.index[it.GraphID] = i
	}
	return bs
}

// setState transitions one graph's sub-placement.
func (bs *batchState) setState(graphID string, st JobState) {
	bs.mu.Lock()
	bs.items[bs.index[graphID]].State = st
	bs.mu.Unlock()
}

// finish records a sub-placement's outcome: done with its result, or
// canceled or failed with its error.
func (bs *batchState) finish(graphID string, res *PlaceResult, err error) {
	bs.mu.Lock()
	it := &bs.items[bs.index[graphID]]
	switch {
	case err == nil:
		it.State, it.Result = JobDone, res
	case errors.Is(err, context.Canceled):
		it.State, it.Error = JobCanceled, err.Error()
	default:
		it.State, it.Error = JobFailed, err.Error()
	}
	bs.mu.Unlock()
}

// cancelPending marks every non-terminal sub-placement canceled — the
// whole-job cancellation path for gangs that never started.
func (bs *batchState) cancelPending() {
	bs.mu.Lock()
	for i := range bs.items {
		if !bs.items[i].State.Terminal() {
			bs.items[i].State = JobCanceled
		}
	}
	bs.mu.Unlock()
}

// snapshot copies the items in canonical graph order.
func (bs *batchState) snapshot() []BatchItem {
	bs.mu.Lock()
	defer bs.mu.Unlock()
	return slices.Clone(bs.items)
}

// batchMiss is one graph the cache could not answer: the resolved model
// to place on and the cache key its result will fill.
type batchMiss struct {
	graphID string
	model   *flow.Model
	key     string
}

// handlePlaceBatch is POST /v1/placements:batch. The graph list is
// canonicalized, every graph's cache slot is consulted (hits come back
// prefilled), and the remaining sub-placements become ONE job whose
// closure gang-submits them to the shared scheduler. 200 with the inline
// result when everything was cached, 202 with the job otherwise.
func (s *Server) handlePlaceBatch(w http.ResponseWriter, r *http.Request) {
	var breq BatchPlaceSpec
	if !s.decodeBody(w, r, &breq) {
		return
	}
	if len(breq.Graphs) == 0 {
		s.writeError(w, r, http.StatusBadRequest, "batch spec: empty graph list")
		return
	}
	ids := slices.Clone(breq.Graphs)
	slices.Sort(ids)
	ids = slices.Compact(ids)

	spec := breq.Spec
	tc := s.tenantCounters(r)
	var (
		items  = make([]BatchItem, 0, len(ids))
		misses = make([]batchMiss, 0, len(ids))
		keys   = make([]string, 0, len(ids))
	)
	for _, id := range ids {
		m, info, ok := s.registry.Get(id)
		if !ok {
			s.writeError(w, r, http.StatusNotFound, "unknown graph %q", id)
			return
		}
		// validate normalizes the spec in place; the normalization is
		// idempotent and graph-independent, only the k/sources range
		// checks differ per graph.
		if _, err := spec.validate(m, s.maxParallelism); err != nil {
			s.writeError(w, r, http.StatusBadRequest, "place spec (graph %s): %v", id, err)
			return
		}
		m, sources, err := resolveModel(m, spec.Sources)
		if err != nil {
			s.writeError(w, r, http.StatusUnprocessableEntity, "sources override (graph %s): %v", id, err)
			return
		}
		key := spec.cacheKey(id, info.Patches, sources)
		if res, ok := s.cache.get(key); ok {
			tc.Add(obs.CacheHits, 1)
			items = append(items, BatchItem{GraphID: id, State: JobDone, Result: res})
			continue
		}
		tc.Add(obs.CacheMisses, 1)
		items = append(items, BatchItem{GraphID: id, State: JobQueued})
		misses = append(misses, batchMiss{graphID: id, model: m, key: key})
		keys = append(keys, key)
	}

	if len(misses) == 0 {
		s.writeJSON(w, r, http.StatusOK, BatchResult{Graphs: items})
		return
	}

	// The gang's dedup key is the joined per-graph MISS keys: two batches
	// needing the same outstanding placements share one job even when
	// their full graph lists differ by already-cached entries. Per-graph
	// keys exclude parallelism, so the gang key does too.
	bs := newBatchState(items)
	gangKey := "batch|" + strings.Join(keys, "&")
	job, err := s.jobs.Submit(strings.Join(ids, ","), spec, gangKey, jobMetaOf(r), bs, s.runBatch(misses, spec, bs, tc))
	switch {
	case errors.Is(err, ErrQueueFull):
		s.writeQueueFull(w, r, err)
		return
	case err != nil:
		s.writeError(w, r, http.StatusServiceUnavailable, "%v", err)
		return
	}
	w.Header().Set("Location", "/v1/jobs/"+job.ID)
	s.writeJSON(w, r, http.StatusAccepted, job)
}

// runBatch builds the gang closure: every miss becomes one scheduler task
// running the ordinary execute path, reporting its own state transitions
// and filling its own cache slot as it completes — so a gang interrupted
// mid-flight still leaves every finished graph cached and marked done.
// The gang is tagged with the submitting tenant so its scheduler queue
// waits are attributed in the per-tenant accounting.
func (s *Server) runBatch(misses []batchMiss, spec PlaceSpec, bs *batchState, tc *obs.TenantCounters) func(context.Context) (*PlaceResult, error) {
	return func(ctx context.Context) (*PlaceResult, error) {
		errs := make([]error, len(misses))
		gang := sched.Default().NewBatch().SetTag(tc.Name())
		for i := range misses {
			i := i
			gang.Go(func() {
				ms := misses[i]
				var res *PlaceResult
				err := ctx.Err()
				if err == nil {
					bs.setState(ms.graphID, JobRunning)
					s.batchInflight.Add(1)
					// runShared re-checks the cache (a solo job or an
					// overlapping gang may have filled this slot while we
					// sat queued), claims the per-graph key in the in-flight
					// table so identical work in flight is joined instead of
					// duplicated, and fills the cache slot on success.
					res, err = s.runShared(ctx, ms.key, spec, ms.model, ms.graphID, tc)
					s.batchInflight.Add(-1)
				}
				errs[i] = err
				bs.finish(ms.graphID, res, err)
			})
		}
		gang.Wait()
		// Job-level outcome: prefer a real failure over cancellation so a
		// genuinely broken sub-placement is not masked by siblings that
		// were canceled in its wake.
		var firstErr error
		for i, err := range errs {
			if err == nil {
				continue
			}
			if !errors.Is(err, context.Canceled) {
				return nil, fmt.Errorf("graph %s: %w", misses[i].graphID, err)
			}
			if firstErr == nil {
				firstErr = err
			}
		}
		return nil, firstErr
	}
}
