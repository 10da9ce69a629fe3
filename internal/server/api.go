package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/flow"
	"repro/internal/obs"
	"repro/internal/sched"
)

// errorBody is the JSON shape of every non-2xx response. RequestID
// echoes the X-Request-ID header so a client can quote one token when
// reporting a failure; RetryAfterSeconds mirrors the Retry-After header
// on 503 admission rejections.
type errorBody struct {
	Error             string `json:"error"`
	RequestID         string `json:"request_id,omitempty"`
	RetryAfterSeconds int    `json:"retry_after_seconds,omitempty"`
}

// writeJSON sends v with status. json.Encoder writes nothing when v fails
// to encode (NaN, say), and the status line goes out with the first
// write, so such a value is answered with a 500 error body instead of a
// bodiless success.
func (s *Server) writeJSON(w http.ResponseWriter, r *http.Request, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	sw := &statusWriter{ResponseWriter: w, status: status}
	if err := json.NewEncoder(sw).Encode(v); err != nil {
		if !sw.wrote {
			s.writeError(w, r, http.StatusInternalServerError, "encode response: %v", err)
			return
		}
		s.logf("fpd: write response: %v", err)
	}
}

// statusWriter defers WriteHeader to the first Write.
type statusWriter struct {
	http.ResponseWriter
	status int
	wrote  bool
}

func (sw *statusWriter) Write(p []byte) (int, error) {
	if !sw.wrote {
		sw.wrote = true
		sw.ResponseWriter.WriteHeader(sw.status)
	}
	return sw.ResponseWriter.Write(p)
}

// requestIDOf recovers the request id for error bodies: from the stamped
// context normally, from the already-set response header on the one path
// (stampRequest's own rejection) that errors before stamping completes.
func requestIDOf(w http.ResponseWriter, r *http.Request) string {
	if id := reqFrom(r.Context()).id; id != "" {
		return id
	}
	return w.Header().Get("X-Request-ID")
}

func (s *Server) writeError(w http.ResponseWriter, r *http.Request, status int, format string, args ...any) {
	s.acct.Fleet().Add(obs.RequestErrors, 1)
	s.writeJSON(w, r, status, errorBody{
		Error:     fmt.Sprintf(format, args...),
		RequestID: requestIDOf(w, r),
	})
}

// writeQueueFull is the 503 admission-rejection path: the Retry-After
// header (and its JSON mirror) is priced from the job engine's observed
// drain rate, so a saturated daemon tells clients when capacity is
// actually expected rather than having them hammer a fixed backoff.
func (s *Server) writeQueueFull(w http.ResponseWriter, r *http.Request, err error) {
	retry := s.jobs.RetryAfterEstimate()
	secs := int((retry + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	w.Header().Set("Retry-After", strconv.Itoa(secs))
	s.acct.Fleet().Add(obs.RequestErrors, 1)
	s.writeJSON(w, r, http.StatusServiceUnavailable, errorBody{
		Error:             fmt.Sprintf("%v; retry later", err),
		RequestID:         requestIDOf(w, r),
		RetryAfterSeconds: secs,
	})
}

// decodeBody strictly decodes a JSON request body into v.
func (s *Server) decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, s.maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		s.writeError(w, r, http.StatusBadRequest, "bad request body: %v", err)
		return false
	}
	return true
}

// handleCreateGraph is POST /v1/graphs: upload an edge list or instantiate
// a generator, validate it as a propagation model, and register it.
func (s *Server) handleCreateGraph(w http.ResponseWriter, r *http.Request) {
	var spec GraphSpec
	if !s.decodeBody(w, r, &spec) {
		return
	}
	g, sources, err := spec.Build()
	if err != nil {
		s.writeError(w, r, http.StatusBadRequest, "graph spec: %v", err)
		return
	}
	m, err := flow.NewModel(g, sources)
	if err != nil {
		// Cyclic uploads and bad sources are client errors: the model
		// semantics require a DAG (use the library's Acyclic extraction
		// offline for cyclic datasets).
		s.writeError(w, r, http.StatusUnprocessableEntity, "invalid model: %v", err)
		return
	}
	info := s.registry.Add(spec.Name, m)
	w.Header().Set("Location", "/v1/graphs/"+info.ID)
	s.writeJSON(w, r, http.StatusCreated, info)
}

// handleListGraphs is GET /v1/graphs.
func (s *Server) handleListGraphs(w http.ResponseWriter, r *http.Request) {
	s.writeJSON(w, r, http.StatusOK, map[string]any{"graphs": s.registry.List()})
}

// handleGetGraph is GET /v1/graphs/{id}.
func (s *Server) handleGetGraph(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	_, info, ok := s.registry.Get(id)
	if !ok {
		s.writeError(w, r, http.StatusNotFound, "unknown graph %q", id)
		return
	}
	s.writeJSON(w, r, http.StatusOK, info)
}

// handleDeleteGraph is DELETE /v1/graphs/{id}.
func (s *Server) handleDeleteGraph(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if !s.registry.Delete(id) {
		s.writeError(w, r, http.StatusNotFound, "unknown graph %q", id)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// resolveModel returns the model to evaluate: the registered one, or a
// copy sharing its graph and plan (flow.Model.WithSources) when the
// request overrides the sources.
func resolveModel(m *flow.Model, sources []int) (*flow.Model, []int, error) {
	if len(sources) == 0 {
		return m, m.Sources(), nil
	}
	override, err := m.WithSources(sources)
	if err != nil {
		return nil, nil, err
	}
	return override, override.Sources(), nil
}

// handlePlace is POST /v1/graphs/{id}/place. Cheap heuristics run inline
// and return 200; expensive greedy algorithms consult the result cache
// (hit ⇒ 200 with the cached result) and otherwise enqueue a job and
// return 202 with its location.
func (s *Server) handlePlace(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	m, info, ok := s.registry.Get(id)
	if !ok {
		s.writeError(w, r, http.StatusNotFound, "unknown graph %q", id)
		return
	}
	var spec PlaceSpec
	if !s.decodeBody(w, r, &spec) {
		return
	}
	algo, err := spec.validate(m, s.maxParallelism)
	if err != nil {
		s.writeError(w, r, http.StatusBadRequest, "place spec: %v", err)
		return
	}
	m, sources, err := resolveModel(m, spec.Sources)
	if err != nil {
		s.writeError(w, r, http.StatusUnprocessableEntity, "sources override: %v", err)
		return
	}

	tc := s.tenantCounters(r)
	if algo.Serve != core.ServeAsync {
		res, err := s.execute(r.Context(), spec, m, id, tc)
		if err != nil {
			s.writeError(w, r, http.StatusInternalServerError, "placement: %v", err)
			return
		}
		s.acct.Fleet().Add(obs.SyncPlacements, 1)
		s.writeJSON(w, r, http.StatusOK, res)
		return
	}

	key := spec.cacheKey(id, info.Patches, sources)
	if res, ok := s.cache.get(key); ok {
		tc.Add(obs.CacheHits, 1)
		s.writeJSON(w, r, http.StatusOK, res)
		return
	}
	tc.Add(obs.CacheMisses, 1)
	// The job's work runs through runShared, so a solo job racing a gang
	// sub-placement on the same per-graph key joins the in-flight
	// computation instead of duplicating it; runShared also fills the
	// cache slot.
	job, err := s.jobs.Submit(id, spec, key, jobMetaOf(r), nil, func(ctx context.Context) (*PlaceResult, error) {
		return s.runShared(ctx, key, spec, m, id, tc)
	})
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

// handleEvaluate is GET /v1/graphs/{id}/evaluate?filters=3,17,42: report
// Φ(∅,V), Φ(A,V), F(A) and the Filter Ratio for an explicit filter mask.
func (s *Server) handleEvaluate(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	m, _, ok := s.registry.Get(id)
	if !ok {
		s.writeError(w, r, http.StatusNotFound, "unknown graph %q", id)
		return
	}
	filters, err := parseNodeList(r.URL.Query().Get("filters"), m.N())
	if err != nil {
		s.writeError(w, r, http.StatusBadRequest, "filters: %v", err)
		return
	}
	if srcParam := r.URL.Query().Get("sources"); srcParam != "" {
		sources, err := parseNodeList(srcParam, m.N())
		if err != nil {
			s.writeError(w, r, http.StatusBadRequest, "sources: %v", err)
			return
		}
		if m, _, err = resolveModel(m, sources); err != nil {
			s.writeError(w, r, http.StatusUnprocessableEntity, "sources override: %v", err)
			return
		}
	}
	res := &PlaceResult{
		GraphID:   id,
		Algorithm: "evaluate",
		K:         len(filters),
		Filters:   filters,
	}
	ev := flow.NewFloat(m)
	res.setObjective(ev, filters)
	ev.ReleaseScratch()
	s.acct.Fleet().Add(obs.Evaluations, 1)
	s.writeJSON(w, r, http.StatusOK, res)
}

// parseNodeList parses "3,17,42" into node ids, checking range and
// rejecting duplicates. An empty string is the empty set.
func parseNodeList(s string, n int) ([]int, error) {
	if strings.TrimSpace(s) == "" {
		return []int{}, nil
	}
	parts := strings.Split(s, ",")
	nodes := make([]int, 0, len(parts))
	seen := make(map[int]bool, len(parts))
	for _, p := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil {
			return nil, fmt.Errorf("bad node id %q", p)
		}
		if v < 0 || v >= n {
			return nil, fmt.Errorf("node %d outside [0, %d)", v, n)
		}
		if seen[v] {
			return nil, fmt.Errorf("duplicate node %d", v)
		}
		seen[v] = true
		nodes = append(nodes, v)
	}
	return nodes, nil
}

// handleListJobs is GET /v1/jobs.
func (s *Server) handleListJobs(w http.ResponseWriter, r *http.Request) {
	s.writeJSON(w, r, http.StatusOK, map[string]any{"jobs": s.jobs.List()})
}

// handleGetJob is GET /v1/jobs/{id}.
func (s *Server) handleGetJob(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	info, ok := s.jobs.Get(id)
	if !ok {
		s.writeError(w, r, http.StatusNotFound, "unknown job %q", id)
		return
	}
	s.writeJSON(w, r, http.StatusOK, info)
}

// handleCancelJob is DELETE /v1/jobs/{id}: request cancellation and return
// the job's current state.
func (s *Server) handleCancelJob(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	info, ok := s.jobs.Cancel(id)
	if !ok {
		s.writeError(w, r, http.StatusNotFound, "unknown job %q", id)
		return
	}
	s.writeJSON(w, r, http.StatusOK, info)
}

// handleHealthz is GET /healthz: liveness. It answers 200 whenever the
// process can serve HTTP at all; readiness (can it take work?) is
// /readyz's job.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.writeJSON(w, r, http.StatusOK, map[string]any{
		"status": "ok",
		"graphs": s.registry.Len(),
	})
}

// handleReadyz is GET /readyz: readiness. Each subsystem reports a named
// check; any failing check turns the response 503 so a load balancer
// stops routing work here (a closed job engine, in particular, rejects
// every async placement).
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	ready := true
	checks := map[string]string{
		"registry": fmt.Sprintf("ok (%d graphs)", s.registry.Len()),
		"sched":    fmt.Sprintf("ok (%d workers)", sched.Default().Workers()),
		"history":  fmt.Sprintf("ok (%d samples)", s.history.Len()),
	}
	if s.jobs.Closed() {
		checks["job_engine"] = "closed"
		ready = false
	} else {
		checks["job_engine"] = "ok"
	}
	status := http.StatusOK
	if !ready {
		status = http.StatusServiceUnavailable
	}
	s.writeJSON(w, r, status, map[string]any{"ready": ready, "checks": checks})
}

// handleMetrics is GET /metrics: every fleet counter of the ledger plus
// the sampled gauges. The default response is JSON; Prometheus text
// format (0.0.4) — including the per-tenant families and the latency
// histograms — is served for ?format=prometheus or an Accept header
// preferring text/plain (what a Prometheus scraper sends).
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if wantsPrometheus(r) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if err := s.obs.reg.WritePrometheus(w); err != nil {
			s.logf("fpd: write prometheus exposition: %v", err)
		}
		return
	}
	s.writeJSON(w, r, http.StatusOK, s.sampleMetrics())
}

// wantsPrometheus decides the /metrics response format: an explicit
// ?format= wins; otherwise an Accept header naming text/plain (and not
// json) selects the exposition format.
func wantsPrometheus(r *http.Request) bool {
	switch r.URL.Query().Get("format") {
	case "prometheus":
		return true
	case "json":
		return false
	}
	accept := r.Header.Get("Accept")
	return strings.Contains(accept, "text/plain") && !strings.Contains(accept, "application/json")
}
