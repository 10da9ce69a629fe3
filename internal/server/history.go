package server

import (
	"net/http"
	"time"

	"repro/internal/obs"
)

// In-process stats history: a background sampler snapshots the metrics
// every HistoryInterval and appends the flattened values — every /metrics
// key plus latency quantiles derived from the live histograms — to a
// fixed-size ring. GET /v1/stats/history serves a
// window of it, so an operator can see the last N minutes of queue
// depth, scheduler backlog and job latency without running a
// Prometheus server at all.

// historyQuantiles are the quantiles sampled from each tracked latency
// histogram into the history (job_run_seconds_p50 and friends).
var historyQuantiles = []struct {
	suffix string
	q      float64
}{
	{"_p50", 0.50},
	{"_p90", 0.90},
	{"_p99", 0.99},
}

// historyValues flattens the /metrics readings plus histogram quantiles
// into the flat map one history sample stores. The readings keep their
// /metrics keys, so the two vocabularies cannot drift.
func (s *Server) historyValues() map[string]float64 {
	metrics := s.sampleMetrics()
	vals := make(map[string]float64, len(metrics)+3*len(historyQuantiles))
	for key, v := range metrics {
		vals[key] = float64(v)
	}
	for name, h := range map[string]*obs.Histogram{
		"job_run_seconds":          s.obs.jobRun,
		"job_queue_wait_seconds":   s.obs.jobQueueWait,
		"sched_queue_wait_seconds": s.obs.schedWait,
	} {
		hs := h.Snapshot()
		for _, hq := range historyQuantiles {
			vals[name+hq.suffix] = hs.Quantile(hq.q)
		}
	}
	return vals
}

// historyLoop is the background sampler; it runs from New until Close.
func (s *Server) historyLoop() {
	defer s.historyWG.Done()
	tick := time.NewTicker(s.historyInterval)
	defer tick.Stop()
	for {
		select {
		case <-s.historyStop:
			return
		case <-tick.C:
			s.history.Add(time.Now().UTC(), s.historyValues())
		}
	}
}

// handleStatsHistory is GET /v1/stats/history?window=5m: the retained
// samples, oldest first. window limits how far back the response
// reaches; absent or zero means everything the ring holds.
func (s *Server) handleStatsHistory(w http.ResponseWriter, r *http.Request) {
	var window time.Duration
	if ws := r.URL.Query().Get("window"); ws != "" {
		d, err := time.ParseDuration(ws)
		if err != nil {
			s.writeError(w, r, http.StatusBadRequest, "bad window %q: %v", ws, err)
			return
		}
		if d < 0 {
			s.writeError(w, r, http.StatusBadRequest, "window %q is negative", ws)
			return
		}
		window = d
	}
	samples := s.history.Window(window, time.Now().UTC())
	if samples == nil {
		samples = []obs.Sample{} // serialize as [], not null
	}
	s.writeJSON(w, r, http.StatusOK, map[string]any{
		"interval_ms":  s.historyInterval.Milliseconds(),
		"retention_ms": s.historyRetention.Milliseconds(),
		"capacity":     s.history.Cap(),
		"samples":      samples,
	})
}
