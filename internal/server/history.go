package server

import (
	"net/http"
	"reflect"
	"strings"
	"time"

	"repro/internal/obs"
)

// In-process stats history: a background sampler snapshots the metrics
// every HistoryInterval and appends the flattened values — every
// MetricsSnapshot field plus latency quantiles derived from the live
// histograms — to a fixed-size ring. GET /v1/stats/history serves a
// window of it, so an operator can see the last N minutes of queue
// depth, deferred-gang backlog and job latency without running a
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

// historyValues flattens a metrics snapshot plus histogram quantiles
// into the flat map one history sample stores. Snapshot fields keep
// their json tags as keys, so the history vocabulary and the /metrics
// vocabulary cannot drift.
func (s *Server) historyValues(snap MetricsSnapshot) map[string]float64 {
	sv := reflect.ValueOf(snap)
	st := sv.Type()
	vals := make(map[string]float64, st.NumField()+3*len(historyQuantiles))
	for i := 0; i < st.NumField(); i++ {
		tag := strings.Split(st.Field(i).Tag.Get("json"), ",")[0]
		if tag == "" || tag == "-" {
			continue
		}
		switch f := sv.Field(i); f.Kind() {
		case reflect.Int64:
			vals[tag] = float64(f.Int())
		case reflect.Float64:
			vals[tag] = f.Float()
		}
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
			s.history.Add(time.Now().UTC(), s.historyValues(s.sampleSnapshot()))
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
