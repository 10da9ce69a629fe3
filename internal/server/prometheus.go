package server

import (
	"fmt"
	"io"
	"reflect"
	"strings"

	"repro/internal/obs"
)

// Prometheus text exposition of the daemon's metrics. The counters and
// sampled gauges are emitted reflectively from MetricsSnapshot — every
// field's json tag becomes fpd_<tag> — so a metric added to the snapshot
// shows up in both the JSON and the Prometheus form with no further
// wiring (TestMetricsSnapshotDrift pins this). Histograms come from the
// server's obs.Registry, written by the same obs helpers, so the two
// halves cannot drift in format.

// snapshotGauges names the MetricsSnapshot fields that are
// point-in-time gauges rather than monotonic counters, keyed by json
// tag. Everything not listed is emitted as a Prometheus counter. A
// MetricsSnapshot field whose json tag is in neither category is a
// counter by default, which is the safe reading for anything monotonic.
var snapshotGauges = map[string]bool{
	"jobs_running":          true,
	"job_queue_depth":       true,
	"cache_entries":         true,
	"place_workers_busy":    true,
	"batch_graphs_inflight": true,
	"sched_queue_depth":     true,
	"sched_workers":         true,
	"events_subscribers":    true,
	"history_samples":       true,
	"tenants_tracked":       true,
}

// writePrometheusSnapshot emits every MetricsSnapshot field as an
// fpd_-prefixed Prometheus sample.
func writePrometheusSnapshot(w io.Writer, snap MetricsSnapshot) error {
	sv := reflect.ValueOf(snap)
	st := sv.Type()
	for i := 0; i < st.NumField(); i++ {
		tag := strings.Split(st.Field(i).Tag.Get("json"), ",")[0]
		if tag == "" || tag == "-" {
			return fmt.Errorf("server: MetricsSnapshot.%s has no json tag", st.Field(i).Name)
		}
		name := "fpd_" + tag
		kind := "counter"
		if snapshotGauges[tag] {
			kind = "gauge"
		}
		var value float64
		switch f := sv.Field(i); f.Kind() {
		case reflect.Int64:
			value = float64(f.Int())
		case reflect.Float64:
			value = f.Float()
		default:
			return fmt.Errorf("server: MetricsSnapshot.%s has unsupported kind %s", st.Field(i).Name, f.Kind())
		}
		if err := obs.WriteHeader(w, name, "", kind); err != nil {
			return err
		}
		if err := obs.WriteSample(w, name, "", value); err != nil {
			return err
		}
	}
	return nil
}

// writePrometheus writes the full exposition: snapshot counters/gauges
// first, then the registry's histograms.
func (s *Server) writePrometheus(w io.Writer, snap MetricsSnapshot) error {
	if err := writePrometheusSnapshot(w, snap); err != nil {
		return err
	}
	return s.obs.reg.WritePrometheus(w)
}
