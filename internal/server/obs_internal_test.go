package server

import (
	"bytes"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/obs"
)

// TestMetricsSnapshotDrift pins the counter plumbing end to end: every
// Metrics field must land in the same-named MetricsSnapshot field, every
// snapshot field must be emitted as an fpd_-prefixed Prometheus sample
// with the right TYPE, and the exposition must pass the strict linter.
// Adding a counter without one of its counterparts fails here (the
// reflective Snapshot additionally panics at runtime).
func TestMetricsSnapshotDrift(t *testing.T) {
	var m Metrics
	mv := reflect.ValueOf(&m).Elem()
	for i := 0; i < mv.NumField(); i++ {
		mv.Field(i).Addr().Interface().(*atomic.Int64).Store(int64(i + 1))
	}
	snap := m.Snapshot()
	sv := reflect.ValueOf(snap)
	mt := mv.Type()
	for i := 0; i < mt.NumField(); i++ {
		name := mt.Field(i).Name
		if got := sv.FieldByName(name).Int(); got != int64(i+1) {
			t.Errorf("snapshot.%s = %d, want %d", name, got, i+1)
		}
	}

	var buf bytes.Buffer
	if err := writePrometheusSnapshot(&buf, snap); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	st := reflect.TypeOf(snap)
	for i := 0; i < st.NumField(); i++ {
		tag := strings.Split(st.Field(i).Tag.Get("json"), ",")[0]
		name := "fpd_" + tag
		if !strings.Contains(text, "\n"+name+" ") && !strings.HasPrefix(text, name+" ") {
			t.Errorf("metric %s missing from exposition", name)
		}
		wantType := "counter"
		if snapshotGauges[tag] {
			wantType = "gauge"
		}
		if !strings.Contains(text, "# TYPE "+name+" "+wantType+"\n") {
			t.Errorf("metric %s missing %q TYPE line", name, wantType)
		}
	}
	if err := obs.LintPrometheus(strings.NewReader(text)); err != nil {
		t.Errorf("exposition fails lint: %v", err)
	}
}

// timelineStages flattens a timeline to its stage names.
func timelineStages(info JobInfo) map[string]obs.StageRecord {
	out := make(map[string]obs.StageRecord, len(info.Timeline))
	for _, rec := range info.Timeline {
		out[rec.Name] = rec
	}
	return out
}

// TestJobTimelineCanceled: a job canceled while still queued records the
// time it spent in the queue.
func TestJobTimelineCanceled(t *testing.T) {
	e, _ := newTestEngine(1, 4)
	defer e.Close()
	release := make(chan struct{})
	defer close(release)

	running, err := e.SubmitFunc("g1", PlaceSpec{Algorithm: "gall", K: 1}, "run", JobMeta{}, blockingFn(release))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, e, running.ID, JobRunning)
	queued, err := e.SubmitFunc("g2", PlaceSpec{Algorithm: "gall", K: 1}, "queued", JobMeta{}, okFn)
	if err != nil {
		t.Fatal(err)
	}
	canceled, ok := e.Cancel(queued.ID)
	if !ok || canceled.State != JobCanceled {
		t.Fatalf("cancel queued: ok=%v state=%s", ok, canceled.State)
	}
	if _, ok := timelineStages(canceled)["queued"]; !ok {
		t.Errorf("canceled job timeline missing queued stage: %+v", canceled.Timeline)
	}
}
