package server

import (
	"testing"

	"repro/internal/obs"
)

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

	running, err := e.Submit("g1", PlaceSpec{Algorithm: "gall", K: 1}, "run", JobMeta{}, nil, blockingFn(release))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, e, running.ID, JobRunning)
	queued, err := e.Submit("g2", PlaceSpec{Algorithm: "gall", K: 1}, "queued", JobMeta{}, nil, okFn)
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
