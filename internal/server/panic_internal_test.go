package server

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/obs"
)

// TestServeHTTPRecoversPanic: a panicking handler is answered with a JSON
// 500 that carries the request id, and the server keeps serving.
func TestServeHTTPRecoversPanic(t *testing.T) {
	s := New(Config{})
	defer s.Close()
	s.mux.HandleFunc("GET /v1/panic", func(http.ResponseWriter, *http.Request) { panic("boom") })

	req := httptest.NewRequest(http.MethodGet, "/v1/panic", nil)
	req.Header.Set("X-Request-ID", "panic-1")
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500", rec.Code)
	}
	var body errorBody
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatalf("body %q is not JSON: %v", rec.Body.String(), err)
	}
	if body.RequestID != "panic-1" || body.Error != "internal error" {
		t.Errorf("body %+v, want internal error with request id panic-1", body)
	}
	if got := s.acct.Total(obs.RequestErrors); got != 1 {
		t.Errorf("request_errors = %d, want 1", got)
	}

	rec = httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if rec.Code != http.StatusOK {
		t.Errorf("healthz after panic: status %d", rec.Code)
	}
}

// TestJobPanicFailsJob: a panicking job closure fails its own job with an
// "internal error" message, counts jobs_failed and frees its run slot for
// the next job.
func TestJobPanicFailsJob(t *testing.T) {
	e, acct := newTestEngine(1, 4)
	defer e.Close()
	bad, err := e.Submit("g1", PlaceSpec{Algorithm: "gall", K: 1}, "k1", JobMeta{}, nil,
		func(context.Context) (*PlaceResult, error) { panic("boom") })
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	info, err := e.Wait(ctx, bad.ID)
	if err != nil {
		t.Fatal(err)
	}
	if info.State != JobFailed || info.Error != "internal error" {
		t.Errorf("panicked job = %s %q, want failed %q", info.State, info.Error, "internal error")
	}
	if got := acct.Total(obs.JobsFailed); got != 1 {
		t.Errorf("jobs_failed = %d, want 1", got)
	}
	if got := e.Running(); got != 0 {
		t.Errorf("jobs_running = %d after the panic, want 0", got)
	}

	// The single run slot must be free again.
	release := make(chan struct{})
	close(release)
	next, err := e.Submit("g1", PlaceSpec{Algorithm: "gall", K: 2}, "k2", JobMeta{}, nil, blockingFn(release))
	if err != nil {
		t.Fatal(err)
	}
	if info, err := e.Wait(ctx, next.ID); err != nil || info.State != JobDone {
		t.Errorf("job after the panic = %+v, err %v", info, err)
	}
}

// TestFlightLeaderPanicFinishes: a flight leader whose placement panics
// still finishes its flight, so joiners wake (and retry) instead of
// waiting on a leader that is gone.
func TestFlightLeaderPanicFinishes(t *testing.T) {
	s := New(Config{})
	defer s.Close()
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("placing on a nil model did not panic")
			}
		}()
		s.runShared(context.Background(), "k", PlaceSpec{Algorithm: "gall", K: 1}, nil, "g1", nil)
	}()
	f, leader := s.jobs.claim("k")
	if !leader {
		t.Fatal("the panicked leader left its flight open")
	}
	s.jobs.settle("k", f, nil, nil)
}
