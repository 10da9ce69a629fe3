package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"
	"time"

	"repro/internal/obs"
)

// newEventedEngine builds a job engine wired to an event bus only — the
// minimal engineObs the lifecycle-event tests need.
func newEventedEngine(slots, depth int) (*JobEngine, *eventBus, *obs.Accountant) {
	acct := obs.NewAccountant(0)
	bus := newEventBus(acct.Fleet())
	e := NewJobEngine(slots, depth, 64, acct, &engineObs{events: bus})
	return e, bus, acct
}

// collectEvents drains events for one job id until a terminal type (or
// timeout), returning them in arrival order.
func collectEvents(t *testing.T, sub *eventSub, jobID string) []JobEvent {
	t.Helper()
	var got []JobEvent
	deadline := time.After(10 * time.Second)
	for {
		select {
		case ev, ok := <-sub.ch:
			if !ok {
				t.Fatalf("bus closed before job %s finished; got %+v", jobID, got)
			}
			if ev.JobID != jobID {
				continue
			}
			got = append(got, ev)
			switch ev.Type {
			case EventFinished, EventFailed, EventCanceled:
				return got
			}
		case <-deadline:
			t.Fatalf("timed out waiting for terminal event of job %s; got %+v", jobID, got)
		}
	}
}

func TestEventLifecycleOrder(t *testing.T) {
	e, bus, _ := newEventedEngine(1, 4)
	defer e.Close()
	sub, cancel, ok := bus.subscribe(64)
	if !ok {
		t.Fatal("subscribe on a fresh bus failed")
	}
	defer cancel()

	release := make(chan struct{})
	meta := JobMeta{Tenant: "acme", RequestID: "req-1", Traceparent: "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01"}
	info, err := e.Submit("g1", PlaceSpec{Algorithm: "gall", K: 1}, "k1", meta, nil, blockingFn(release))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, e, info.ID, JobRunning)
	close(release)

	events := collectEvents(t, sub, info.ID)
	var types []string
	for i, ev := range events {
		types = append(types, ev.Type)
		if ev.Tenant != "acme" || ev.RequestID != "req-1" || ev.Traceparent != meta.Traceparent {
			t.Errorf("event %d lost request identity: %+v", i, ev)
		}
		if ev.GraphID != "g1" {
			t.Errorf("event %d graph = %q, want g1", i, ev.GraphID)
		}
		if i > 0 && ev.Seq <= events[i-1].Seq {
			t.Errorf("seq not increasing: %d then %d", events[i-1].Seq, ev.Seq)
		}
	}
	if len(types) < 3 || types[0] != EventSubmitted || types[1] != EventStarted || types[len(types)-1] != EventFinished {
		t.Errorf("lifecycle order = %v, want submitted, started, ..., finished", types)
	}
}

func TestEventCanceledBeforeStart(t *testing.T) {
	e, bus, _ := newEventedEngine(1, 4)
	defer e.Close()
	sub, cancel, ok := bus.subscribe(64)
	if !ok {
		t.Fatal("subscribe failed")
	}
	defer cancel()

	release := make(chan struct{})
	defer close(release)
	running, err := e.Submit("g1", PlaceSpec{K: 1}, "k1", JobMeta{}, nil, blockingFn(release))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, e, running.ID, JobRunning)
	queued, err := e.Submit("g1", PlaceSpec{K: 2}, "k2", JobMeta{Tenant: "acme"}, nil, blockingFn(release))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := e.Cancel(queued.ID); !ok {
		t.Fatal("cancel of queued job refused")
	}

	events := collectEvents(t, sub, queued.ID)
	var types []string
	for _, ev := range events {
		types = append(types, ev.Type)
		if ev.Type == EventStarted {
			t.Error("queued-then-canceled job emitted a started event")
		}
	}
	if len(types) != 2 || types[0] != EventSubmitted || types[1] != EventCanceled {
		t.Errorf("canceled lifecycle = %v, want [submitted canceled]", types)
	}
}

func TestEventBusDropAndSeq(t *testing.T) {
	acct := obs.NewAccountant(0)
	bus := newEventBus(acct.Fleet())
	sub, cancel, ok := bus.subscribe(1)
	if !ok {
		t.Fatal("subscribe failed")
	}
	defer cancel()
	for i := 0; i < 3; i++ {
		bus.publish(JobEvent{Type: EventStage, JobID: "j"})
	}
	if got := acct.Total(obs.EventsPublished); got != 3 {
		t.Errorf("EventsPublished = %d, want 3", got)
	}
	// Buffer of 1: the first event landed, the next two dropped.
	if got := acct.Total(obs.EventsDropped); got != 2 {
		t.Errorf("EventsDropped = %d, want 2", got)
	}
	ev := <-sub.ch
	if ev.Seq != 1 {
		t.Errorf("first delivered seq = %d, want 1", ev.Seq)
	}
	if n := bus.subscribers(); n != 1 {
		t.Errorf("subscribers() = %d, want 1", n)
	}
}

func TestEventBusClose(t *testing.T) {
	bus := newEventBus(nil)
	sub, _, ok := bus.subscribe(4)
	if !ok {
		t.Fatal("subscribe failed")
	}
	bus.close()
	if _, open := <-sub.ch; open {
		t.Error("subscriber channel still open after bus close")
	}
	bus.publish(JobEvent{Type: EventStage}) // must not panic
	if _, _, ok := bus.subscribe(4); ok {
		t.Error("subscribe succeeded on a closed bus")
	}
	bus.close() // idempotent
}

func TestRetryAfterEstimate(t *testing.T) {
	e, _ := newTestEngine(1, 4)
	defer e.Close()
	// No completion history: the fixed default.
	if got := e.RetryAfterEstimate(); got != 2*time.Second {
		t.Errorf("cold estimate = %v, want 2s", got)
	}
	// Synthetic history: completions 10s apart → 10s per pending job;
	// empty queue means one interval.
	base := time.Now()
	e.mu.Lock()
	for i := 0; i < 5; i++ {
		e.doneTimes[i] = base.Add(time.Duration(i) * 10 * time.Second)
	}
	e.doneIdx, e.doneN = 5, 5
	e.mu.Unlock()
	if got := e.RetryAfterEstimate(); got != 10*time.Second {
		t.Errorf("estimate with 10s cadence = %v, want 10s", got)
	}
	// Sub-second cadence clamps up to 1s.
	e.mu.Lock()
	for i := 0; i < 5; i++ {
		e.doneTimes[i] = base.Add(time.Duration(i) * 10 * time.Millisecond)
	}
	e.mu.Unlock()
	if got := e.RetryAfterEstimate(); got != time.Second {
		t.Errorf("fast-cadence estimate = %v, want 1s floor", got)
	}
}

func TestWriteQueueFullResponse(t *testing.T) {
	s := New(Config{QueueDepth: 1})
	defer s.Close()
	rec := httptest.NewRecorder()
	req := httptest.NewRequest("POST", "/v1/graphs/g/place", nil)
	s.writeQueueFull(rec, req, ErrQueueFull)

	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503", rec.Code)
	}
	ra := rec.Header().Get("Retry-After")
	secs, err := strconv.Atoi(ra)
	if err != nil || secs < 1 {
		t.Fatalf("Retry-After = %q, want an integer ≥ 1", ra)
	}
	var body struct {
		Error             string `json:"error"`
		RetryAfterSeconds int    `json:"retry_after_seconds"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatalf("bad 503 body %q: %v", rec.Body.String(), err)
	}
	if body.Error == "" || body.RetryAfterSeconds != secs {
		t.Errorf("body = %+v, want error text and retry_after_seconds == header (%d)", body, secs)
	}
}

func TestReadyzReportsClosedEngine(t *testing.T) {
	s := New(Config{})
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest("GET", "/readyz", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("readyz on a live server = %d, want 200", rec.Code)
	}
	var body struct {
		Ready  bool              `json:"ready"`
		Checks map[string]string `json:"checks"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil || !body.Ready {
		t.Fatalf("readyz body = %q (err %v), want ready:true", rec.Body.String(), err)
	}
	for _, check := range []string{"job_engine", "registry", "sched", "history"} {
		if body.Checks[check] == "" {
			t.Errorf("readyz missing check %q: %+v", check, body.Checks)
		}
	}

	s.Close()
	rec = httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest("GET", "/readyz", nil))
	if rec.Code != http.StatusServiceUnavailable {
		t.Errorf("readyz after Close = %d, want 503", rec.Code)
	}
}
