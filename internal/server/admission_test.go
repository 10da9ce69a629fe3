package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
)

// gangJob submits a one-graph gang job whose work is fn, mirroring what
// handlePlaceBatch builds.
func gangJob(t *testing.T, e *JobEngine, key string, fn func(context.Context) (*PlaceResult, error)) JobInfo {
	t.Helper()
	bs := newBatchState([]BatchItem{{GraphID: "g", State: JobQueued}})
	info, err := e.Submit("g", PlaceSpec{Algorithm: "gall", K: 1}, key, JobMeta{}, bs, fn)
	if err != nil {
		t.Fatalf("gang submit: %v", err)
	}
	return info
}

// okFn is a job closure that completes immediately.
func okFn(ctx context.Context) (*PlaceResult, error) {
	return &PlaceResult{Filters: []int{1}}, nil
}

// holdSlot occupies one run slot with a job that blocks until the
// returned channel is closed, so everything submitted next stays queued.
func holdSlot(t *testing.T, e *JobEngine) chan struct{} {
	t.Helper()
	release := make(chan struct{})
	info, err := e.Submit("g0", PlaceSpec{Algorithm: "gall", K: 1}, "hold", JobMeta{}, nil, blockingFn(release))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, e, info.ID, JobRunning)
	return release
}

// TestGangWaitsWhenQueueFull: a full queue 503s solo jobs, but a gang is
// still admitted, up to twice the queue depth.
func TestGangWaitsWhenQueueFull(t *testing.T) {
	e, acct := newTestEngine(1, 1)
	defer e.Close()
	release := holdSlot(t, e)
	if _, err := e.Submit("g2", PlaceSpec{Algorithm: "gall", K: 1}, "queued", JobMeta{}, nil, blockingFn(release)); err != nil {
		t.Fatal(err)
	}

	// Solo: immediate back pressure.
	if _, err := e.Submit("g3", PlaceSpec{Algorithm: "gall", K: 1}, "solo", JobMeta{}, nil, okFn); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("solo on full queue: err %v, want ErrQueueFull", err)
	}
	// Gang: waits in the queue instead.
	gang := gangJob(t, e, "batch|k1", okFn)
	if gang.State != JobQueued {
		t.Fatalf("gang state %s, want queued", gang.State)
	}

	// The gang bound is still a bound: 2×queueDepth (2 here) pending jobs,
	// so a second gang is rejected.
	bs := newBatchState([]BatchItem{{GraphID: "g", State: JobQueued}})
	if _, err := e.Submit("g", PlaceSpec{Algorithm: "gall", K: 1}, "batch|k2", JobMeta{}, bs, okFn); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("gang beyond the gang bound: err %v, want ErrQueueFull", err)
	}
	if got := acct.Total(obs.JobsRejected); got != 2 {
		t.Fatalf("jobs_rejected = %d, want 2", got)
	}

	close(release)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	done, err := e.Wait(ctx, gang.ID)
	if err != nil || done.State != JobDone {
		t.Fatalf("queued gang finished as %s (err %v), want done", done.State, err)
	}
}

// TestQueuedJobsRunOldestFirst: gangs and solo jobs share one FIFO and
// start in submission order once a slot frees up.
func TestQueuedJobsRunOldestFirst(t *testing.T) {
	e, _ := newTestEngine(1, 8)
	defer e.Close()
	release := holdSlot(t, e)

	var mu sync.Mutex
	var order []string
	record := func(tag string) func(context.Context) (*PlaceResult, error) {
		return func(ctx context.Context) (*PlaceResult, error) {
			mu.Lock()
			order = append(order, tag)
			mu.Unlock()
			return &PlaceResult{Filters: []int{1}}, nil
		}
	}
	solo := func(tag string) JobInfo {
		info, err := e.Submit("g", PlaceSpec{Algorithm: "gall", K: 1}, "solo|"+tag, JobMeta{}, nil, record(tag))
		if err != nil {
			t.Fatal(err)
		}
		return info
	}
	ids := []string{
		gangJob(t, e, "batch|a", record("a")).ID,
		solo("b").ID,
		gangJob(t, e, "batch|c", record("c")).ID,
		solo("d").ID,
	}
	if d := e.QueueDepth(); d != 4 {
		t.Fatalf("queue depth %d, want 4", d)
	}
	close(release)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for _, id := range ids {
		if done, err := e.Wait(ctx, id); err != nil || done.State != JobDone {
			t.Fatalf("job %s: state %s err %v", id, done.State, err)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if len(order) != 4 || order[0] != "a" || order[1] != "b" || order[2] != "c" || order[3] != "d" {
		t.Fatalf("execution order %v, want [a b c d]", order)
	}
}

// TestCancelQueuedGang: canceling a queued gang terminates it and its
// batch items without the closure ever running.
func TestCancelQueuedGang(t *testing.T) {
	e, acct := newTestEngine(1, 4)
	defer e.Close()
	release := holdSlot(t, e)

	var ran atomic.Bool
	info := gangJob(t, e, "batch|k1", func(ctx context.Context) (*PlaceResult, error) {
		ran.Store(true)
		return nil, nil
	})
	canceled, ok := e.Cancel(info.ID)
	if !ok || canceled.State != JobCanceled {
		t.Fatalf("cancel queued gang: ok=%v state=%s", ok, canceled.State)
	}
	for _, item := range canceled.Batch {
		if item.State != JobCanceled {
			t.Fatalf("batch item state %s, want canceled", item.State)
		}
	}
	// Free the slot and let a later job through: the canceled gang must
	// not run ahead of it.
	close(release)
	next, err := e.Submit("g", PlaceSpec{Algorithm: "gall", K: 1}, "next", JobMeta{}, nil, okFn)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if done, err := e.Wait(ctx, next.ID); err != nil || done.State != JobDone {
		t.Fatalf("next job: state %s err %v", done.State, err)
	}
	if ran.Load() {
		t.Fatal("canceled queued gang still executed")
	}
	if got := acct.Total(obs.JobsCanceled); got != 1 {
		t.Fatalf("jobs_canceled = %d, want 1", got)
	}
}

// TestCancelQueuedFreesSlot: a canceled queued job leaves the queue at
// once, so it no longer counts toward the depth and the next solo job is
// admitted.
func TestCancelQueuedFreesSlot(t *testing.T) {
	e, _ := newTestEngine(1, 1)
	defer e.Close()
	release := holdSlot(t, e)
	defer close(release)

	queued, err := e.Submit("g1", PlaceSpec{Algorithm: "gall", K: 1}, "queued", JobMeta{}, nil, okFn)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := e.Cancel(queued.ID); !ok {
		t.Fatal("cancel failed")
	}
	if d := e.QueueDepth(); d != 0 {
		t.Fatalf("queue depth after cancel = %d, want 0", d)
	}
	if _, err := e.Submit("g2", PlaceSpec{Algorithm: "gall", K: 1}, "next", JobMeta{}, nil, okFn); err != nil {
		t.Fatalf("submit after cancel: %v", err)
	}
}

// TestCloseCancelsQueuedGang: engine shutdown terminates a queued gang as
// canceled without executing it.
func TestCloseCancelsQueuedGang(t *testing.T) {
	e, _ := newTestEngine(1, 4)
	release := holdSlot(t, e)
	defer close(release)

	var ran atomic.Bool
	info := gangJob(t, e, "batch|k1", func(ctx context.Context) (*PlaceResult, error) {
		ran.Store(true)
		return nil, nil
	})
	e.Close()
	if ran.Load() {
		t.Fatal("queued gang executed during Close")
	}
	got, ok := e.Get(info.ID)
	if !ok || got.State != JobCanceled {
		t.Fatalf("after Close: ok=%v state=%s, want canceled", ok, got.State)
	}
	for _, item := range got.Batch {
		if item.State != JobCanceled {
			t.Fatalf("batch item state %s, want canceled", item.State)
		}
	}
}

// serveJSON sends one JSON request through s's handler and decodes the
// response into out.
func serveJSON(t *testing.T, s *Server, method, target string, body, out any) int {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(method, target, bytes.NewReader(b)))
	if err := json.Unmarshal(rec.Body.Bytes(), out); err != nil {
		t.Fatalf("%s %s: status %d, body %q: %v", method, target, rec.Code, rec.Body.String(), err)
	}
	return rec.Code
}

// TestBatchDedupsInFlight checks two identical gangs (modulo order and
// parallelism) share one job while in flight. Every run slot is held by a
// blocking job first, so the first gang is still queued when the second
// arrives.
func TestBatchDedupsInFlight(t *testing.T) {
	s := New(Config{})
	defer s.Close()
	var ids []string
	for _, seed := range []int64{31, 32} {
		var info GraphInfo
		spec := GraphSpec{Name: fmt.Sprintf("layered-%d", seed), Generator: "layered", Levels: 6, PerLevel: 10, Seed: seed}
		if code := serveJSON(t, s, "POST", "/v1/graphs", spec, &info); code != http.StatusCreated {
			t.Fatalf("upload layered %d: status %d", seed, code)
		}
		ids = append(ids, info.ID)
	}
	release := make(chan struct{})
	for i := 0; i < s.jobs.slots; i++ {
		info, err := s.jobs.Submit("g0", PlaceSpec{Algorithm: "gall", K: 1}, fmt.Sprintf("hold%d", i), JobMeta{}, nil, blockingFn(release))
		if err != nil {
			t.Fatal(err)
		}
		waitState(t, s.jobs, info.ID, JobRunning)
	}

	var first, second JobInfo
	if code := serveJSON(t, s, "POST", "/v1/placements:batch", BatchPlaceSpec{
		Graphs: []string{ids[0], ids[1]},
		Spec:   PlaceSpec{Algorithm: "gall", K: 2, Parallelism: 2},
	}, &first); code != http.StatusAccepted {
		t.Fatalf("first batch: status %d", code)
	}
	if code := serveJSON(t, s, "POST", "/v1/placements:batch", BatchPlaceSpec{
		Graphs: []string{ids[1], ids[0]},
		Spec:   PlaceSpec{Algorithm: "gall", K: 2, Parallelism: 5},
	}, &second); code != http.StatusAccepted || second.ID != first.ID {
		t.Fatalf("identical in-flight gang: status %d job %s, want 202 deduped onto %s", code, second.ID, first.ID)
	}
	close(release)
	waitState(t, s.jobs, first.ID, JobDone)
}
