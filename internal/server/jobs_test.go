package server

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/flow"
	"repro/internal/graph"
)

func testModel(t *testing.T) *flow.Model {
	t.Helper()
	m, err := flow.NewModel(graph.MustFromEdges(3, [][2]int{{0, 1}, {1, 2}}), nil)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// blockingFn returns a job closure that parks until release is closed (or
// the job context is canceled), so tests can hold a worker busy
// deterministically.
func blockingFn(release <-chan struct{}) func(context.Context) (*PlaceResult, error) {
	return func(ctx context.Context) (*PlaceResult, error) {
		select {
		case <-release:
			return &PlaceResult{Filters: []int{1}}, nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
}

func newTestEngine(workers, depth int) (*JobEngine, *Metrics) {
	m := &Metrics{}
	return NewJobEngine(workers, depth, 64, newResultCache(8, m), m, nil), m
}

func waitState(t *testing.T, e *JobEngine, id string, want JobState) JobInfo {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		info, ok := e.Get(id)
		if !ok {
			t.Fatalf("job %s vanished", id)
		}
		if info.State == want {
			return info
		}
		if info.State.Terminal() {
			t.Fatalf("job %s reached %s, want %s", id, info.State, want)
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("job %s never reached %s", id, want)
	return JobInfo{}
}

func TestCancelRunningJob(t *testing.T) {
	e, metrics := newTestEngine(1, 4)
	defer e.Close()
	release := make(chan struct{})
	defer close(release)

	info, err := e.SubmitFunc("g1", PlaceSpec{Algorithm: "gall", K: 1}, "k1", JobMeta{}, blockingFn(release))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, e, info.ID, JobRunning)
	if _, ok := e.Cancel(info.ID); !ok {
		t.Fatal("cancel failed")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	done, err := e.Wait(ctx, info.ID)
	if err != nil {
		t.Fatal(err)
	}
	if done.State != JobCanceled {
		t.Errorf("state = %s, want canceled", done.State)
	}
	if metrics.JobsCanceled.Load() != 1 {
		t.Errorf("jobs_canceled = %d", metrics.JobsCanceled.Load())
	}
}

func TestCancelQueuedJob(t *testing.T) {
	e, _ := newTestEngine(1, 4)
	defer e.Close()
	release := make(chan struct{})

	running, err := e.SubmitFunc("g1", PlaceSpec{Algorithm: "gall", K: 1}, "k1", JobMeta{}, blockingFn(release))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, e, running.ID, JobRunning)
	queued, err := e.SubmitFunc("g1", PlaceSpec{Algorithm: "gall", K: 2}, "k2", JobMeta{}, blockingFn(release))
	if err != nil {
		t.Fatal(err)
	}
	// The single worker is parked, so the second job is still queued and
	// cancels synchronously.
	info, ok := e.Cancel(queued.ID)
	if !ok || info.State != JobCanceled {
		t.Fatalf("queued cancel = %+v, ok=%v", info, ok)
	}
	close(release)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if done, err := e.Wait(ctx, running.ID); err != nil || done.State != JobDone {
		t.Errorf("first job = %+v, err %v", done, err)
	}
	// The worker must skip the canceled job without re-running it.
	if info, _ := e.Get(queued.ID); info.State != JobCanceled {
		t.Errorf("canceled job re-entered state %s", info.State)
	}
}

func TestQueueFullRejects(t *testing.T) {
	e, metrics := newTestEngine(1, 1)
	defer e.Close()
	release := make(chan struct{})
	defer close(release)

	running, err := e.SubmitFunc("g1", PlaceSpec{K: 1}, "k1", JobMeta{}, blockingFn(release))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, e, running.ID, JobRunning)
	if _, err := e.SubmitFunc("g1", PlaceSpec{K: 2}, "k2", JobMeta{}, blockingFn(release)); err != nil {
		t.Fatalf("queue slot should be free: %v", err)
	}
	if _, err := e.SubmitFunc("g1", PlaceSpec{K: 3}, "k3", JobMeta{}, blockingFn(release)); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("err = %v, want ErrQueueFull", err)
	}
	if metrics.JobsRejected.Load() != 1 {
		t.Errorf("jobs_rejected = %d", metrics.JobsRejected.Load())
	}
}

func TestEngineCloseCancelsRunning(t *testing.T) {
	e, _ := newTestEngine(2, 4)
	never := make(chan struct{}) // only the context can unblock the job
	info, err := e.SubmitFunc("g1", PlaceSpec{K: 1}, "k1", JobMeta{}, blockingFn(never))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, e, info.ID, JobRunning)
	e.Close() // must not hang
	if got, _ := e.Get(info.ID); got.State != JobCanceled {
		t.Errorf("state after close = %s, want canceled", got.State)
	}
	if _, err := e.SubmitFunc("g1", PlaceSpec{K: 1}, "k2", JobMeta{}, blockingFn(never)); !errors.Is(err, ErrClosed) {
		t.Errorf("submit after close: err = %v, want ErrClosed", err)
	}
	e.Close() // idempotent
}

// TestCloseRacesSubmitAndCancel is the shutdown-race regression test (run
// under -race): Close concurrent with a storm of SubmitFunc and Cancel
// calls must leave every accepted job in a terminal state, reject late
// submissions with ErrClosed, and leak no goroutines. It also pins the
// fast-cancel path: jobs still queued at Close are canceled WITHOUT
// running, so Close is not stalled behind the backlog.
func TestCloseRacesSubmitAndCancel(t *testing.T) {
	for round := 0; round < 10; round++ {
		before := runtime.NumGoroutine()
		e, _ := newTestEngine(2, 32)
		var (
			mu  sync.Mutex
			ids []string
		)
		slow := func(ctx context.Context) (*PlaceResult, error) {
			select {
			case <-time.After(100 * time.Millisecond):
				return &PlaceResult{Filters: []int{1}}, nil
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := 0; i < 16; i++ {
					info, err := e.SubmitFunc("g1", PlaceSpec{K: 1},
						fmt.Sprintf("key-%d-%d", g, i), JobMeta{}, slow)
					if errors.Is(err, ErrClosed) || errors.Is(err, ErrQueueFull) {
						continue
					}
					if err != nil {
						t.Errorf("submit: %v", err)
						return
					}
					mu.Lock()
					ids = append(ids, info.ID)
					mu.Unlock()
					if i%3 == 0 {
						e.Cancel(info.ID)
					}
				}
			}(g)
		}
		closed := make(chan struct{})
		go func() {
			time.Sleep(time.Duration(round) * time.Millisecond)
			e.Close()
			close(closed)
		}()
		wg.Wait()
		<-closed

		mu.Lock()
		for _, id := range ids {
			info, ok := e.Get(id)
			if !ok {
				continue // pruned — only terminal jobs are
			}
			if !info.State.Terminal() {
				t.Fatalf("round %d: job %s stuck in %s after Close", round, id, info.State)
			}
		}
		mu.Unlock()

		deadline := time.Now().Add(10 * time.Second)
		for runtime.NumGoroutine() > before {
			if time.Now().After(deadline) {
				t.Fatalf("round %d: goroutines leaked: %d, started with %d",
					round, runtime.NumGoroutine(), before)
			}
			time.Sleep(time.Millisecond)
		}
	}
}

// TestCloseDoesNotRunQueuedBacklog checks the Close fast path directly: a
// deep queue behind a parked worker must reach canceled without any of
// the queued closures executing.
func TestCloseDoesNotRunQueuedBacklog(t *testing.T) {
	e, _ := newTestEngine(1, 16)
	release := make(chan struct{})
	running, err := e.SubmitFunc("g1", PlaceSpec{K: 1}, "running", JobMeta{}, blockingFn(release))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, e, running.ID, JobRunning)
	var ran atomic.Int64
	var queued []string
	for i := 0; i < 16; i++ {
		info, err := e.SubmitFunc("g1", PlaceSpec{K: 1}, fmt.Sprintf("q%d", i), JobMeta{},
			func(ctx context.Context) (*PlaceResult, error) {
				ran.Add(1)
				return nil, ctx.Err()
			})
		if err != nil {
			t.Fatal(err)
		}
		queued = append(queued, info.ID)
	}
	e.Close() // cancels the running job; queued ones must not execute
	if got := ran.Load(); got != 0 {
		t.Errorf("%d queued closures ran during Close", got)
	}
	for _, id := range queued {
		if info, ok := e.Get(id); ok && info.State != JobCanceled {
			t.Errorf("queued job %s ended %s, want canceled", id, info.State)
		}
	}
	close(release)
}

func TestResultCacheEvictionAndOverwrite(t *testing.T) {
	m := &Metrics{}
	c := newResultCache(2, m)
	r := func(k int) *PlaceResult { return &PlaceResult{K: k} }
	c.put("a", r(1))
	c.put("b", r(2))
	if _, ok := c.get("a"); !ok { // bumps a over b
		t.Fatal("a missing")
	}
	c.put("c", r(3)) // evicts b
	if _, ok := c.get("b"); ok {
		t.Error("b survived eviction")
	}
	got, ok := c.get("a")
	if !ok || got.K != 1 || !got.Cached {
		t.Errorf("a = %+v, ok=%v", got, ok)
	}
	c.put("a", r(9))
	if got, _ := c.get("a"); got.K != 9 {
		t.Errorf("overwrite lost: %+v", got)
	}
	if c.len() != 2 {
		t.Errorf("len = %d", c.len())
	}
}

// TestGreedyCtxCancel checks that both async algorithms honor an
// already-canceled context through the shared execute path.
func TestGreedyCtxCancel(t *testing.T) {
	m := testModel(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, algo := range []string{"gall", "celf"} {
		spec := PlaceSpec{Algorithm: algo, K: 2, Engine: "float"}
		if _, err := spec.execute(ctx, m, "g1", nil, nil); !errors.Is(err, context.Canceled) {
			t.Errorf("%s: err = %v, want context.Canceled", algo, err)
		}
	}
}

// TestSubmitDeduplicatesInFlight checks that an identical request (same
// cache key) while a job is queued or running shares the existing job
// instead of spawning a duplicate.
func TestSubmitDeduplicatesInFlight(t *testing.T) {
	e, metrics := newTestEngine(1, 4)
	defer e.Close()
	release := make(chan struct{})
	defer close(release)

	first, err := e.SubmitFunc("g1", PlaceSpec{Algorithm: "gall", K: 1}, "same-key", JobMeta{}, blockingFn(release))
	if err != nil {
		t.Fatal(err)
	}
	dup, err := e.SubmitFunc("g1", PlaceSpec{Algorithm: "gall", K: 1}, "same-key", JobMeta{}, blockingFn(release))
	if err != nil {
		t.Fatal(err)
	}
	if dup.ID != first.ID {
		t.Errorf("duplicate spawned new job %s, want %s", dup.ID, first.ID)
	}
	if metrics.JobsSubmitted.Load() != 1 || metrics.JobsDeduped.Load() != 1 {
		t.Errorf("submitted/deduped = %d/%d, want 1/1",
			metrics.JobsSubmitted.Load(), metrics.JobsDeduped.Load())
	}
}

// TestTerminalJobRetentionBound checks that old terminal jobs are pruned
// beyond MaxJobs (clamped to workers+queueDepth+1 = 3 here) while the
// newest records are kept.
func TestTerminalJobRetentionBound(t *testing.T) {
	metrics := &Metrics{}
	e := NewJobEngine(1, 1, 1, newResultCache(8, metrics), metrics, nil)
	defer e.Close()
	instant := func(context.Context) (*PlaceResult, error) {
		return &PlaceResult{Filters: []int{1}}, nil
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	var last string
	for i := 0; i < 6; i++ {
		info, err := e.SubmitFunc("g1", PlaceSpec{K: 1}, string(rune('a'+i)), JobMeta{}, instant)
		if err != nil {
			t.Fatal(err)
		}
		last = info.ID
		if _, err := e.Wait(ctx, info.ID); err != nil {
			t.Fatal(err)
		}
	}
	jobs := e.List()
	if len(jobs) != 3 {
		t.Fatalf("retained %d jobs, want 3: %+v", len(jobs), jobs)
	}
	if jobs[len(jobs)-1].ID != last {
		t.Errorf("newest job %s missing from %+v", last, jobs)
	}
	if _, ok := e.Get("j1"); ok {
		t.Error("oldest job survived pruning")
	}
	// A pruned job's Wait still reports its terminal state.
	pruned, err := e.Wait(ctx, "j1")
	if err == nil {
		t.Errorf("Wait on pruned job = %+v, want unknown-job error", pruned)
	}
}
