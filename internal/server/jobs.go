package server

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"slices"
	"sync"
	"time"

	"repro/internal/obs"
)

// JobState is the lifecycle of an asynchronous placement job.
type JobState string

const (
	JobQueued   JobState = "queued"
	JobRunning  JobState = "running"
	JobDone     JobState = "done"
	JobFailed   JobState = "failed"
	JobCanceled JobState = "canceled"
)

// Terminal reports whether the state is final.
func (s JobState) Terminal() bool {
	return s == JobDone || s == JobFailed || s == JobCanceled
}

// ErrQueueFull is returned by Submit when the job queue is at capacity.
var ErrQueueFull = errors.New("server: job queue full")

// ErrClosed is returned by Submit after the engine has shut down.
var ErrClosed = errors.New("server: job engine closed")

// JobMeta carries the request identity a job was created under: the
// tenant its work is accounted to, the client-visible request id, and
// the W3C traceparent so the job's timeline and logs join the caller's
// distributed trace. The zero value (direct library use) means the
// default tenant and no trace.
type JobMeta struct {
	Tenant      string
	RequestID   string
	Traceparent string
}

// JobInfo is the JSON view of a job served by GET /v1/jobs/{id}.
type JobInfo struct {
	ID      string       `json:"id"`
	GraphID string       `json:"graph_id"`
	Spec    PlaceSpec    `json:"spec"`
	State   JobState     `json:"state"`
	Error   string       `json:"error,omitempty"`
	Result  *PlaceResult `json:"result,omitempty"`
	// Tenant, RequestID and Traceparent echo the identity of the request
	// that submitted the job (see JobMeta).
	Tenant      string `json:"tenant,omitempty"`
	RequestID   string `json:"request_id,omitempty"`
	Traceparent string `json:"traceparent,omitempty"`
	// Batch holds the per-graph sub-placements of a gang-submitted batch
	// job, in canonical (sorted) graph order; nil for ordinary jobs.
	Batch     []BatchItem `json:"batch,omitempty"`
	Created   time.Time   `json:"created_at"`
	Started   *time.Time  `json:"started_at,omitempty"`
	Finished  *time.Time  `json:"finished_at,omitempty"`
	ElapsedMS int64       `json:"elapsed_ms,omitempty"`
	// Timeline is the job's stage trace: lifecycle phases (queued, run)
	// plus the placement stages core.Place recorded
	// (greedy-round, celf-init, …), each with a start offset relative to
	// submission and a total duration, merged by stage name. Present as
	// soon as a job starts; complete once the job is terminal.
	Timeline []obs.StageRecord `json:"timeline,omitempty"`
}

// job is the engine-internal record; every field after construction is
// guarded by the engine mutex except the immutable inputs.
type job struct {
	id      string
	graphID string
	spec    PlaceSpec
	key     string
	// runFn is the job's work. Every kind supplies one: solo placements
	// close over Server.runShared (which owns cache fills and in-flight
	// dedup), auto-maintain and batch jobs their own closures.
	runFn func(context.Context) (*PlaceResult, error)
	// batch, when set, tracks the per-graph sub-placements of a gang job;
	// it has its own mutex and is safe to snapshot under the engine lock.
	batch *batchState
	// meta is the submitting request's identity (immutable after
	// construction, so event publication may read it without the lock).
	meta JobMeta

	state    JobState
	result   *PlaceResult
	errMsg   string
	created  time.Time
	started  time.Time
	finished time.Time
	// trace records the job's stage timeline from submission on; run
	// threads it through the run context so core.Place stages land
	// on it too. Retirement freezes it into timeline and drops it.
	trace *obs.Trace
	// timeline is a terminal job's frozen stage list, exactly sized. It is
	// replaced, never modified, so JobInfo snapshots may share it.
	timeline []obs.StageRecord
	cancel   context.CancelFunc
	done     chan struct{}
}

// JobEngine runs expensive placements as asynchronous jobs: one FIFO of
// queued jobs, at most slots of them running at once (one goroutine per
// running job), lifecycle tracking and cancellation via context.
type JobEngine struct {
	mu     sync.Mutex
	jobs   map[string]*job
	order  []string        // submission order, for listing
	active map[string]*job // non-terminal jobs by cache key, for dedup
	// pending is the FIFO of queued jobs, oldest first. running counts the
	// started jobs that have not finished, at most slots of them.
	// queueDepth bounds pending (see enqueue).
	pending    []*job
	running    int
	slots      int
	queueDepth int
	closed     bool
	nextID     int
	maxJobs    int
	metrics    *Metrics
	// obs carries the engine's latency histograms, stage sink and slow
	// log; nil (direct library use) disables all of it.
	obs *engineObs

	// doneTimes is a ring of recent job completion instants; the observed
	// drain rate prices the Retry-After hint on 503 admission rejections.
	doneTimes [completionRingSize]time.Time
	doneIdx   int
	doneN     int

	baseCtx    context.Context
	baseCancel context.CancelFunc
	wg         sync.WaitGroup // one count per running job
}

// NewJobEngine builds an engine that runs at most slots jobs at once and
// queues up to queueDepth more (2×queueDepth for gang jobs, which wait
// rather than fail: they represent minutes of fleet work and are worth
// queueing for, while a solo client should see back pressure
// immediately). At most maxJobs job records are retained: once a job is
// terminal its model is released and the oldest terminal records beyond
// the bound are pruned, so a long-running daemon's memory stays bounded.
// o (optional, may be nil) wires the engine's observability: lifecycle
// histograms, the stage sink and the slow-placement log.
func NewJobEngine(slots, queueDepth, maxJobs int, m *Metrics, o *engineObs) *JobEngine {
	slots = max(slots, 1)
	queueDepth = max(queueDepth, 1)
	// The retention bound must leave room for every solo job that can be
	// live at once (queued + running), or fresh jobs would starve pruning
	// and a just-issued job id could 404 while its client polls.
	maxJobs = max(maxJobs, slots+queueDepth+1)
	ctx, cancel := context.WithCancel(context.Background())
	return &JobEngine{
		jobs:       make(map[string]*job),
		active:     make(map[string]*job),
		slots:      slots,
		queueDepth: queueDepth,
		maxJobs:    maxJobs,
		metrics:    m,
		obs:        o,
		baseCtx:    ctx,
		baseCancel: cancel,
	}
}

// SubmitFunc enqueues a job whose work is the given closure — solo
// placements (via Server.runShared) and auto-maintain both submit this
// way. spec documents the job for listings; key drives in-flight
// submission dedup: an identical request already queued or running —
// same cache key — is not duplicated, the existing job is returned, so
// client retries and concurrent identical queries share one computation.
// meta attributes the job to the submitting request (zero value for
// direct library use).
func (e *JobEngine) SubmitFunc(graphID string, spec PlaceSpec, key string, meta JobMeta, fn func(context.Context) (*PlaceResult, error)) (JobInfo, error) {
	return e.enqueue(&job{graphID: graphID, spec: spec, key: key, meta: meta, runFn: fn})
}

// SubmitBatch enqueues a gang job: one record whose closure runs a whole
// multi-graph placement and whose per-graph progress is tracked in bs
// (surfaced as JobInfo.Batch). key dedups identical in-flight gangs; the
// closure populates per-graph cache entries itself, so the job-level
// result stays nil.
func (e *JobEngine) SubmitBatch(graphID string, spec PlaceSpec, key string, meta JobMeta, bs *batchState, fn func(context.Context) (*PlaceResult, error)) (JobInfo, error) {
	return e.enqueue(&job{graphID: graphID, spec: spec, key: key, meta: meta, batch: bs, runFn: fn})
}

// event builds the skeleton lifecycle event for the job; every field it
// reads is immutable after construction.
func (j *job) event(typ string) JobEvent {
	return JobEvent{
		Type:        typ,
		JobID:       j.id,
		GraphID:     j.graphID,
		Algorithm:   j.spec.Algorithm,
		Tenant:      j.meta.Tenant,
		RequestID:   j.meta.RequestID,
		Traceparent: j.meta.Traceparent,
	}
}

// publish forwards a lifecycle event to the server's event bus; a nil
// engineObs (direct library use) drops it. Safe under e.mu: the bus has
// its own lock and never calls back into the engine.
func (e *JobEngine) publish(ev JobEvent) {
	if e.obs != nil {
		e.obs.events.publish(ev)
	}
}

// tenant resolves the accounting sink for a tenant name; nil (a no-op)
// without an engineObs or when accounting is disabled.
func (e *JobEngine) tenant(name string) *obs.TenantCounters {
	if e.obs == nil {
		return nil
	}
	return e.obs.acct.Tenant(name)
}

// enqueue assigns the job id and runs the shared admission bookkeeping:
// closed check, in-flight dedup by cache key, and the one admission rule —
// a solo job is refused once queueDepth jobs are pending, a gang once
// 2×queueDepth are.
func (e *JobEngine) enqueue(j *job) (JobInfo, error) {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return JobInfo{}, ErrClosed
	}
	if dup, ok := e.active[j.key]; ok {
		info := e.infoLocked(dup)
		e.mu.Unlock()
		e.metrics.JobsDeduped.Add(1)
		return info, nil
	}
	limit := e.queueDepth
	if j.batch != nil {
		limit *= 2
	}
	if len(e.pending) >= limit {
		e.mu.Unlock()
		e.metrics.JobsRejected.Add(1)
		return JobInfo{}, ErrQueueFull
	}
	e.nextID++
	j.id = fmt.Sprintf("j%d", e.nextID)
	j.state = JobQueued
	j.trace = obs.NewTrace() // t0 = submission; stage offsets are relative to it
	j.trace.SetTraceParent(j.meta.Traceparent)
	j.created = j.trace.Start().UTC() // the epoch a retired job's timeline merges against
	j.done = make(chan struct{})
	e.jobs[j.id] = j
	e.order = append(e.order, j.id)
	e.active[j.key] = j
	e.pending = append(e.pending, j)
	info := e.infoLocked(j)
	// Published under the lock and before startLocked, so "started" can
	// never precede "submitted"; the bus never blocks or re-enters.
	e.publish(j.event(EventSubmitted))
	e.startLocked()
	e.mu.Unlock()
	e.tenant(j.meta.Tenant).AddJobSubmitted()
	e.metrics.JobsSubmitted.Add(1)
	if j.batch != nil {
		e.metrics.BatchesSubmitted.Add(1)
	}
	return info, nil
}

// startLocked starts queued jobs, oldest first, while a run slot is free.
// enqueue calls it after every admission and a finishing job after
// releasing its slot. A closed engine starts nothing: Close has already
// canceled the queue.
func (e *JobEngine) startLocked() {
	for !e.closed && e.running < e.slots && len(e.pending) > 0 {
		j := e.pending[0]
		e.pending[0] = nil
		e.pending = e.pending[1:]
		ctx, cancel := context.WithCancel(e.baseCtx)
		j.state = JobRunning
		j.started = time.Now().UTC()
		j.cancel = cancel
		j.trace.Observe("queued", j.created, j.started.Sub(j.created))
		if e.obs != nil {
			if e.obs.queueWait != nil {
				e.obs.queueWait.Observe(j.started.Sub(j.created))
			}
			// Core placement stages recorded between here and SetSink(nil)
			// in run also feed the fpd_place_stage_seconds histograms, and
			// each first-seen stage name becomes one live "stage" event.
			j.trace.SetSink(e.obs.stageSink)
			j.trace.SetStageObserver(func(name string) {
				ev := j.event(EventStage)
				ev.Stage = name
				e.publish(ev)
			})
		}
		e.publish(j.event(EventStarted))
		e.running++
		e.wg.Add(1)
		go e.run(ctx, j)
	}
}

// QueueDepth returns the number of jobs waiting for a run slot; surfaced
// in /metrics so auto-maintain backlog is observable.
func (e *JobEngine) QueueDepth() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return len(e.pending)
}

// run executes one started job, records its terminal state, and hands its
// slot to the next queued job.
func (e *JobEngine) run(ctx context.Context, j *job) {
	defer e.wg.Done()
	e.tenant(j.meta.Tenant).AddQueueWait(j.started.Sub(j.created))
	e.metrics.JobsRunning.Add(1)
	res, err := e.call(obs.NewContext(ctx, j.trace), j)
	e.metrics.JobsRunning.Add(-1)
	j.cancel()

	e.mu.Lock()
	j.finished = time.Now().UTC()
	j.trace.SetSink(nil)
	j.trace.SetStageObserver(nil)
	elapsed := j.finished.Sub(j.started)
	j.trace.Observe("run", j.started, elapsed)
	if e.obs != nil && e.obs.runTime != nil {
		e.obs.runTime.Observe(elapsed)
	}
	switch {
	case err == nil:
		j.state = JobDone
		j.result = res
		// Caching is the closure's business: solo placements fill their
		// per-graph slot inside runShared (where in-flight dedup lives),
		// batch closures fill per-graph slots as sub-placements complete,
		// and auto-maintain keys are write-only version stamps nothing
		// reads back.
		e.metrics.JobsCompleted.Add(1)
	case errors.Is(err, context.Canceled):
		j.state = JobCanceled
		e.metrics.JobsCanceled.Add(1)
	default:
		j.state = JobFailed
		j.errMsg = err.Error()
		e.metrics.JobsFailed.Add(1)
	}
	e.retireLocked(j)
	e.doneTimes[e.doneIdx] = j.finished
	e.doneIdx = (e.doneIdx + 1) % completionRingSize
	if e.doneN < completionRingSize {
		e.doneN++
	}
	terminal := j.event(terminalEvent(j.state))
	terminal.Error = j.errMsg
	e.publish(terminal)
	state, errMsg, timeline := j.state, j.errMsg, j.timeline
	e.running--
	e.startLocked()
	e.mu.Unlock()
	tc := e.tenant(j.meta.Tenant)
	tc.AddRunTime(elapsed)
	tc.AddJobOutcome(string(state))
	e.logJobDone(j, state, errMsg, elapsed, timeline)
	close(j.done)
}

// errInternal is what a job whose work panicked fails with; the panic
// value and stack go to the log, never to clients.
var errInternal = errors.New("internal error")

// call runs the job's work, turning a panic into errInternal so a faulty
// placement fails its own job, frees its run slot and counts as
// jobs_failed instead of killing fpd.
func (e *JobEngine) call(ctx context.Context, j *job) (res *PlaceResult, err error) {
	defer func() {
		if p := recover(); p != nil {
			if e.obs != nil && e.obs.logger != nil {
				e.obs.logger.Error("job panicked", "job", j.id, "graph", j.graphID,
					"request_id", j.meta.RequestID, "panic", p, "stack", string(debug.Stack()))
			}
			res, err = nil, errInternal
		}
	}()
	return j.runFn(ctx)
}

// terminalEvent maps a terminal job state to its event type.
func terminalEvent(st JobState) string {
	switch st {
	case JobDone:
		return EventFinished
	case JobFailed:
		return EventFailed
	default:
		return EventCanceled
	}
}

// completionRingSize bounds the Retry-After drain-rate sample window.
const completionRingSize = 32

// RetryAfterEstimate prices the Retry-After hint attached to 503 queue
// rejections: the average interval between recent job completions times
// the work currently ahead of a new arrival, clamped to [1s, 60s]. With
// fewer than two completions observed there is no rate yet; a flat 2s
// keeps clients polling rather than stampeding.
func (e *JobEngine) RetryAfterEstimate() time.Duration {
	e.mu.Lock()
	pending := len(e.pending)
	n := e.doneN
	var oldest, newest time.Time
	if n >= 2 {
		newest = e.doneTimes[(e.doneIdx-1+completionRingSize)%completionRingSize]
		if n < completionRingSize {
			oldest = e.doneTimes[0]
		} else {
			oldest = e.doneTimes[e.doneIdx]
		}
	}
	e.mu.Unlock()

	est := 2 * time.Second
	if n >= 2 {
		if avg := newest.Sub(oldest) / time.Duration(n-1); avg > 0 {
			est = avg * time.Duration(pending+1)
		}
	}
	if est < time.Second {
		est = time.Second
	}
	if est > time.Minute {
		est = time.Minute
	}
	return est
}

// Closed reports whether the engine has been shut down (the /readyz
// check: a closed engine can accept no more work).
func (e *JobEngine) Closed() bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.closed
}

// logJobDone emits the job's terminal log line, plus the slow-placement
// warning (with the frozen stage timeline) when the run exceeded the
// configured threshold.
func (e *JobEngine) logJobDone(j *job, state JobState, errMsg string, elapsed time.Duration, timeline []obs.StageRecord) {
	o := e.obs
	if o == nil || o.logger == nil {
		return
	}
	attrs := []any{
		"job", j.id,
		"graph", j.graphID,
		"algorithm", j.spec.Algorithm,
		"state", string(state),
		"elapsed", elapsed.Round(time.Microsecond),
	}
	if j.meta.Tenant != "" {
		attrs = append(attrs, "tenant", j.meta.Tenant)
	}
	if j.meta.RequestID != "" {
		attrs = append(attrs, "request_id", j.meta.RequestID)
	}
	if j.meta.Traceparent != "" {
		attrs = append(attrs, "traceparent", j.meta.Traceparent)
	}
	if errMsg != "" {
		attrs = append(attrs, "error", errMsg)
	}
	o.logger.Info("job finished", attrs...)
	if o.slowThreshold > 0 && elapsed > o.slowThreshold {
		o.logger.Warn("slow placement",
			"job", j.id,
			"graph", j.graphID,
			"algorithm", j.spec.Algorithm,
			"elapsed", elapsed.Round(time.Microsecond),
			"threshold", o.slowThreshold,
			"timeline", timeline)
	}
}

// Get returns a snapshot of job id.
func (e *JobEngine) Get(id string) (JobInfo, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	j, ok := e.jobs[id]
	if !ok {
		return JobInfo{}, false
	}
	return e.infoLocked(j), true
}

// ObserveStage stamps a pre-measured span onto job id's timeline. The
// PATCH handler uses it to attach the synchronous plan rebuild to the
// auto-maintain job it enqueued — the handler holds no live trace of its
// own, and the span predates the job's t0 (the offset is clamped). The
// job may already be done, so a frozen timeline merges the span by name
// just as the live trace would.
func (e *JobEngine) ObserveStage(id, name string, start time.Time, d time.Duration) {
	e.mu.Lock()
	defer e.mu.Unlock()
	j, ok := e.jobs[id]
	if !ok {
		return
	}
	if j.trace != nil {
		j.trace.Observe(name, start, d)
		return
	}
	j.timeline = obs.MergeStage(j.timeline, j.created, name, start, d)
}

// Cancel requests cancellation of job id: a queued job leaves the queue
// and is canceled immediately, a running job has its context canceled
// (run records the terminal state), and a terminal job is left untouched.
func (e *JobEngine) Cancel(id string) (JobInfo, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	j, ok := e.jobs[id]
	if !ok {
		return JobInfo{}, false
	}
	switch j.state {
	case JobQueued:
		e.pending = slices.DeleteFunc(e.pending, func(q *job) bool { return q == j })
		e.cancelQueuedLocked(j)
	case JobRunning:
		j.cancel()
	}
	return e.infoLocked(j), true
}

// cancelQueuedLocked terminates a job that never started; the caller has
// already taken it out of the queue.
func (e *JobEngine) cancelQueuedLocked(j *job) {
	j.state = JobCanceled
	j.finished = time.Now().UTC()
	j.trace.Observe("queued", j.created, j.finished.Sub(j.created))
	if j.batch != nil {
		j.batch.cancelPending()
	}
	e.retireLocked(j)
	e.publish(j.event(EventCanceled))
	e.tenant(j.meta.Tenant).AddJobOutcome(string(JobCanceled))
	e.metrics.JobsCanceled.Add(1)
	close(j.done)
}

// retireLocked releases a terminal job's heavyweight references (the
// closure captures the model, which can be large and may already be
// evicted from the registry; the live trace and the run context are no
// longer needed once the timeline is frozen) and prunes the oldest
// terminal job records beyond the retention bound. The job being retired
// is never pruned in the same step, so the client that just submitted it
// always gets at least one successful poll.
func (e *JobEngine) retireLocked(j *job) {
	j.runFn = nil
	j.timeline = j.trace.Snapshot()
	j.trace, j.cancel = nil, nil
	if e.active[j.key] == j {
		delete(e.active, j.key)
	}
	if len(e.jobs) <= e.maxJobs {
		return
	}
	kept := e.order[:0]
	excess := len(e.jobs) - e.maxJobs
	for _, id := range e.order {
		if old := e.jobs[id]; excess > 0 && old != j && old.state.Terminal() {
			delete(e.jobs, id)
			excess--
			continue
		}
		kept = append(kept, id)
	}
	e.order = kept
}

// Wait blocks until job id reaches a terminal state or ctx expires.
func (e *JobEngine) Wait(ctx context.Context, id string) (JobInfo, error) {
	e.mu.Lock()
	j, ok := e.jobs[id]
	e.mu.Unlock()
	if !ok {
		return JobInfo{}, fmt.Errorf("server: unknown job %q", id)
	}
	select {
	case <-j.done:
	case <-ctx.Done():
		return JobInfo{}, ctx.Err()
	}
	// Read the retained job pointer rather than the map: the record may
	// have been pruned by a later retirement, but the terminal state is
	// immutable.
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.infoLocked(j), nil
}

// List returns every job in submission order.
func (e *JobEngine) List() []JobInfo {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]JobInfo, 0, len(e.order))
	for _, id := range e.order {
		out = append(out, e.infoLocked(e.jobs[id]))
	}
	return out
}

// Close cancels every queued job without running it, cancels the running
// ones and waits for them to finish.
func (e *JobEngine) Close() {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return
	}
	e.closed = true
	for _, j := range e.pending {
		e.cancelQueuedLocked(j)
	}
	e.pending = nil
	e.mu.Unlock()
	e.baseCancel()
	e.wg.Wait()
}

func (e *JobEngine) infoLocked(j *job) JobInfo {
	info := JobInfo{
		ID:          j.id,
		GraphID:     j.graphID,
		Spec:        j.spec,
		State:       j.state,
		Error:       j.errMsg,
		Result:      j.result,
		Tenant:      j.meta.Tenant,
		RequestID:   j.meta.RequestID,
		Traceparent: j.meta.Traceparent,
		Created:     j.created,
	}
	if j.batch != nil {
		// batchState has its own mutex and never acquires the engine's,
		// so snapshotting under the engine lock cannot deadlock.
		info.Batch = j.batch.snapshot()
	}
	if j.trace != nil {
		// Trace has its own mutex and never acquires the engine's.
		info.Timeline = j.trace.Snapshot()
	} else {
		info.Timeline = j.timeline
	}
	if !j.started.IsZero() {
		t := j.started
		info.Started = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		info.Finished = &t
		if !j.started.IsZero() {
			info.ElapsedMS = j.finished.Sub(j.started).Milliseconds()
		}
	}
	return info
}
