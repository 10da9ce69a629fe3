package obs

import (
	"context"
	"sync"
	"time"
)

// StageRecord is one entry of a job timeline: a named stage with its
// offset from job submission, accumulated duration, and optional work
// counters. Stages with the same name merge — Count tells how many spans
// the entry aggregates (e.g. one record "greedy-round" with Count 50 for
// a k=50 placement), StartMS keeps the earliest occurrence.
type StageRecord struct {
	Name       string  `json:"name"`
	StartMS    float64 `json:"start_ms"`
	DurationMS float64 `json:"duration_ms"`
	Count      int64   `json:"count,omitempty"`
	// Evals accumulates oracle (marginal-gain) evaluations spent in the
	// stage; Workers is the largest parallelism any merged span used.
	Evals   int64 `json:"evals,omitempty"`
	Workers int   `json:"workers,omitempty"`
}

// maxTraceStages bounds distinct stage names per trace so a misbehaving
// caller cannot grow a job record without bound; excess distinct names
// are counted in the "(dropped)" record. Merged spans never hit the cap.
const maxTraceStages = 64

// Trace is a per-job stage recorder. It is safe for concurrent use — a
// gang job's sub-placements record into the shared trace from many
// scheduler workers — and cheap when absent: every method is nil-safe,
// and a nil trace never reads the clock.
type Trace struct {
	mu     sync.Mutex
	t0     time.Time
	byName map[string]int
	stages []StageRecord
	// sink, when set, additionally observes every span's duration into a
	// histogram family keyed by stage name — the fpd_place_stage_seconds
	// exposition path.
	sink *HistogramVec
	// onStage, when set, fires once per distinct stage name, on first
	// occurrence only — the SSE live-event path, which wants "the job
	// entered stage X", not one event per merged span of a 50-round
	// placement.
	onStage func(name string)
}

// SetStageObserver installs fn to be called the first time each distinct
// stage name is recorded. fn runs outside the trace lock and must be
// safe for concurrent use.
func (t *Trace) SetStageObserver(fn func(name string)) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.onStage = fn
	t.mu.Unlock()
}

// NewTrace starts a trace; stage offsets are relative to this call.
func NewTrace() *Trace {
	return &Trace{t0: time.Now(), byName: make(map[string]int)}
}

// SetSink routes a copy of every recorded span duration into the given
// histogram family (keyed by stage name) in addition to the timeline.
func (t *Trace) SetSink(v *HistogramVec) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.sink = v
	t.mu.Unlock()
}

// Span is an open stage created by Begin. Spans are values: keep them on
// the stack, set counters, and call End exactly once. The zero Span (from
// a nil trace) is a no-op.
type Span struct {
	t       *Trace
	name    string
	start   time.Time
	evals   int64
	workers int
}

// Begin opens a stage span. On a nil trace it returns a no-op span
// without touching the clock.
func (t *Trace) Begin(name string) Span {
	if t == nil {
		return Span{}
	}
	return Span{t: t, name: name, start: time.Now()}
}

// AddEvals accumulates oracle evaluations attributed to the span.
func (s *Span) AddEvals(n int64) {
	if s.t != nil {
		s.evals += n
	}
}

// SetWorkers records the parallelism the span's work used.
func (s *Span) SetWorkers(n int) {
	if s.t != nil {
		s.workers = n
	}
}

// End closes the span, merging it into the trace.
func (s *Span) End() {
	if s.t == nil {
		return
	}
	s.t.record(s.name, s.start, time.Since(s.start), s.evals, s.workers)
	s.t = nil
}

// Observe records a complete stage directly — for callers that already
// hold a measured duration (e.g. the engine-level queue-wait stages).
func (t *Trace) Observe(name string, start time.Time, d time.Duration) {
	if t == nil {
		return
	}
	t.record(name, start, d, 0, 0)
}

func (t *Trace) record(name string, start time.Time, d time.Duration, evals int64, workers int) {
	t.mu.Lock()
	i, ok := t.byName[name]
	if !ok && len(t.stages) >= maxTraceStages {
		name = "(dropped)"
		i, ok = t.byName[name]
	}
	var first func(name string)
	if ok {
		r := &t.stages[i]
		r.DurationMS += float64(d) / float64(time.Millisecond)
		r.Count++
		r.Evals += evals
		r.Workers = max(r.Workers, workers)
	} else {
		// Callers may pass timestamps taken just before the trace existed
		// (a job's created stamp predates its NewTrace by nanoseconds);
		// clamp so offsets never go negative.
		offset := max(start.Sub(t.t0), 0)
		t.byName[name] = len(t.stages)
		t.stages = append(t.stages, StageRecord{
			Name:       name,
			StartMS:    float64(offset) / float64(time.Millisecond),
			DurationMS: float64(d) / float64(time.Millisecond),
			Count:      1,
			Evals:      evals,
			Workers:    workers,
		})
		first = t.onStage
	}
	t.mu.Unlock()
	if first != nil {
		first(name)
	}
	t.sinkObserve(name, d)
}

// sinkObserve forwards one span duration to the sink, outside the trace
// lock (the histogram is lock-free anyway).
func (t *Trace) sinkObserve(stage string, d time.Duration) {
	t.mu.Lock()
	v := t.sink
	t.mu.Unlock()
	if v != nil {
		v.With(stage).Observe(d)
	}
}

// Start returns the trace epoch (zero time on a nil trace).
func (t *Trace) Start() time.Time {
	if t == nil {
		return time.Time{}
	}
	return t.t0
}

// Snapshot copies the recorded stages in first-seen order.
func (t *Trace) Snapshot() []StageRecord {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]StageRecord, len(t.stages))
	copy(out, t.stages)
	return out
}

// traceKey is the context key TraceFrom looks under.
type traceKey struct{}

// NewContext attaches a trace to a context; the job engine uses it to
// hand each job's trace to the placement closure without widening any
// signatures.
func NewContext(ctx context.Context, t *Trace) context.Context {
	return context.WithValue(ctx, traceKey{}, t)
}

// TraceFrom extracts the context's trace, or nil.
func TraceFrom(ctx context.Context) *Trace {
	t, _ := ctx.Value(traceKey{}).(*Trace)
	return t
}
