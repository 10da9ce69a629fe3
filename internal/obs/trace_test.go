package obs

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"
)

func TestTraceMergesStagesByName(t *testing.T) {
	tr := NewTrace()
	for i := 0; i < 5; i++ {
		sp := tr.Begin("round")
		sp.AddEvals(10)
		sp.SetWorkers(i + 1)
		sp.End()
	}
	sp := tr.Begin("init")
	sp.End()

	snap := tr.Snapshot()
	if len(snap) != 2 {
		t.Fatalf("got %d stages, want 2: %+v", len(snap), snap)
	}
	round := snap[0]
	if round.Name != "round" || round.Count != 5 || round.Evals != 50 || round.Workers != 5 {
		t.Errorf("round record wrong: %+v", round)
	}
	if snap[1].Name != "init" || snap[1].Count != 1 {
		t.Errorf("init record wrong: %+v", snap[1])
	}
}

func TestTraceNilSafety(t *testing.T) {
	var tr *Trace
	sp := tr.Begin("x")
	sp.AddEvals(1)
	sp.SetWorkers(2)
	sp.End()
	tr.Observe("y", time.Now(), time.Second)
	tr.SetSink(NewHistogramVec("stage", nil))
	if got := tr.Snapshot(); got != nil {
		t.Errorf("nil trace snapshot = %v, want nil", got)
	}
	if !tr.Start().IsZero() {
		t.Error("nil trace Start should be zero")
	}
}

func TestTraceSinkObservesStages(t *testing.T) {
	vec := NewHistogramVec("stage", nil)
	tr := NewTrace()
	tr.SetSink(vec)
	for i := 0; i < 3; i++ {
		sp := tr.Begin("pass")
		sp.End()
	}
	if got := vec.With("pass").Snapshot().Count; got != 3 {
		t.Errorf("sink count = %d, want 3", got)
	}
}

func TestTraceConcurrent(t *testing.T) {
	tr := NewTrace()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				sp := tr.Begin(fmt.Sprintf("stage-%d", g%4))
				sp.AddEvals(1)
				sp.End()
			}
		}(g)
	}
	wg.Wait()
	var total int64
	for _, r := range tr.Snapshot() {
		total += r.Count
	}
	if total != 8*500 {
		t.Errorf("total span count = %d, want %d", total, 8*500)
	}
}

// TestTraceStageCap: distinct names beyond the cap collapse into one
// "(dropped)" record instead of growing without bound.
func TestTraceStageCap(t *testing.T) {
	tr := NewTrace()
	for i := 0; i < maxTraceStages+10; i++ {
		sp := tr.Begin(fmt.Sprintf("s%d", i))
		sp.End()
	}
	snap := tr.Snapshot()
	if len(snap) > maxTraceStages+1 {
		t.Fatalf("trace grew to %d records, cap is %d+1", len(snap), maxTraceStages)
	}
	last := snap[len(snap)-1]
	if last.Name != "(dropped)" || last.Count != 10 {
		t.Errorf("dropped record = %+v, want name (dropped) count 10", last)
	}
}

func TestTraceContextRoundTrip(t *testing.T) {
	tr := NewTrace()
	ctx := NewContext(context.Background(), tr)
	if got := TraceFrom(ctx); got != tr {
		t.Error("TraceFrom did not return the attached trace")
	}
	if got := TraceFrom(context.Background()); got != nil {
		t.Errorf("TraceFrom(empty) = %v, want nil", got)
	}
}
