package server

import (
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dyn"
	"repro/internal/flow"
	"repro/internal/gen"
)

// TestRequestPassBudget: once a model's invariants are cached, building a
// request's engine runs no pass, the report of Φ(∅), Φ(A), F and FR costs
// one forward pass, and a sync gmax reports one forward and one suffix
// pass for its placement — two forward and one suffix per request in
// all, on either engine.
func TestRequestPassBudget(t *testing.T) {
	g, src := gen.TwitterLike(0.02, 3)
	m := flow.MustModel(g, []int{src})
	passes := func(ev flow.Evaluator) [2]int64 {
		f, s := ev.(flow.PassCounter).Passes()
		return [2]int64{f, s}
	}
	for _, engine := range []string{"float", "big"} {
		sp := &PlaceSpec{Algorithm: "gmax", K: 3, Engine: engine}
		sp.newEvaluator(m) // the model's first engine of this kind fills the cache
		ev := sp.newEvaluator(m)
		if got := passes(ev); got != [2]int64{0, 0} {
			t.Errorf("%s: engine build ran %v passes, want none", engine, got)
		}
		var res PlaceResult
		res.setObjective(ev, []int{1, 2})
		if got := passes(ev); got != [2]int64{1, 0} {
			t.Errorf("%s: objective report ran %v passes, want [1 0]", engine, got)
		}
		releaseScratch(ev)

		out, err := sp.execute(context.Background(), m, "g", nil)
		if err != nil {
			t.Fatal(err)
		}
		if out.Passes == nil || *out.Passes != (core.PassStats{Forward: 1, Suffix: 1}) {
			t.Errorf("%s: gmax passes %+v, want forward 1 suffix 1", engine, out.Passes)
		}
		if out.PhiEmpty != res.PhiEmpty {
			t.Errorf("%s: gmax Φ(∅) %v, evaluate %v", engine, out.PhiEmpty, res.PhiEmpty)
		}
	}
}

// TestObserveStageAfterDone: PATCH may stamp its plan-rebuild span onto an
// auto-maintain job that has already finished. The span must still merge
// into the retired job's frozen timeline by name and show in
// GET /v1/jobs/{id}, without disturbing snapshots handed out earlier.
func TestObserveStageAfterDone(t *testing.T) {
	s := New(Config{})
	defer s.Close()
	info, err := s.jobs.Submit("g1", PlaceSpec{Algorithm: "maintain", K: 1}, "k", JobMeta{}, nil, okFn)
	if err != nil {
		t.Fatal(err)
	}
	done := waitState(t, s.jobs, info.ID, JobDone)
	if _, ok := timelineStages(done)["run"]; !ok {
		t.Fatalf("done job timeline lacks the run stage: %+v", done.Timeline)
	}

	getJob := func() JobInfo {
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/jobs/"+info.ID, nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("GET job: status %d", rec.Code)
		}
		var got JobInfo
		if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil {
			t.Fatal(err)
		}
		return got
	}
	start := time.Now().Add(-time.Hour) // predates the job: offset clamps to 0
	s.jobs.ObserveStage(info.ID, "plan-rebuild", start, 2*time.Millisecond)
	first := getJob()
	rebuild, ok := timelineStages(first)["plan-rebuild"]
	if !ok || rebuild.Count != 1 || rebuild.DurationMS != 2 || rebuild.StartMS != 0 {
		t.Fatalf("plan-rebuild after done: %+v (present %v)", rebuild, ok)
	}
	if len(first.Timeline) != len(done.Timeline)+1 {
		t.Errorf("timeline grew from %d to %d stages, want one more", len(done.Timeline), len(first.Timeline))
	}

	held, _ := s.jobs.Get(info.ID)
	s.jobs.ObserveStage(info.ID, "plan-rebuild", start, 3*time.Millisecond)
	if rebuild := timelineStages(getJob())["plan-rebuild"]; rebuild.Count != 2 || rebuild.DurationMS != 5 {
		t.Errorf("second plan-rebuild did not merge by name: %+v", rebuild)
	}
	if rebuild := timelineStages(held)["plan-rebuild"]; rebuild.Count != 1 {
		t.Errorf("an earlier snapshot changed under a later merge: %+v", rebuild)
	}
}

// TestPatchModelShared: PATCH installs the overlay's model of the new
// version (Dynamic.Model) as the registry's, with and without a
// maintainer, and that model reads exactly the Φ(∅,V) and F(V) of a fresh
// model over the overlay's snapshot. With a maintainer, its Apply has
// already filled the model's invariant cache, so the next engine on it
// runs no pass. The PATCH's GraphInfo counts the snapshot's nodes, edges
// and sinks. Readers evaluate the served model throughout the PATCH
// stream; under -race they race the shared model against PATCH and
// maintain.
func TestPatchModelShared(t *testing.T) {
	g, src := gen.TwitterLike(0.02, 5)
	r := NewRegistry(2, nil)
	info := r.Add("tw", flow.MustModel(g, []int{src}))
	maintain := func() {
		mt, unlock, err := r.Maintainer(info.ID, 3, 1)
		if err != nil {
			t.Fatal(err)
		}
		defer unlock()
		if _, err := mt.Maintain(context.Background()); err != nil {
			t.Fatal(err)
		}
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	defer func() {
		close(stop)
		wg.Wait()
	}()
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				m, _, _ := r.Get(info.ID)
				ev := flow.NewFloat(m)
				flow.Evaluate(ev, flow.MaskOf(m.N(), []int{1, 2}))
				ev.ReleaseScratch()
			}
		}()
	}

	// The first half of the stream patches a graph with no maintainer; the
	// second half routes every batch through one.
	const unmaintained = 4
	for i, mu := range gen.TwitterChurn(g, 2*unmaintained, 0.01, 5) {
		if i == unmaintained {
			maintain()
		}
		got, _, err := r.Patch(info.ID, dyn.Batch{Add: mu.Add, Remove: mu.Remove})
		if err != nil {
			t.Fatal(err)
		}
		e, _ := r.entry(info.ID)
		e.dynMu.Lock()
		want, snap, sources := e.dynamic.Model(), e.dynamic.Snapshot(), e.dynamic.Sources()
		maintained := e.maintainer != nil
		e.dynMu.Unlock()
		if got.Nodes != snap.N() || got.Edges != snap.M() || got.Sinks != len(snap.Sinks()) {
			t.Errorf("batch %d: PATCH info nodes/edges/sinks %d/%d/%d, snapshot %d/%d/%d",
				i, got.Nodes, got.Edges, got.Sinks, snap.N(), snap.M(), len(snap.Sinks()))
		}
		m, _, _ := r.Get(info.ID)
		if m != want {
			t.Fatalf("batch %d (maintained %v): the registry serves a model other than the overlay's", i, maintained)
		}
		ev := flow.NewFloat(m)
		if f, s := ev.Passes(); maintained && (f != 0 || s != 0) {
			t.Errorf("batch %d: NewFloat on the served model ran [%d %d] passes, want none", i, f, s)
		}
		fresh := flow.NewFloat(flow.MustModel(snap, sources))
		if math.Float64bits(ev.Phi(nil)) != math.Float64bits(fresh.Phi(nil)) ||
			math.Float64bits(ev.MaxF()) != math.Float64bits(fresh.MaxF()) {
			t.Errorf("batch %d: served Φ(∅)/F(V) %v/%v, fresh model %v/%v",
				i, ev.Phi(nil), ev.MaxF(), fresh.Phi(nil), fresh.MaxF())
		}
		if maintained {
			maintain()
		}
	}
}
