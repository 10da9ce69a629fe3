package server

import (
	"context"
	"math"
	"sync"
	"testing"

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
		// The model's first engine of this kind fills the cache.
		if _, err := flow.NewEngine(engine, m); err != nil {
			t.Fatal(err)
		}
		ev, err := flow.NewEngine(engine, m)
		if err != nil {
			t.Fatal(err)
		}
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
