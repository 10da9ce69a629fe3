package flow_test

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/flow"
	"repro/internal/gen"
	"repro/internal/graph"
)

// TestPlanBuiltModelNeverWidens: the exact path reads the plan alone. On a
// model stood up over a plan (a PATCHed version), Coarsen, the big engine
// and greedy-all, celf and ml-celf on both engines — each of which
// coarsens this chain graph first — leave its digraph unbuilt, and the
// quotient's too, and return exactly what they return on the twin built
// from the digraph.
func TestPlanBuiltModelNeverWidens(t *testing.T) {
	// Relabel so plan positions and node ids differ.
	cg, csrc := gen.ChainDAG(3000, 8, 1)
	perm := rand.New(rand.NewSource(5)).Perm(cg.N())
	b := graph.NewBuilder(cg.N())
	for u := 0; u < cg.N(); u++ {
		for _, v := range cg.Out(u) {
			b.AddEdge(perm[u], perm[v])
		}
	}
	twin := flow.MustModel(b.MustBuild(), []int{perm[csrc]})
	m, err := flow.NewModelFromPlan(twin.Plan(), twin.Sources())
	if err != nil {
		t.Fatal(err)
	}
	unbuilt := func(what string, ms ...*flow.Model) {
		t.Helper()
		for _, mm := range ms {
			if flow.GraphBuilt(mm) {
				t.Fatalf("%s widened a plan-built model", what)
			}
		}
	}

	qm, cm, st, err := flow.Coarsen(m, flow.CoarsenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	unbuilt("Coarsen", m, qm)
	qt, ct, stt, err := flow.Coarsen(twin, flow.CoarsenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if st != stt || cm.QN() != ct.QN() || st.NodesAfter >= st.NodesBefore {
		t.Fatalf("CoarsenStats %+v, twin %+v", st, stt)
	}
	for q := 0; q < cm.QN(); q++ {
		if cm.Head(q) != ct.Head(q) || qm.NodeWeight(q) != qt.NodeWeight(q) {
			t.Fatalf("q%d: head %d weight %d, twin %d %d", q, cm.Head(q), qm.NodeWeight(q), ct.Head(q), qt.NodeWeight(q))
		}
	}
	if got, want := flow.NewBig(qm).PhiBig(nil), flow.NewBig(qt).PhiBig(nil); got.Cmp(want) != 0 {
		t.Fatalf("quotient Φ(∅) %v, twin %v", got, want)
	}

	be, bt := flow.NewBig(m), flow.NewBig(twin)
	filters := make([]bool, m.N())
	for v := 0; v < m.N(); v += 11 {
		filters[v] = !m.IsSource(v)
	}
	for _, fs := range [][]bool{nil, filters} {
		if got, want := be.PhiBig(fs), bt.PhiBig(fs); got.Cmp(want) != 0 {
			t.Fatalf("PhiBig %v, twin %v", got, want)
		}
		v, gain := be.ArgmaxImpactP(fs, fs, 2)
		tv, tgain := bt.ArgmaxImpactP(fs, fs, 2)
		if v != tv || gain != tgain {
			t.Fatalf("ArgmaxImpactP (%d, %v), twin (%d, %v)", v, gain, tv, tgain)
		}
	}
	unbuilt("the big engine", m)

	engines := map[string]func(*flow.Model) flow.Evaluator{
		"float": func(mm *flow.Model) flow.Evaluator { return flow.NewFloat(mm) },
		"big":   func(mm *flow.Model) flow.Evaluator { return flow.NewBig(mm) },
	}
	for name, mk := range engines {
		for _, strat := range []core.Strategy{core.StrategyGreedyAll, core.StrategyCELF, core.StrategyMLCELF} {
			opts := core.Options{Strategy: strat, Parallelism: 2}
			got, err := core.Place(context.Background(), mk(m), 5, opts)
			if err != nil {
				t.Fatal(err)
			}
			want, err := core.Place(context.Background(), mk(twin), 5, opts)
			if err != nil {
				t.Fatal(err)
			}
			if got.CoarsenStats == nil || *got.CoarsenStats != st || !reflect.DeepEqual(got.Filters, want.Filters) || got.Stats != want.Stats {
				t.Fatalf("%s %s: filters %v stats %+v coarsen %v, twin %v %+v", name, strat, got.Filters, got.Stats, got.CoarsenStats, want.Filters, want.Stats)
			}
			unbuilt(name+" "+string(strat), m)
		}
	}
}
