package core

import (
	"context"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/flow"
	"repro/internal/obs"
)

// TestAccountingEquivalence is the determinism gate of the tenant
// accounting layer: Place with Options.Account set must return filter
// sets AND OracleStats bit-identical to the unaccounted run — accounting
// observes placements, it never participates in them. Checked across
// strategies and parallelism levels, and the counters must end up charged
// with exactly the work the result reports.
func TestAccountingEquivalence(t *testing.T) {
	m := placeTestModel(t, 80, 0.05, 42)
	strategies := []Strategy{StrategyGreedyAll, StrategyCELF, StrategyNaive, StrategyGreedyMax}
	for _, strat := range strategies {
		for _, procs := range []int{1, runtime.GOMAXPROCS(0)} {
			base := Options{Strategy: strat, Parallelism: procs, Seed: 7}

			want, err := Place(context.Background(), flow.NewFloat(m), 6, base)
			if err != nil {
				t.Fatalf("%s P=%d unaccounted: %v", strat, procs, err)
			}

			acct := obs.NewAccountant(0)
			opts := base
			opts.Tenant = "acme"
			opts.Account = acct.Tenant("acme")
			got, err := Place(context.Background(), flow.NewFloat(m), 6, opts)
			if err != nil {
				t.Fatalf("%s P=%d accounted: %v", strat, procs, err)
			}

			if !reflect.DeepEqual(got.Filters, want.Filters) {
				t.Errorf("%s P=%d: accounted filters %v, unaccounted %v",
					strat, procs, got.Filters, want.Filters)
			}
			if got.Stats != want.Stats {
				t.Errorf("%s P=%d: accounted stats %+v, unaccounted %+v",
					strat, procs, got.Stats, want.Stats)
			}

			u := acct.Tenant("acme")
			if got := u.Value(obs.Placements); got != 1 {
				t.Errorf("%s P=%d: placements charged = %d, want 1", strat, procs, got)
			}
			if evals := u.Value(obs.OracleEvaluations); evals != int64(got.Stats.GainEvaluations) {
				t.Errorf("%s P=%d: oracle evals charged = %d, result reports %d",
					strat, procs, evals, int64(got.Stats.GainEvaluations))
			}
			if passes, wantPasses := u.Value(obs.ForwardPasses), got.Passes.Forward; passes != wantPasses {
				t.Errorf("%s P=%d: forward passes charged = %d, result reports %d",
					strat, procs, passes, wantPasses)
			}
		}
	}
}

// TestAccountingBatchEquivalence extends the gate to PlaceBatch: gang
// results with accounting on must match unaccounted solo runs, and the
// tenant is charged once per graph.
func TestAccountingBatchEquivalence(t *testing.T) {
	models := batchTestModels(t, 6)
	base := Options{Strategy: StrategyCELF, Parallelism: 2, Seed: 3}

	want := make([]Result, len(models))
	for i, m := range models {
		var err error
		want[i], err = Place(context.Background(), flow.NewFloat(m), 5, base)
		if err != nil {
			t.Fatalf("solo graph %d: %v", i, err)
		}
	}

	acct := obs.NewAccountant(0)
	opts := base
	opts.Tenant = "fleet"
	opts.Account = acct.Tenant("fleet")
	evs := make([]flow.Evaluator, len(models))
	for i, m := range models {
		evs[i] = flow.NewFloat(m)
	}
	got, err := PlaceBatch(context.Background(), evs, 5, opts)
	if err != nil {
		t.Fatalf("accounted batch: %v", err)
	}
	var totalEvals int64
	for i := range models {
		if !reflect.DeepEqual(got[i].Filters, want[i].Filters) {
			t.Errorf("graph %d: accounted batch filters %v, unaccounted solo %v",
				i, got[i].Filters, want[i].Filters)
		}
		if got[i].Stats != want[i].Stats {
			t.Errorf("graph %d: accounted batch stats %+v, unaccounted solo %+v",
				i, got[i].Stats, want[i].Stats)
		}
		totalEvals += int64(got[i].Stats.GainEvaluations)
	}
	u := acct.Tenant("fleet")
	if got := u.Value(obs.Placements); got != int64(len(models)) {
		t.Errorf("placements charged = %d, want %d", got, len(models))
	}
	if got := u.Value(obs.OracleEvaluations); got != totalEvals {
		t.Errorf("oracle evals charged = %d, results report %d", got, totalEvals)
	}
}

// TestAccountingNilIsNoop: a zero Options.Account must behave exactly as
// before the accounting layer existed.
func TestAccountingNilIsNoop(t *testing.T) {
	m := placeTestModel(t, 40, 0.08, 9)
	res, err := Place(context.Background(), flow.NewFloat(m), 3,
		Options{Strategy: StrategyGreedyAll, Tenant: "named-but-unaccounted"})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Filters) != 3 {
		t.Fatalf("got %d filters, want 3", len(res.Filters))
	}
}
