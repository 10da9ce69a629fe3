package core

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/flow"
)

// TestWithSourcesPlacementsMatchFreshModel: a source override built with
// Model.WithSources reuses the base model's plan and places exactly as a
// model built from scratch over the same graph and sources, for every
// strategy.
func TestWithSourcesPlacementsMatchFreshModel(t *testing.T) {
	g := placeTestModel(t, 60, 0.08, 11).Graph()
	var roots []int
	for v := 0; v < g.N(); v++ {
		if g.InDegree(v) == 0 {
			roots = append(roots, v)
		}
	}
	if len(roots) < 2 {
		t.Fatalf("test graph has roots %v; the override needs two", roots)
	}
	sources := roots[:2]
	base := flow.MustModel(g, sources[:1])
	flow.NewFloat(base) // warm the base model's caches first
	over, err := base.WithSources(sources)
	if err != nil {
		t.Fatal(err)
	}
	if over.Plan() != base.Plan() {
		t.Fatal("override built its own plan")
	}
	fresh := flow.MustModel(g, sources)
	for _, s := range Strategies() {
		opts := Options{Strategy: s, Seed: 3}
		got, err := Place(context.Background(), flow.NewFloat(over), 4, opts)
		if err != nil {
			t.Fatalf("%s on override: %v", s, err)
		}
		want, err := Place(context.Background(), flow.NewFloat(fresh), 4, opts)
		if err != nil {
			t.Fatalf("%s on fresh model: %v", s, err)
		}
		if !reflect.DeepEqual(got.Filters, want.Filters) || got.Stats != want.Stats {
			t.Errorf("%s: override placed %v %+v, fresh model %v %+v", s, got.Filters, got.Stats, want.Filters, want.Stats)
		}
	}
}
