package flow

import (
	"math"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
)

// randomDAGModel builds a random single-source-ish DAG model for tests:
// edges only go from lower to higher ids, so it is always acyclic.
func randomDAGModel(t testing.TB, n int, p float64, seed int64) *Model {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	b := graph.NewBuilder(n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if rng.Float64() < p {
				b.AddEdge(u, v)
			}
		}
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewModel(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestCloneMatchesOriginal checks that clones of all engines agree exactly
// with their originals on every Evaluator query.
func TestCloneMatchesOriginal(t *testing.T) {
	m := randomDAGModel(t, 120, 0.06, 1)
	filters := make([]bool, m.N())
	for v := 0; v < m.N(); v += 7 {
		if !m.IsSource(v) {
			filters[v] = true
		}
	}
	engines := map[string]Cloner{
		"float": NewFloat(m),
		"big":   NewBig(m),
	}
	me, err := NewMulti(m.Graph(), []Item{{Name: "a", Source: m.Sources()[0], Rate: 2}})
	if err != nil {
		t.Fatal(err)
	}
	engines["multi"] = me
	for name, ev := range engines {
		c := ev.Clone()
		if c.Phi(filters) != ev.Phi(filters) {
			t.Errorf("%s: clone Phi %v != original %v", name, c.Phi(filters), ev.Phi(filters))
		}
		if c.MaxF() != ev.MaxF() {
			t.Errorf("%s: clone MaxF differs", name)
		}
		gv, gg := ev.ArgmaxImpact(filters, filters)
		cv, cg := c.ArgmaxImpact(filters, filters)
		if gv != cv || gg != cg {
			t.Errorf("%s: clone ArgmaxImpact (%d,%v) != original (%d,%v)", name, cv, cg, gv, gg)
		}
	}
}

// TestCloneConcurrentHammer drives many cloned evaluators concurrently
// (run under -race) and checks every goroutine sees bit-identical results.
func TestCloneConcurrentHammer(t *testing.T) {
	m := randomDAGModel(t, 200, 0.04, 2)
	root := NewFloat(m)
	// Build the level cache up front so clones share it, then reference
	// results from a serial run.
	wantV, wantG := root.ArgmaxImpactP(nil, nil, 2)
	wantPhi := root.Phi(nil)

	workers := 4 * runtime.GOMAXPROCS(0)
	var wg sync.WaitGroup
	errc := make(chan string, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ev := root.Clone()
			filters := make([]bool, m.N())
			for i := 0; i < 25; i++ {
				if phi := ev.Phi(nil); phi != wantPhi {
					errc <- "Phi diverged"
					return
				}
				v, g := ev.ArgmaxImpact(filters, filters)
				if v != wantV || g != wantG {
					errc <- "ArgmaxImpact diverged"
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errc)
	for msg := range errc {
		t.Fatal(msg)
	}
}

// wideModel is a twitter graph whose widest level is at least
// minParallelSpan, so level-parallel sweeps over it really shard.
func wideModel(t *testing.T) *Model {
	t.Helper()
	g, src := gen.TwitterLike(0.02, 1)
	m, err := NewModel(g, []int{src})
	if err != nil {
		t.Fatal(err)
	}
	if w := m.Plan().MaxWidth(); w < minParallelSpan {
		t.Fatalf("twitter graph's widest level is %d < %d", w, minParallelSpan)
	}
	return m
}

// poisonScratch fills the engine's pass buffers with NaN, so a pass that
// skips a node cannot pass on the value an earlier pass left there.
func poisonScratch(e *FloatEngine) {
	sc := e.scratch()
	for _, buf := range [][]float64{sc.rec, sc.emit, sc.suf} {
		for i := range buf {
			buf[i] = math.NaN()
		}
	}
}

// TestParallelPassesBitIdentical checks ArgmaxImpactP and ImpactsP against
// the serial pass across worker counts, filter sets and weighted models.
// The random DAGs' levels are narrower than minParallelSpan, so only their
// gain scans shard; seed 5, a twitter graph, has levels wide enough that
// the sweeps shard too.
func TestParallelPassesBitIdentical(t *testing.T) {
	twitter := wideModel(t)
	for seed := int64(1); seed <= 5; seed++ {
		m := twitter
		if seed < 5 {
			m = randomDAGModel(t, 300, 0.03, seed)
		}
		if seed%2 == 0 {
			m = m.WithWeights(func(u, v int) float64 {
				return 0.25 + 0.5*float64((u+v)%3)/2
			})
		}
		e := NewFloat(m)
		filters := make([]bool, m.N())
		for round := 0; round < 5; round++ {
			wantGains := e.Impacts(filters)
			wantV, wantG := e.ArgmaxImpact(filters, filters)
			for _, procs := range []int{1, 2, 4, runtime.GOMAXPROCS(0) + 3} {
				poisonScratch(e)
				gains := e.ImpactsP(filters, procs)
				for v := range gains {
					if gains[v] != wantGains[v] {
						t.Fatalf("seed %d procs %d: ImpactsP[%d] = %v, serial %v", seed, procs, v, gains[v], wantGains[v])
					}
				}
				poisonScratch(e)
				v, g := e.ArgmaxImpactP(filters, filters, procs)
				if v != wantV || g != wantG {
					t.Fatalf("seed %d procs %d: ArgmaxImpactP (%d,%v), serial (%d,%v)", seed, procs, v, g, wantV, wantG)
				}
			}
			if wantV < 0 {
				break
			}
			filters[wantV] = true
		}
	}
}

// TestFloatHotPathAllocs pins the float engine's allocation contract on a
// warm engine: the serial Greedy_All inner loop (ArgmaxImpact) and Phi
// allocate nothing, and ArgmaxImpactP at P = 2 allocates per level and
// chunk, never per node — the same count on a graph five times larger
// with the same level count.
func TestFloatHotPathAllocs(t *testing.T) {
	parAllocs := make([]float64, 0, 2)
	for _, scale := range []float64{0.05, 0.25} {
		g, src := gen.TwitterLike(scale, 1)
		m, err := NewModel(g, []int{src})
		if err != nil {
			t.Fatal(err)
		}
		e := NewFloat(m)
		filters := make([]bool, m.N())
		v, _ := e.ArgmaxImpact(filters, nil) // borrows the scratch arena
		filters[v] = true
		if a := testing.AllocsPerRun(20, func() { e.ArgmaxImpact(filters, nil) }); a != 0 {
			t.Errorf("scale %v: ArgmaxImpact makes %v allocations, want 0", scale, a)
		}
		if a := testing.AllocsPerRun(20, func() { e.Phi(filters) }); a != 0 {
			t.Errorf("scale %v: Phi makes %v allocations, want 0", scale, a)
		}
		parAllocs = append(parAllocs, testing.AllocsPerRun(20, func() { e.ArgmaxImpactP(filters, nil, 2) }))
	}
	if parAllocs[1] > parAllocs[0] {
		t.Errorf("ArgmaxImpactP(…, 2) allocations grow with n: %v", parAllocs)
	}
}

// TestBigParallelPassesBitIdentical checks the exact engine's
// level-parallel passes: ArgmaxImpactP and ImpactsP must reproduce the
// serial big-integer results exactly (same filters chosen, same float
// projections) across worker counts and evolving filter sets. Deep graphs
// make the path counts overflow float64 precision, so this also exercises
// selections only exact arithmetic gets right. Seed 4, a twitter graph,
// has levels wide enough that the sweeps shard.
func TestBigParallelPassesBitIdentical(t *testing.T) {
	twitter := wideModel(t)
	for seed := int64(1); seed <= 4; seed++ {
		m := twitter
		if seed < 4 {
			m = randomDAGModel(t, 300, 0.04, seed)
		}
		e := NewBig(m)
		filters := make([]bool, m.N())
		for round := 0; round < 5; round++ {
			wantGains := e.Impacts(filters)
			wantV, wantG := e.ArgmaxImpact(filters, filters)
			for _, procs := range []int{1, 2, 4, runtime.GOMAXPROCS(0) + 3} {
				gains := e.ImpactsP(filters, procs)
				for v := range gains {
					if gains[v] != wantGains[v] {
						t.Fatalf("seed %d procs %d: ImpactsP[%d] = %v, serial %v", seed, procs, v, gains[v], wantGains[v])
					}
				}
				v, g := e.ArgmaxImpactP(filters, filters, procs)
				if v != wantV || g != wantG {
					t.Fatalf("seed %d procs %d: ArgmaxImpactP (%d,%v), serial (%d,%v)", seed, procs, v, g, wantV, wantG)
				}
			}
			if wantV < 0 {
				break
			}
			filters[wantV] = true
		}
	}
}

// TestBigParallelExactIntegers pins the parallel exact pass at the integer
// level (not just the float projection): rec, emit and suffix from the
// sharded passes must Cmp-equal the serial ones on a graph deep enough
// that float64 would round.
func TestBigParallelExactIntegers(t *testing.T) {
	m := randomDAGModel(t, 400, 0.05, 7)
	e := NewBig(m)
	filters := make([]bool, m.N())
	for v := 0; v < m.N(); v += 9 {
		if !m.IsSource(v) {
			filters[v] = true
		}
	}
	serialRec, serialEmit := e.forwardBig(filters, 1)
	serialSuf := e.suffixBig(filters, 1)
	for _, procs := range []int{2, 5} {
		rec, emit := e.forwardBig(filters, procs)
		suf := e.suffixBig(filters, procs)
		for v := range rec {
			if rec[v].Cmp(serialRec[v]) != 0 || emit[v].Cmp(serialEmit[v]) != 0 || suf[v].Cmp(serialSuf[v]) != 0 {
				t.Fatalf("procs %d node %d: parallel (%v,%v,%v) != serial (%v,%v,%v)",
					procs, v, rec[v], emit[v], suf[v], serialRec[v], serialEmit[v], serialSuf[v])
			}
		}
	}
}
