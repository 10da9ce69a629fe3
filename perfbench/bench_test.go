package main

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"slices"
	"strings"
	"testing"

	"repro/internal/flow"
	"repro/internal/gen"
	"repro/internal/graph"
)

// benchmarkJSON is the slice of ../BENCHMARK.json the harness must match.
type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit string
	} `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc benchmarkJSON
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	return doc
}

// TestQuickRuns runs every workload on tiny graphs, untraced and traced,
// and checks that every response checks out and that each run reports
// exactly the metrics BENCHMARK.json names, with their units.
func TestQuickRuns(t *testing.T) {
	doc := readBenchmarkJSON(t)
	for _, w := range doc.Workloads {
		if workloadNamed(w.Name) == nil {
			t.Fatalf("BENCHMARK.json names workload %q the harness lacks", w.Name)
		}
		for _, trace := range []bool{false, true} {
			want := map[string]string{}
			if trace {
				for _, m := range doc.PerLayer {
					want[m.Name] = m.Unit
				}
			} else {
				for _, m := range doc.EndToEnd {
					want[m.Name] = m.Unit
				}
			}
			var errOut strings.Builder
			res, err := run(config{workload: w.Name, seed: 3, seconds: 0.3, trace: trace, quick: true}, io.Discard, &errOut)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.Name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("%s trace=%v: correct=%v attempted=%d failed=%d\n%s",
					w.Name, trace, res.Correct, res.Attempted, res.Failed, errOut.String())
			}
			for name, unit := range want {
				m, ok := res.Metrics[name]
				if !ok {
					t.Errorf("%s trace=%v: metric %s missing", w.Name, trace, name)
				} else if m.Unit != unit {
					t.Errorf("%s trace=%v: %s has unit %q, BENCHMARK.json says %q", w.Name, trace, name, m.Unit, unit)
				}
			}
			for name := range res.Metrics {
				if _, ok := want[name]; !ok {
					t.Errorf("%s trace=%v: metric %s is not in BENCHMARK.json", w.Name, trace, name)
				}
			}
		}
	}
}

// diamond is the 5-node graph 0→{1,2}→3→4: Φ(∅)=6, and a filter at 3
// gives F=1.
func diamond() *graphRef {
	g := graph.MustFromEdges(5, [][2]int{{0, 1}, {0, 2}, {1, 3}, {2, 3}, {3, 4}})
	return &graphRef{name: "diamond", g: g, src: 0}
}

func TestCheckRecordsCatchesWrongF(t *testing.T) {
	g := diamond()
	good := record{g: g, kind: "evaluate", algo: "evaluate", filters: []int{3}, f: 1}
	if res := checkRecords([]record{good}, 0); res.bad != 0 {
		t.Fatalf("correct response flagged: %v", res.msgs)
	}
	bad := good
	bad.f = math.Nextafter(1, 2) // one ulp off
	if res := checkRecords([]record{bad}, 0); res.bad != 1 {
		t.Fatalf("F one ulp off: bad = %d, want 1", res.bad)
	}
	outside := good
	outside.filters = []int{7}
	if res := checkRecords([]record{outside}, 0); res.bad != 1 {
		t.Fatalf("filter outside the graph: bad = %d, want 1", res.bad)
	}
}

func TestCheckRecordsCatchesGallCelfDisagreement(t *testing.T) {
	g := diamond()
	gall := record{g: g, kind: "place.gall", algo: "gall", k: 1, filters: []int{3}, f: 1}
	celf := gall
	celf.kind, celf.algo = "place.celf", "celf"
	if res := checkRecords([]record{gall, celf}, 0); res.bad != 0 {
		t.Fatalf("agreeing gall and celf flagged: %v", res.msgs)
	}
	// F of {1} is 0, so the response is internally consistent but
	// differs from gall's.
	celf.filters, celf.f = []int{1}, 0
	if res := checkRecords([]record{gall, celf}, 0); res.bad != 1 {
		t.Fatalf("gall and celf disagree: bad = %d, want 1", res.bad)
	}
}

func TestCheckRecordsReplaysChurn(t *testing.T) {
	g0, src := gen.TwitterLike(0.02, 1)
	g := &graphRef{name: "tw", g: g0, src: src, stream: gen.TwitterChurn(g0, 3, 0.01, 1)}
	// Filters everywhere: F is then F(V), which churn changes.
	var filters []int
	for v := 0; v < g0.N(); v++ {
		if v != src {
			filters = append(filters, v)
		}
	}
	var recs []record
	m := &mirror{g: g}
	for v := 0; v <= 3; v++ {
		gv, err := m.at(v)
		if err != nil {
			t.Fatal(err)
		}
		model, err := flow.NewModel(gv, []int{src})
		if err != nil {
			t.Fatal(err)
		}
		f := flow.NewFloat(model).F(flow.MaskOf(gv.N(), filters))
		recs = append(recs, record{g: g, version: v, kind: "evaluate", algo: "evaluate", filters: filters, f: f})
	}
	if res := checkRecords(recs, 0); res.bad != 0 {
		t.Fatalf("replayed versions flagged: %v", res.msgs)
	}
	// A later version's F presented as the original graph's must fail.
	j := slices.IndexFunc(recs, func(r record) bool { return r.f != recs[0].f })
	if j < 0 {
		t.Fatal("the churn stream leaves F unchanged")
	}
	stale := recs[j]
	stale.version = 0
	if res := checkRecords([]record{stale}, 0); res.bad != 1 {
		t.Fatalf("a response checked against the wrong version: bad = %d, want 1", res.bad)
	}
}

func TestCheckRecordsQualityRatio(t *testing.T) {
	g := diamond()
	celf := record{g: g, algo: "celf", k: 1, filters: []int{3}, f: 1}
	ml := record{g: g, algo: "mlcelf", k: 1, filters: []int{1}, f: 0}
	noisy := record{g: g, algo: "approx", k: 1, seed: 99, filters: []int{1}, f: 0}
	res := checkRecords([]record{celf, noisy}, 7)
	if !math.IsNaN(res.minRatio) {
		t.Fatalf("approx with a per-request seed entered quality: %v", res.minRatio)
	}
	if res := checkRecords([]record{celf, ml}, 7); res.minRatio != 0 {
		t.Fatalf("minRatio = %v, want 0", res.minRatio)
	}
}

func TestAssertMix(t *testing.T) {
	tl := newTally()
	tl.cacheHitsSent, tl.cacheMissesSent, tl.cycles = 6, 2, 3
	ok := counters{hits: 6, misses: 2, maintainJobs: 3, splices: 1, rebuilds: 2}
	if err := assertMix(ok, tl); err != nil {
		t.Fatal(err)
	}
	for name, c := range map[string]counters{
		"extra miss":    {hits: 5, misses: 3, maintainJobs: 3, splices: 1, rebuilds: 2},
		"missed cycle":  {hits: 6, misses: 2, maintainJobs: 2, splices: 1, rebuilds: 1},
		"failed job":    {hits: 6, misses: 2, maintainJobs: 3, splices: 1, rebuilds: 2, failed: 1},
		"rejected job":  {hits: 6, misses: 2, maintainJobs: 3, splices: 1, rebuilds: 2, rejected: 1},
		"canceled job":  {hits: 6, misses: 2, maintainJobs: 3, splices: 1, rebuilds: 2, canceled: 1},
		"no plan fixed": {hits: 6, misses: 2, maintainJobs: 3},
	} {
		if assertMix(c, tl) == nil {
			t.Errorf("%s: assertion passed", name)
		}
	}
}

// TestDecomposeAttributesEveryInstantOnce checks that the decomposition's
// rows and unattributed remainder add up to the op's latency when child
// spans overlap.
func TestDecomposeAttributesEveryInstantOnce(t *testing.T) {
	tr := &tracer{}
	ms := int64(1e6)
	op := tr.addAt("op.place.celf", 0, 0, 100*ms)
	post := tr.addAt("http.place", op, 0, 40*ms)
	tr.addAt("server.handler", post, 10*ms, 30*ms)
	run := tr.addAt("server.job.run", op, 20*ms, 90*ms)
	tr.addAt("core.place", run, 20*ms, 80*ms)
	var out strings.Builder
	v := tr.view()
	v.decompose(&out, "place.celf")
	total := 0.0
	for _, line := range strings.Split(out.String(), "\n")[1:] {
		f := strings.Fields(line)
		if len(f) < 3 {
			continue
		}
		var x float64
		if err := json.Unmarshal([]byte(f[len(f)-2]), &x); err != nil {
			t.Fatalf("row %q: %v", line, err)
		}
		total += x
	}
	if math.Abs(total-100) > 1e-9 {
		t.Fatalf("rows sum to %v ms, want 100:\n%s", total, out.String())
	}
	if got := v.unattributed("place.celf"); len(got) != 1 || got[0] != 10 {
		t.Fatalf("unattributed = %v, want [10]", got)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	if got := median(xs); got != 2.5 {
		t.Fatalf("median = %v, want 2.5", got)
	}
	if got := quantile(xs, 1); got != 4 {
		t.Fatalf("max = %v, want 4", got)
	}
	if !math.IsNaN(median(nil)) {
		t.Fatal("median of nothing is a number")
	}
	// Two clusters of ten: the middle tenth takes one sample from each.
	var two []float64
	for i := 0; i < 10; i++ {
		two = append(two, 1+float64(i)/100, 9+float64(i)/100)
	}
	if got := centralMedian(two); math.Abs(got-(1.09+9)/2) > 1e-12 {
		t.Fatalf("centralMedian = %v, want %v", got, (1.09+9)/2)
	}
	if got := centralMedian([]float64{5}); got != 5 {
		t.Fatalf("centralMedian of one sample = %v, want 5", got)
	}
}
