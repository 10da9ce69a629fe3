package server_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"testing"

	"repro/internal/obs"
	"repro/internal/server"
)

// patchJSON sends a PATCH to /v1/graphs/{id}/edges.
func patchJSON(t *testing.T, base, id string, spec server.PatchSpec, out *server.PatchResult) int {
	t.Helper()
	var dst any
	if out != nil {
		dst = out
	}
	return doJSON(t, "PATCH", base+"/v1/graphs/"+id+"/edges", spec, dst)
}

func metricsSnapshot(t *testing.T, base string) server.MetricsSnapshot {
	t.Helper()
	var snap server.MetricsSnapshot
	if code := doJSON(t, "GET", base+"/metrics", nil, &snap); code != http.StatusOK {
		t.Fatalf("metrics: status %d", code)
	}
	return snap
}

// TestPatchRoundTripWithCacheInvalidation is the acceptance criterion:
// PATCH round-trips through fpd and drops the stale cached placement.
func TestPatchRoundTripWithCacheInvalidation(t *testing.T) {
	ts := newTestServer(t, server.Config{})
	info := uploadDiamond(t, ts.URL)

	// Cache a greedy placement for the pristine diamond.
	var ji server.JobInfo
	if code := doJSON(t, "POST", ts.URL+"/v1/graphs/"+info.ID+"/place",
		server.PlaceSpec{Algorithm: "gall", K: 1}, &ji); code != http.StatusAccepted {
		t.Fatalf("place: status %d", code)
	}
	done := waitJob(t, ts.URL, ji.ID)
	if done.State != server.JobDone || done.Result == nil {
		t.Fatalf("job = %+v", done)
	}
	// A repeat query must now answer 200 from the cache.
	var cached server.PlaceResult
	if code := doJSON(t, "POST", ts.URL+"/v1/graphs/"+info.ID+"/place",
		server.PlaceSpec{Algorithm: "gall", K: 1}, &cached); code != http.StatusOK || !cached.Cached {
		t.Fatalf("expected cache hit, status %d cached %v", code, cached.Cached)
	}

	// Mutate: graft a second junction feeding the sink.
	var pr server.PatchResult
	if code := patchJSON(t, ts.URL, info.ID,
		server.PatchSpec{AddNodes: 1, Add: [][2]int{{1, 4}, {1, 5}, {2, 5}, {5, 4}}}, &pr); code != http.StatusOK {
		t.Fatalf("patch: status %d", code)
	}
	if pr.Graph.Nodes != 6 || pr.EdgesAdded != 4 || pr.NodesAdded != 1 || pr.Graph.Patches != 1 {
		t.Fatalf("patch result = %+v", pr)
	}
	if pr.Invalidated < 1 {
		t.Fatalf("cache_invalidated = %d, want ≥ 1", pr.Invalidated)
	}

	// The graph info endpoint serves the mutated shape.
	var got server.GraphInfo
	if code := doJSON(t, "GET", ts.URL+"/v1/graphs/"+info.ID, nil, &got); code != http.StatusOK {
		t.Fatalf("GET graph: status %d", code)
	}
	if got.Nodes != 6 || got.Edges != 9 {
		t.Fatalf("info after patch = %+v", got)
	}

	// The same placement query must MISS now (202: a fresh job), and its
	// result must reflect the mutated graph.
	var ji2 server.JobInfo
	if code := doJSON(t, "POST", ts.URL+"/v1/graphs/"+info.ID+"/place",
		server.PlaceSpec{Algorithm: "gall", K: 1}, &ji2); code != http.StatusAccepted {
		t.Fatalf("place after patch: status %d, want 202 (stale cache served?)", code)
	}
	done2 := waitJob(t, ts.URL, ji2.ID)
	if done2.State != server.JobDone || done2.Result == nil {
		t.Fatalf("job2 = %+v", done2)
	}
	if done2.Result.PhiEmpty == done.Result.PhiEmpty {
		t.Fatalf("Φ(∅) unchanged (%v) — placement ran on the stale graph", done.Result.PhiEmpty)
	}

	snap := metricsSnapshot(t, ts.URL)
	if snap.GraphsPatched != 1 || snap.EdgesAdded != 4 || snap.CacheInvalidations < 1 {
		t.Errorf("metrics = %+v", snap)
	}
}

func TestPatchCycleRejected(t *testing.T) {
	ts := newTestServer(t, server.Config{})
	info := uploadDiamond(t, ts.URL)
	var pr server.PatchResult
	if code := patchJSON(t, ts.URL, info.ID,
		server.PatchSpec{Add: [][2]int{{4, 3}}}, &pr); code != http.StatusConflict {
		t.Fatalf("cyclic patch: status %d, want 409", code)
	}
	// Nothing changed.
	var got server.GraphInfo
	doJSON(t, "GET", ts.URL+"/v1/graphs/"+info.ID, nil, &got)
	if got.Edges != 5 || got.Patches != 0 {
		t.Fatalf("info after rejected patch = %+v", got)
	}
}

func TestPatchErrors(t *testing.T) {
	ts := newTestServer(t, server.Config{})
	info := uploadDiamond(t, ts.URL)
	cases := []struct {
		name string
		spec server.PatchSpec
		code int
	}{
		{"unknown graph handled elsewhere", server.PatchSpec{}, http.StatusBadRequest},
		{"empty batch", server.PatchSpec{}, http.StatusBadRequest},
		{"bad text patch", server.PatchSpec{Patch: "+ 1\n"}, http.StatusBadRequest},
		{"missing removal", server.PatchSpec{Remove: [][2]int{{0, 4}}}, http.StatusUnprocessableEntity},
		{"duplicate add", server.PatchSpec{Add: [][2]int{{0, 3}, {0, 3}}}, http.StatusUnprocessableEntity},
		{"edge into source", server.PatchSpec{Add: [][2]int{{4, 0}}}, http.StatusUnprocessableEntity},
		{"maintain without k", server.PatchSpec{Add: [][2]int{{0, 3}}, Maintain: true}, http.StatusBadRequest},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if code := patchJSON(t, ts.URL, info.ID, tc.spec, nil); code != tc.code {
				t.Errorf("status %d, want %d", code, tc.code)
			}
		})
	}
	if code := patchJSON(t, ts.URL, "nope", server.PatchSpec{Add: [][2]int{{0, 3}}}, nil); code != http.StatusNotFound {
		t.Errorf("unknown graph: status %d, want 404", code)
	}
}

func TestPatchTextForm(t *testing.T) {
	ts := newTestServer(t, server.Config{})
	info := uploadDiamond(t, ts.URL)
	var pr server.PatchResult
	if code := patchJSON(t, ts.URL, info.ID,
		server.PatchSpec{Patch: "# graft\nn 1\n+ 3 5\n- 0 2\n"}, &pr); code != http.StatusOK {
		t.Fatalf("text patch: status %d", code)
	}
	if pr.NodesAdded != 1 || pr.EdgesAdded != 1 || pr.EdgesRemoved != 1 {
		t.Fatalf("text patch result = %+v", pr)
	}
}

// TestPatchAutoMaintain drives the auto-maintain job kind end to end: the
// job computes a placement for the mutated graph, and once the maintainer
// is warm a local mutation takes the incremental path.
func TestPatchAutoMaintain(t *testing.T) {
	ts := newTestServer(t, server.Config{})
	// A wide fan off the root (nodes 1..40 are sinks) plus one diamond
	// 41→{42,43}→44→45 hanging off it: mutations inside the diamond leave
	// the fan's propagation state untouched, so drift stays small.
	var sb strings.Builder
	for i := 1; i <= 40; i++ {
		fmt.Fprintf(&sb, "0 %d\n", i)
	}
	sb.WriteString("0 41\n41 42\n41 43\n42 44\n43 44\n44 45\n")
	var info server.GraphInfo
	if code := doJSON(t, "POST", ts.URL+"/v1/graphs",
		server.GraphSpec{Name: "fan+diamond", Edges: sb.String()}, &info); code != http.StatusCreated {
		t.Fatalf("upload: status %d", code)
	}

	var pr server.PatchResult
	if code := patchJSON(t, ts.URL, info.ID,
		server.PatchSpec{AddNodes: 1, Add: [][2]int{{42, 46}}, Maintain: true, K: 1}, &pr); code != http.StatusOK {
		t.Fatalf("patch: status %d", code)
	}
	if pr.Job == nil {
		t.Fatalf("no maintain job enqueued: %+v", pr)
	}
	done := waitJob(t, ts.URL, pr.Job.ID)
	if done.State != server.JobDone || done.Result == nil {
		t.Fatalf("maintain job = %+v", done)
	}
	res := done.Result
	if res.Algorithm != "maintain" || res.Maintain == nil {
		t.Fatalf("result = %+v", res)
	}
	if res.Maintain.Strategy != "initial" {
		t.Fatalf("strategy = %q, want initial on a fresh maintainer", res.Maintain.Strategy)
	}
	if len(res.Filters) != 1 || res.Filters[0] != 44 {
		t.Fatalf("maintained filters = %v, want [44]", res.Filters)
	}
	if res.F <= 0 || res.FR <= 0 {
		t.Fatalf("objective not reported: %+v", res)
	}

	// Second local batch: the warm maintainer repairs incrementally.
	var pr2 server.PatchResult
	if code := patchJSON(t, ts.URL, info.ID,
		server.PatchSpec{AddNodes: 1, Add: [][2]int{{43, 47}}, Maintain: true, K: 1}, &pr2); code != http.StatusOK {
		t.Fatalf("patch 2: status %d", code)
	}
	done2 := waitJob(t, ts.URL, pr2.Job.ID)
	if done2.State != server.JobDone || done2.Result == nil || done2.Result.Maintain == nil {
		t.Fatalf("maintain job 2 = %+v", done2)
	}
	if got := done2.Result.Maintain.Strategy; got != "incremental" {
		t.Fatalf("strategy = %q, want incremental on the second batch", got)
	}
	if got := done2.Result.Filters; len(got) != 1 || got[0] != 44 {
		t.Fatalf("maintained filters after batch 2 = %v, want [44]", got)
	}

	snap := metricsSnapshot(t, ts.URL)
	if snap.MaintainJobs != 2 {
		t.Errorf("maintain_jobs = %d, want 2", snap.MaintainJobs)
	}
}

// TestPatchPlanSpliceReporting pins the plan-repair observability surface:
// the PATCH response describes the rebuild, /metrics counts it, and its
// cost is charged to the requesting tenant.
func TestPatchPlanSpliceReporting(t *testing.T) {
	ts := newTestServer(t, server.Config{})
	info := uploadDiamond(t, ts.URL)

	var pr server.PatchResult
	if code := patchJSON(t, ts.URL, info.ID,
		server.PatchSpec{AddNodes: 1, Add: [][2]int{{3, 5}}}, &pr); code != http.StatusOK {
		t.Fatalf("patch: status %d", code)
	}
	if pr.PlanSpliced || pr.PlanRepair == nil || pr.PlanRepair.Spliced {
		t.Fatalf("plan repair not reported as a rebuild: %+v (repair %+v)", pr, pr.PlanRepair)
	}
	if pr.PlanRepair.Reason != "batch" || pr.PlanRepair.RowsRebuilt != 6 {
		t.Fatalf("plan repair = %+v, want a batch rebuild of all 6 rows", pr.PlanRepair)
	}

	snap := metricsSnapshot(t, ts.URL)
	if snap.PlanSplices != 0 || snap.PlanRebuilds != 1 {
		t.Errorf("plan repair metrics = %d splices / %d rebuilds, want 0 / 1",
			snap.PlanSplices, snap.PlanRebuilds)
	}
	var usage obs.TenantUsage
	if code := doJSON(t, "GET", ts.URL+"/v1/tenants/default/usage", nil, &usage); code != http.StatusOK {
		t.Fatalf("tenant usage: status %d", code)
	}
	if usage.PlanRebuilds != 1 || usage.PlanSplices != 0 || usage.PlanRepairWork <= 0 {
		t.Errorf("tenant plan accounting = %+v, want 1 rebuild with positive work", usage)
	}
}

// TestPatchStormSpliceStress is the -race stress for the plan-repair path:
// concurrent PATCH batches (some with auto-maintain) race placements and
// reads on one graph, every successful batch repairs the shared plan, and
// the final plan serves correct evaluations.
func TestPatchStormSpliceStress(t *testing.T) {
	ts := newTestServer(t, server.Config{})
	// A fan 0→1..40: mutator w toggles its own edge (1+w, 21+w), so the
	// goroutines never conflict and every batch is accepted.
	var sb strings.Builder
	for i := 1; i <= 40; i++ {
		fmt.Fprintf(&sb, "0 %d\n", i)
	}
	var info server.GraphInfo
	if code := doJSON(t, "POST", ts.URL+"/v1/graphs",
		server.GraphSpec{Name: "fan", Edges: sb.String()}, &info); code != http.StatusCreated {
		t.Fatalf("upload: status %d", code)
	}

	const (
		mutators = 4
		rounds   = 20
	)
	send := func(spec server.PatchSpec) (server.PatchResult, int, error) {
		b, err := json.Marshal(spec)
		if err != nil {
			return server.PatchResult{}, 0, err
		}
		req, err := http.NewRequest("PATCH", ts.URL+"/v1/graphs/"+info.ID+"/edges", bytes.NewReader(b))
		if err != nil {
			return server.PatchResult{}, 0, err
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			return server.PatchResult{}, 0, err
		}
		defer resp.Body.Close()
		var pr server.PatchResult
		if resp.StatusCode == http.StatusOK {
			if err := json.NewDecoder(resp.Body).Decode(&pr); err != nil {
				return server.PatchResult{}, resp.StatusCode, err
			}
		}
		return pr, resp.StatusCode, nil
	}

	var (
		wg     sync.WaitGroup
		mu     sync.Mutex
		jobIDs []string
		errs   []string
	)
	fail := func(format string, args ...any) {
		mu.Lock()
		errs = append(errs, fmt.Sprintf(format, args...))
		mu.Unlock()
	}
	for w := 0; w < mutators; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			a, b := 1+w, 21+w
			for i := 0; i < rounds; i++ {
				spec := server.PatchSpec{}
				if i%2 == 0 {
					spec.Add = [][2]int{{a, b}}
				} else {
					spec.Remove = [][2]int{{a, b}}
				}
				if i%5 == 0 {
					spec.Maintain, spec.K = true, 2
				}
				pr, code, err := send(spec)
				if err != nil || code != http.StatusOK {
					fail("mutator %d round %d: status %d err %v", w, i, code, err)
					return
				}
				if pr.PlanRepair == nil {
					fail("mutator %d round %d: no plan repair reported", w, i)
					return
				}
				if pr.Job != nil {
					mu.Lock()
					jobIDs = append(jobIDs, pr.Job.ID)
					mu.Unlock()
				}
			}
		}(w)
	}
	// Readers race the mutators on the same graph: evaluations and info
	// reads must always see a consistent model.
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 2*rounds; i++ {
				resp, err := http.Get(ts.URL + "/v1/graphs/" + info.ID + "/evaluate?filters=5,9")
				if err != nil {
					fail("reader: %v", err)
					return
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					fail("reader: evaluate status %d", resp.StatusCode)
					return
				}
			}
		}()
	}
	wg.Wait()
	for _, e := range errs {
		t.Error(e)
	}
	if t.Failed() {
		t.FailNow()
	}
	for _, id := range jobIDs {
		if done := waitJob(t, ts.URL, id); done.State != server.JobDone {
			t.Fatalf("maintain job %s = %+v", id, done)
		}
	}

	// Each mutator ran an equal number of adds and removes, so the fan is
	// back to its original 40 edges — and the spliced plan must agree.
	var got server.GraphInfo
	if code := doJSON(t, "GET", ts.URL+"/v1/graphs/"+info.ID, nil, &got); code != http.StatusOK {
		t.Fatalf("GET graph: status %d", code)
	}
	if got.Edges != 40 || got.Patches != mutators*rounds {
		t.Fatalf("after storm: %+v, want 40 edges and %d patches", got, mutators*rounds)
	}
	snap := metricsSnapshot(t, ts.URL)
	if snap.GraphsPatched != mutators*rounds {
		t.Fatalf("graphs_patched = %d, want %d", snap.GraphsPatched, mutators*rounds)
	}
	if snap.PlanSplices+snap.PlanRebuilds < snap.GraphsPatched {
		t.Fatalf("plan repairs %d+%d < patches %d: a batch skipped plan repair",
			snap.PlanSplices, snap.PlanRebuilds, snap.GraphsPatched)
	}
	// The fan's Φ(∅): root emits 1 copy to each of its 40 children.
	var ev server.PlaceResult
	if code := doJSON(t, "GET", ts.URL+"/v1/graphs/"+info.ID+"/evaluate?filters=", nil, &ev); code != http.StatusOK {
		t.Fatalf("final evaluate: status %d", code)
	}
	if ev.PhiEmpty != 40 {
		t.Fatalf("Φ(∅) over the post-storm plan = %v, want 40", ev.PhiEmpty)
	}
}

func TestMetricsGauges(t *testing.T) {
	ts := newTestServer(t, server.Config{})
	snap := metricsSnapshot(t, ts.URL)
	if snap.JobQueueDepth != 0 || snap.CacheEntries != 0 {
		t.Errorf("fresh gauges = %+v", snap)
	}
}
