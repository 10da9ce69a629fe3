package server_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	fp "repro"
	"repro/internal/server"
)

// newTestServer starts an httptest server over a fresh fpd handler.
func newTestServer(t *testing.T, cfg server.Config) *httptest.Server {
	t.Helper()
	srv := server.New(cfg)
	ts := httptest.NewServer(srv)
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	return ts
}

// doJSON sends body (marshaled when non-nil) and decodes the response into
// out (when non-nil), returning the status code.
func doJSON(t *testing.T, method, url string, body, out any) int {
	t.Helper()
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if out != nil && len(data) > 0 {
		if err := json.Unmarshal(data, out); err != nil {
			t.Fatalf("%s %s: bad JSON %q: %v", method, url, data, err)
		}
	}
	return resp.StatusCode
}

const diamondEdges = "0 1\n0 2\n1 3\n2 3\n3 4\n"

// uploadDiamond registers the 5-node diamond (junction at node 3).
func uploadDiamond(t *testing.T, base string) server.GraphInfo {
	t.Helper()
	var info server.GraphInfo
	if code := doJSON(t, "POST", base+"/v1/graphs",
		server.GraphSpec{Name: "diamond", Edges: diamondEdges}, &info); code != http.StatusCreated {
		t.Fatalf("upload: status %d", code)
	}
	return info
}

// waitJob polls GET /v1/jobs/{id} until the job is terminal.
func waitJob(t *testing.T, base, id string) server.JobInfo {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		var info server.JobInfo
		if code := doJSON(t, "GET", base+"/v1/jobs/"+id, nil, &info); code != http.StatusOK {
			t.Fatalf("poll job %s: status %d", id, code)
		}
		if info.State.Terminal() {
			return info
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("job %s did not finish", id)
	return server.JobInfo{}
}

func TestGraphUploadAndInfo(t *testing.T) {
	ts := newTestServer(t, server.Config{})
	info := uploadDiamond(t, ts.URL)
	if info.Nodes != 5 || info.Edges != 5 || info.Sinks != 1 {
		t.Errorf("info = %+v, want 5 nodes, 5 edges, 1 sink", info)
	}
	if len(info.Sources) != 1 || info.Sources[0] != 0 {
		t.Errorf("sources = %v, want [0]", info.Sources)
	}
	var got server.GraphInfo
	if code := doJSON(t, "GET", ts.URL+"/v1/graphs/"+info.ID, nil, &got); code != http.StatusOK {
		t.Fatalf("GET graph: status %d", code)
	}
	if got.ID != info.ID || got.Name != "diamond" {
		t.Errorf("GET = %+v", got)
	}
	var list struct {
		Graphs []server.GraphInfo `json:"graphs"`
	}
	if code := doJSON(t, "GET", ts.URL+"/v1/graphs", nil, &list); code != http.StatusOK || len(list.Graphs) != 1 {
		t.Errorf("list: status %d, %d graphs", code, len(list.Graphs))
	}
}

// TestUploadSignedTokenIsLabel: "+1" is not a numeric id, so the list is
// in label mode and the large token is a label, not an id past the upload
// limit.
func TestUploadSignedTokenIsLabel(t *testing.T) {
	ts := newTestServer(t, server.Config{})
	var info server.GraphInfo
	if code := doJSON(t, "POST", ts.URL+"/v1/graphs", server.GraphSpec{Edges: "+1 2000000000\n"}, &info); code != http.StatusCreated {
		t.Fatalf("status %d, want 201", code)
	}
	if info.Nodes != 2 || info.Edges != 1 || len(info.Sources) != 1 || info.Sources[0] != 0 {
		t.Errorf("info = %+v, want 2 labeled nodes, 1 edge, source 0", info)
	}
}

func TestGraphFromGenerator(t *testing.T) {
	ts := newTestServer(t, server.Config{})
	var info server.GraphInfo
	code := doJSON(t, "POST", ts.URL+"/v1/graphs",
		server.GraphSpec{Generator: "layered", Levels: 4, PerLevel: 10, Seed: 3}, &info)
	if code != http.StatusCreated {
		t.Fatalf("generator upload: status %d", code)
	}
	g, src := fp.Layered(4, 10, 1, 4, 3)
	if info.Nodes != g.N() || info.Edges != g.M() {
		t.Errorf("generated %d nodes %d edges, want %d/%d", info.Nodes, info.Edges, g.N(), g.M())
	}
	if len(info.Sources) != 1 || info.Sources[0] != src {
		t.Errorf("sources = %v, want [%d]", info.Sources, src)
	}
}

// TestCreateGraphErrors is the table-driven error-path suite for POST
// /v1/graphs.
func TestCreateGraphErrors(t *testing.T) {
	ts := newTestServer(t, server.Config{})
	tests := []struct {
		name string
		body any
		want int
	}{
		{"cyclic upload", server.GraphSpec{Edges: "0 1\n1 0\n"}, http.StatusUnprocessableEntity},
		{"self loop", server.GraphSpec{Edges: "0 0\n"}, http.StatusBadRequest},
		{"unknown generator", server.GraphSpec{Generator: "petersen"}, http.StatusBadRequest},
		{"edges and generator", server.GraphSpec{Edges: "0 1\n", Generator: "quote"}, http.StatusBadRequest},
		{"neither", server.GraphSpec{Name: "empty"}, http.StatusBadRequest},
		{"bad twitter scale", server.GraphSpec{Generator: "twitter", Scale: 7}, http.StatusBadRequest},
		{"negative dag n", server.GraphSpec{Generator: "dag", N: -5}, http.StatusBadRequest},
		{"oversized dag n", server.GraphSpec{Generator: "dag", N: 2000000000}, http.StatusBadRequest},
		{"negative layered levels", server.GraphSpec{Generator: "layered", Levels: -3, PerLevel: -2}, http.StatusBadRequest},
		{"quadratic layered blowup", server.GraphSpec{Generator: "layered", Levels: 1000, PerLevel: 1000}, http.StatusBadRequest},
		{"negative tree n", server.GraphSpec{Generator: "tree", N: -7}, http.StatusBadRequest},
		{"bad dag p", server.GraphSpec{Generator: "dag", N: 10, P: 1.5}, http.StatusBadRequest},
		{"oversized bottleneck depth", server.GraphSpec{Generator: "bottleneck", Depth: 40}, http.StatusBadRequest},
		{"powerlaw edge blowup", server.GraphSpec{Generator: "powerlaw", N: 2000000, EPN: 100}, http.StatusBadRequest},
		{"huge numeric node id", server.GraphSpec{Edges: "0 2000000000\n"}, http.StatusBadRequest},
		{"overflowing node id", server.GraphSpec{Edges: "0 99999999999999999999\n"}, http.StatusBadRequest},
		{"source with in-edges", server.GraphSpec{Edges: "0 1\n1 2\n", Sources: []int{1}}, http.StatusUnprocessableEntity},
		{"source out of range", server.GraphSpec{Edges: "0 1\n", Sources: []int{9}}, http.StatusUnprocessableEntity},
		{"unknown field", map[string]any{"foo": 1}, http.StatusBadRequest},
		{"malformed edge list", server.GraphSpec{Edges: "0\n"}, http.StatusBadRequest},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			var e struct {
				Error string `json:"error"`
			}
			if code := doJSON(t, "POST", ts.URL+"/v1/graphs", tc.body, &e); code != tc.want {
				t.Errorf("status = %d, want %d (error %q)", code, tc.want, e.Error)
			}
			if e.Error == "" {
				t.Error("missing error message")
			}
		})
	}
}

func TestSyncPlacementHeuristics(t *testing.T) {
	ts := newTestServer(t, server.Config{})
	info := uploadDiamond(t, ts.URL)
	for _, algo := range []string{"gmax", "g1", "gl", "glfast", "randk", "randi", "randw", "prop1"} {
		t.Run(algo, func(t *testing.T) {
			var res server.PlaceResult
			code := doJSON(t, "POST", ts.URL+"/v1/graphs/"+info.ID+"/place",
				server.PlaceSpec{Algorithm: algo, K: 1, Seed: 1}, &res)
			if code != http.StatusOK {
				t.Fatalf("status %d", code)
			}
			if res.PhiEmpty != 6 {
				t.Errorf("phi_empty = %v, want 6", res.PhiEmpty)
			}
			want := algo
			if algo == "glfast" {
				want = "gl" // the retired name echoes its successor
			}
			if res.GraphID != info.ID || res.Algorithm != want {
				t.Errorf("result = %+v", res)
			}
		})
	}
	// The informed heuristics all find the junction on the diamond.
	var res server.PlaceResult
	doJSON(t, "POST", ts.URL+"/v1/graphs/"+info.ID+"/place",
		server.PlaceSpec{Algorithm: "gmax", K: 1}, &res)
	if len(res.Filters) != 1 || res.Filters[0] != 3 || res.FR != 1 {
		t.Errorf("gmax on diamond = %+v, want filter [3] with FR 1", res)
	}
	// prop1 ignores k entirely (no k in the request is fine) and reports
	// the budget it actually used.
	code := doJSON(t, "POST", ts.URL+"/v1/graphs/"+info.ID+"/place",
		server.PlaceSpec{Algorithm: "prop1"}, &res)
	if code != http.StatusOK || res.K != len(res.Filters) || len(res.Filters) != 1 {
		t.Errorf("prop1 = %d %+v, want 200 with K == len(filters) == 1", code, res)
	}
}

// TestPlaceErrors is the table-driven error-path suite for place requests.
func TestPlaceErrors(t *testing.T) {
	ts := newTestServer(t, server.Config{})
	info := uploadDiamond(t, ts.URL)
	place := ts.URL + "/v1/graphs/" + info.ID + "/place"
	tests := []struct {
		name string
		url  string
		body any
		want int
	}{
		{"unknown graph", ts.URL + "/v1/graphs/g999/place", server.PlaceSpec{Algorithm: "gall", K: 1}, http.StatusNotFound},
		{"unknown algorithm", place, server.PlaceSpec{Algorithm: "simulated-annealing", K: 1}, http.StatusBadRequest},
		{"k zero", place, server.PlaceSpec{Algorithm: "gall"}, http.StatusBadRequest},
		{"k negative", place, server.PlaceSpec{Algorithm: "gall", K: -2}, http.StatusBadRequest},
		{"k beyond n", place, server.PlaceSpec{Algorithm: "gall", K: 6}, http.StatusBadRequest},
		{"unknown engine", place, server.PlaceSpec{Algorithm: "gall", K: 1, Engine: "posit"}, http.StatusBadRequest},
		{"bad sources override", place, server.PlaceSpec{Algorithm: "gall", K: 1, Sources: []int{3}}, http.StatusUnprocessableEntity},
		{"bad body", place, "not an object", http.StatusBadRequest},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if code := doJSON(t, "POST", tc.url, tc.body, nil); code != tc.want {
				t.Errorf("status = %d, want %d", code, tc.want)
			}
		})
	}
}

// TestAsyncGreedyMatchesLibraryAndCaches is the end-to-end acceptance
// path: upload → async greedy job → polled result equals a direct
// fp.Place + fp.FR call, and an identical second request is served
// from the result cache (observed via /metrics).
func TestAsyncGreedyMatchesLibraryAndCaches(t *testing.T) {
	ts := newTestServer(t, server.Config{})
	var info server.GraphInfo
	code := doJSON(t, "POST", ts.URL+"/v1/graphs",
		server.GraphSpec{Generator: "layered", Levels: 6, PerLevel: 15, Seed: 11}, &info)
	if code != http.StatusCreated {
		t.Fatalf("upload: status %d", code)
	}
	spec := server.PlaceSpec{Algorithm: "gall", K: 5}

	var jobInfo server.JobInfo
	code = doJSON(t, "POST", ts.URL+"/v1/graphs/"+info.ID+"/place", spec, &jobInfo)
	if code != http.StatusAccepted {
		t.Fatalf("place: status %d, want 202", code)
	}
	if jobInfo.State != server.JobQueued && jobInfo.State != server.JobRunning {
		t.Errorf("fresh job state = %s", jobInfo.State)
	}
	done := waitJob(t, ts.URL, jobInfo.ID)
	if done.State != server.JobDone || done.Result == nil {
		t.Fatalf("job finished as %s (error %q)", done.State, done.Error)
	}

	// Ground truth straight from the library on the same generated graph.
	g, src := fp.Layered(6, 15, 1, 4, 11)
	model, err := fp.NewModel(g, []int{src})
	if err != nil {
		t.Fatal(err)
	}
	ev := fp.NewFloat(model)
	want, err := fp.Place(context.Background(), ev, 5, fp.PlaceOptions{Strategy: fp.StrategyGreedyAll})
	if err != nil {
		t.Fatal(err)
	}
	filters := want.Filters
	wantFR := fp.FR(ev, fp.MaskOf(g.N(), filters))

	res := done.Result
	if len(res.Filters) != len(filters) {
		t.Fatalf("filters = %v, want %v", res.Filters, filters)
	}
	for i := range filters {
		if res.Filters[i] != filters[i] {
			t.Fatalf("filters = %v, want %v", res.Filters, filters)
		}
	}
	if math.Abs(res.FR-wantFR) > 1e-12 {
		t.Errorf("FR = %v, want %v", res.FR, wantFR)
	}
	if res.Cached {
		t.Error("first result marked cached")
	}

	// The identical request again: served inline from the result cache.
	var cached server.PlaceResult
	code = doJSON(t, "POST", ts.URL+"/v1/graphs/"+info.ID+"/place", spec, &cached)
	if code != http.StatusOK {
		t.Fatalf("cached place: status %d, want 200", code)
	}
	if !cached.Cached || math.Abs(cached.FR-wantFR) > 1e-12 {
		t.Errorf("cached result = %+v, want cached FR %v", cached, wantFR)
	}

	var ms server.MetricsSnapshot
	if code := doJSON(t, "GET", ts.URL+"/metrics", nil, &ms); code != http.StatusOK {
		t.Fatalf("metrics: status %d", code)
	}
	if ms.CacheHits != 1 || ms.CacheMisses != 1 {
		t.Errorf("cache hits/misses = %d/%d, want 1/1", ms.CacheHits, ms.CacheMisses)
	}
	if ms.JobsSubmitted != 1 || ms.JobsCompleted != 1 {
		t.Errorf("jobs submitted/completed = %d/%d, want 1/1", ms.JobsSubmitted, ms.JobsCompleted)
	}

	// A different k is a different cache slot.
	code = doJSON(t, "POST", ts.URL+"/v1/graphs/"+info.ID+"/place",
		server.PlaceSpec{Algorithm: "gall", K: 6}, &jobInfo)
	if code != http.StatusAccepted {
		t.Errorf("different k: status %d, want 202", code)
	}
	waitJob(t, ts.URL, jobInfo.ID)
}

// TestConcurrentJobSubmission fans out parallel async placements with
// increasing budgets and checks every job completes with monotonically
// nondecreasing FR (submodularity of F).
func TestConcurrentJobSubmission(t *testing.T) {
	ts := newTestServer(t, server.Config{})
	var info server.GraphInfo
	code := doJSON(t, "POST", ts.URL+"/v1/graphs",
		server.GraphSpec{Generator: "layered", Levels: 5, PerLevel: 12, Seed: 2}, &info)
	if code != http.StatusCreated {
		t.Fatalf("upload: status %d", code)
	}
	const jobs = 8
	ids := make([]string, jobs)
	var wg sync.WaitGroup
	for i := 0; i < jobs; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var ji server.JobInfo
			code := doJSON(t, "POST", ts.URL+"/v1/graphs/"+info.ID+"/place",
				server.PlaceSpec{Algorithm: "gall", K: i + 1}, &ji)
			if code != http.StatusAccepted {
				t.Errorf("job %d: status %d", i, code)
				return
			}
			ids[i] = ji.ID
		}(i)
	}
	wg.Wait()
	frs := make([]float64, jobs)
	for i, id := range ids {
		if id == "" {
			t.Fatalf("job %d was not submitted", i)
		}
		done := waitJob(t, ts.URL, id)
		if done.State != server.JobDone {
			t.Fatalf("job %d state %s (error %q)", i, done.State, done.Error)
		}
		frs[i] = done.Result.FR
	}
	for i := 1; i < jobs; i++ {
		if frs[i] < frs[i-1]-1e-12 {
			t.Errorf("FR(k=%d) = %v < FR(k=%d) = %v", i+1, frs[i], i, frs[i-1])
		}
	}
	var ms server.MetricsSnapshot
	doJSON(t, "GET", ts.URL+"/metrics", nil, &ms)
	if ms.JobsCompleted != jobs {
		t.Errorf("jobs_completed = %d, want %d", ms.JobsCompleted, jobs)
	}
}

func TestEvaluateEndpoint(t *testing.T) {
	ts := newTestServer(t, server.Config{})
	info := uploadDiamond(t, ts.URL)
	var res server.PlaceResult
	code := doJSON(t, "GET", ts.URL+"/v1/graphs/"+info.ID+"/evaluate?filters=3", nil, &res)
	if code != http.StatusOK {
		t.Fatalf("evaluate: status %d", code)
	}
	// Diamond Φ(∅,V) = 1 + 1 + 2 + 2 = 6; filtering node 3 drops the sink
	// to one copy: Φ = 5, F = 1, FR = 1 (node 3 is the only multiplicity
	// point).
	if res.PhiEmpty != 6 || res.PhiA != 5 || res.F != 1 || res.FR != 1 {
		t.Errorf("evaluate = %+v, want Φ(∅)=6 Φ(A)=5 F=1 FR=1", res)
	}
	// Empty filter set is allowed.
	if code := doJSON(t, "GET", ts.URL+"/v1/graphs/"+info.ID+"/evaluate", nil, &res); code != http.StatusOK || res.F != 0 {
		t.Errorf("empty evaluate: status %d, F = %v", code, res.F)
	}
	for _, q := range []string{"filters=99", "filters=x", "filters=3,3", "filters=-1"} {
		if code := doJSON(t, "GET", ts.URL+"/v1/graphs/"+info.ID+"/evaluate?"+q, nil, nil); code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", q, code)
		}
	}
	if code := doJSON(t, "GET", ts.URL+"/v1/graphs/g999/evaluate", nil, nil); code != http.StatusNotFound {
		t.Errorf("unknown graph: status %d", code)
	}
}

func TestRegistryLRUEviction(t *testing.T) {
	ts := newTestServer(t, server.Config{MaxGraphs: 2})
	g1 := uploadDiamond(t, ts.URL)
	g2 := uploadDiamond(t, ts.URL)
	// Touch g1 so g2 is the LRU victim when g3 arrives.
	if code := doJSON(t, "GET", ts.URL+"/v1/graphs/"+g1.ID, nil, nil); code != http.StatusOK {
		t.Fatalf("touch g1: status %d", code)
	}
	g3 := uploadDiamond(t, ts.URL)
	if code := doJSON(t, "GET", ts.URL+"/v1/graphs/"+g2.ID, nil, nil); code != http.StatusNotFound {
		t.Errorf("evicted graph still served: status %d", code)
	}
	for _, id := range []string{g1.ID, g3.ID} {
		if code := doJSON(t, "GET", ts.URL+"/v1/graphs/"+id, nil, nil); code != http.StatusOK {
			t.Errorf("graph %s gone: status %d", id, code)
		}
	}
	var ms server.MetricsSnapshot
	doJSON(t, "GET", ts.URL+"/metrics", nil, &ms)
	if ms.GraphsEvicted != 1 || ms.GraphsCreated != 3 {
		t.Errorf("created/evicted = %d/%d, want 3/1", ms.GraphsCreated, ms.GraphsEvicted)
	}
}

func TestDeleteGraph(t *testing.T) {
	ts := newTestServer(t, server.Config{})
	info := uploadDiamond(t, ts.URL)
	if code := doJSON(t, "DELETE", ts.URL+"/v1/graphs/"+info.ID, nil, nil); code != http.StatusNoContent {
		t.Fatalf("delete: status %d", code)
	}
	if code := doJSON(t, "DELETE", ts.URL+"/v1/graphs/"+info.ID, nil, nil); code != http.StatusNotFound {
		t.Errorf("double delete: status %d", code)
	}
}

func TestSourcesOverrideAndBigEngine(t *testing.T) {
	ts := newTestServer(t, server.Config{})
	// Two in-degree-0 nodes 0 and 5; default sources are both.
	var info server.GraphInfo
	code := doJSON(t, "POST", ts.URL+"/v1/graphs",
		server.GraphSpec{Edges: diamondEdges + "5 1\n"}, &info)
	if code != http.StatusCreated {
		t.Fatalf("upload: status %d", code)
	}
	if len(info.Sources) != 2 {
		t.Fatalf("sources = %v, want two", info.Sources)
	}
	var one, both server.PlaceResult
	doJSON(t, "POST", ts.URL+"/v1/graphs/"+info.ID+"/place",
		server.PlaceSpec{Algorithm: "gmax", K: 1, Sources: []int{0}}, &one)
	doJSON(t, "POST", ts.URL+"/v1/graphs/"+info.ID+"/place",
		server.PlaceSpec{Algorithm: "gmax", K: 1, Engine: "big"}, &both)
	if one.PhiEmpty >= both.PhiEmpty {
		t.Errorf("Φ with one source (%v) should be < with both (%v)", one.PhiEmpty, both.PhiEmpty)
	}
}

func TestHealthzAndRouteErrors(t *testing.T) {
	ts := newTestServer(t, server.Config{})
	var h struct {
		Status string `json:"status"`
	}
	if code := doJSON(t, "GET", ts.URL+"/healthz", nil, &h); code != http.StatusOK || h.Status != "ok" {
		t.Errorf("healthz = %d %+v", code, h)
	}
	if code := doJSON(t, "GET", ts.URL+"/v1/jobs/j999", nil, nil); code != http.StatusNotFound {
		t.Errorf("unknown job: status %d", code)
	}
	if code := doJSON(t, "DELETE", ts.URL+"/v1/jobs/j999", nil, nil); code != http.StatusNotFound {
		t.Errorf("cancel unknown job: status %d", code)
	}
	if code := doJSON(t, "GET", ts.URL+"/nope", nil, nil); code != http.StatusNotFound {
		t.Errorf("unknown route: status %d", code)
	}
}

func TestJobListing(t *testing.T) {
	ts := newTestServer(t, server.Config{})
	info := uploadDiamond(t, ts.URL)
	var ji server.JobInfo
	code := doJSON(t, "POST", ts.URL+"/v1/graphs/"+info.ID+"/place",
		server.PlaceSpec{Algorithm: "celf", K: 2}, &ji)
	if code != http.StatusAccepted {
		t.Fatalf("place: status %d", code)
	}
	waitJob(t, ts.URL, ji.ID)
	var list struct {
		Jobs []server.JobInfo `json:"jobs"`
	}
	if code := doJSON(t, "GET", ts.URL+"/v1/jobs", nil, &list); code != http.StatusOK {
		t.Fatalf("list jobs: status %d", code)
	}
	if len(list.Jobs) != 1 || list.Jobs[0].ID != ji.ID || list.Jobs[0].State != server.JobDone {
		t.Errorf("jobs = %+v", list.Jobs)
	}
	if fmt.Sprintf("%v", list.Jobs[0].Spec.Algorithm) != "celf" {
		t.Errorf("spec echoed wrong: %+v", list.Jobs[0].Spec)
	}
}

// TestParallelPlacement checks the parallelism request field: clamped to
// the server's MaxParallelism, identical filters to the serial run, the
// effective worker count echoed in the result, and the new /metrics
// gauges present.
func TestParallelPlacement(t *testing.T) {
	ts := newTestServer(t, server.Config{MaxParallelism: 2})
	info := uploadDiamond(t, ts.URL)
	place := ts.URL + "/v1/graphs/" + info.ID + "/place"

	var serial server.JobInfo
	if code := doJSON(t, "POST", place,
		server.PlaceSpec{Algorithm: "gall", K: 1}, &serial); code != http.StatusAccepted {
		t.Fatalf("serial place: status %d", code)
	}
	serialDone := waitJob(t, ts.URL, serial.ID)
	if serialDone.State != server.JobDone {
		t.Fatalf("serial job: %+v", serialDone)
	}

	// A parallelism request beyond the cap is clamped, reuses the cache
	// slot (parallelism is not part of the key) and returns identical
	// filters.
	var cached server.PlaceResult
	if code := doJSON(t, "POST", place,
		server.PlaceSpec{Algorithm: "gall", K: 1, Parallelism: 64}, &cached); code != http.StatusOK {
		t.Fatalf("parallel place: status %d", code)
	}
	if !cached.Cached {
		t.Error("parallel request missed the cache despite identical key")
	}
	if fmt.Sprint(cached.Filters) != fmt.Sprint(serialDone.Result.Filters) {
		t.Errorf("parallel filters %v != serial %v", cached.Filters, serialDone.Result.Filters)
	}
	if serialDone.Result.Oracle == nil || serialDone.Result.Oracle.GainEvaluations == 0 {
		t.Errorf("greedy result carries no oracle stats: %+v", serialDone.Result)
	}

	// Negative parallelism is a client error.
	var errBody map[string]any
	if code := doJSON(t, "POST", place,
		server.PlaceSpec{Algorithm: "gmax", K: 1, Parallelism: -1}, &errBody); code != http.StatusBadRequest {
		t.Fatalf("negative parallelism: status %d, want 400", code)
	}

	var snap server.MetricsSnapshot
	if code := doJSON(t, "GET", ts.URL+"/metrics", nil, &snap); code != http.StatusOK {
		t.Fatalf("metrics: status %d", code)
	}
	if snap.OracleEvaluations == 0 {
		t.Error("oracle_evaluations gauge never moved")
	}
	if snap.PlaceWorkersBusy != 0 {
		t.Errorf("place_workers_busy = %d after all jobs finished", snap.PlaceWorkersBusy)
	}
}
