package server_test

import (
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/server"
)

// TestMLCELFPlacementEndToEnd drives multilevel placement through the
// HTTP surface: an async "mlcelf" job returns celf's filters and
// coarsening stats, its timeline records the coarsen stage, the
// fpd_coarsen_* counters move, and the tenant is charged for the
// contraction.
func TestMLCELFPlacementEndToEnd(t *testing.T) {
	ts := newTestServer(t, server.Config{})
	// twitter contracts to a handful of supernodes, so the exact path
	// coarsens first at any budget.
	var info server.GraphInfo
	if code := doJSON(t, "POST", ts.URL+"/v1/graphs", server.GraphSpec{Generator: "twitter", Scale: 0.05, Seed: 23}, &info); code != http.StatusCreated {
		t.Fatalf("upload twitter: status %d", code)
	}

	var ji server.JobInfo
	code, _ := doJSONHeaders(t, "POST", ts.URL+"/v1/graphs/"+info.ID+"/place",
		map[string]string{"X-FP-Tenant": "coarseco"},
		server.PlaceSpec{Algorithm: "mlcelf", K: 3}, &ji)
	if code != http.StatusAccepted {
		t.Fatalf("mlcelf place: status %d, want 202", code)
	}
	done := waitJob(t, ts.URL, ji.ID)
	if done.State != server.JobDone {
		t.Fatalf("job state %s (%s)", done.State, done.Error)
	}
	res := done.Result
	if res == nil {
		t.Fatal("mlcelf job carries no result")
	}
	if len(res.Filters) != 3 {
		t.Errorf("filters = %v, want 3 placements", res.Filters)
	}
	if res.Coarsen == nil {
		t.Fatal("mlcelf result carries no coarsen stats")
	}
	if res.Coarsen.NodesAfter > res.Coarsen.NodesBefore {
		t.Errorf("coarsen stats grew the graph: %+v", res.Coarsen)
	}
	stages := stageNames(done)
	for _, want := range []string{"queued", "run", "build-evaluator", "coarsen"} {
		if !stages[want] {
			t.Errorf("timeline missing %q: %+v", want, done.Timeline)
		}
	}

	// An mlcelf placement equals celf's on the same graph: both run one
	// exact path, which coarsened here, so celf reports the same
	// contraction and oracle work.
	var celfJob server.JobInfo
	code, _ = doJSONHeaders(t, "POST", ts.URL+"/v1/graphs/"+info.ID+"/place", nil,
		server.PlaceSpec{Algorithm: "celf", K: 3}, &celfJob)
	if code != http.StatusAccepted {
		t.Fatalf("celf place: status %d", code)
	}
	celfDone := waitJob(t, ts.URL, celfJob.ID)
	if celfDone.Result == nil {
		t.Fatalf("celf job state %s", celfDone.State)
	}
	if c := celfDone.Result.Coarsen; c == nil || *c != *res.Coarsen {
		t.Errorf("celf coarsen %+v, mlcelf %+v", c, res.Coarsen)
	}
	if o := celfDone.Result.Oracle; o == nil || res.Oracle == nil || *o != *res.Oracle {
		t.Errorf("celf oracle %+v, mlcelf %+v", o, res.Oracle)
	}
	if want := celfDone.Result.Filters; len(want) != len(res.Filters) {
		t.Errorf("mlcelf filters %v, celf filters %v", res.Filters, want)
	} else {
		for i := range want {
			if res.Filters[i] != want[i] {
				t.Errorf("mlcelf filters %v, celf filters %v", res.Filters, want)
				break
			}
		}
	}

	// The daemon-level coarsen counters moved.
	var snap server.MetricsSnapshot
	if code := doJSON(t, "GET", ts.URL+"/metrics", nil, &snap); code != http.StatusOK {
		t.Fatalf("metrics: status %d", code)
	}
	if snap.CoarsenPlacements < 1 || snap.CoarsenNodesContracted < 1 {
		t.Errorf("coarsen counters = (%d placements, %d nodes contracted), want both ≥ 1",
			snap.CoarsenPlacements, snap.CoarsenNodesContracted)
	}

	// Tenant accounting charges the contraction (charged as the worker
	// finishes, marginally after the job turns terminal; poll briefly).
	var usage struct {
		CoarsenPlacements      int64 `json:"coarsen_placements"`
		CoarsenNodesContracted int64 `json:"coarsen_nodes_contracted"`
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if code := doJSON(t, "GET", ts.URL+"/v1/tenants/coarseco/usage", nil, &usage); code != http.StatusOK {
			t.Fatalf("tenant usage: status %d", code)
		}
		if usage.CoarsenPlacements >= 1 || time.Now().After(deadline) {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	if usage.CoarsenPlacements < 1 {
		t.Errorf("tenant usage = %+v, want coarsen placements ≥ 1", usage)
	}

	// The per-tenant coarsen family appears in the scrape alongside the
	// daemon-level counters.
	body := fetchText(t, ts.URL+"/metrics?format=prometheus")
	if !strings.Contains(body, `fpd_tenant_coarsen_placements_total{tenant="coarseco"}`) {
		t.Error("exposition missing fpd_tenant_coarsen_placements_total for the tenant")
	}
	if !strings.Contains(body, "fpd_coarsen_placements_total ") {
		t.Error("exposition missing fpd_coarsen_placements_total")
	}

	// An identical resubmit is answered inline from the placement cache,
	// coarsen stats intact.
	var cached server.PlaceResult
	code, _ = doJSONHeaders(t, "POST", ts.URL+"/v1/graphs/"+info.ID+"/place",
		map[string]string{"X-FP-Tenant": "coarseco"},
		server.PlaceSpec{Algorithm: "mlcelf", K: 3}, &cached)
	if code != http.StatusOK || !cached.Cached {
		t.Errorf("identical mlcelf resubmit not served from cache: status %d, %+v", code, cached)
	}
	if cached.Coarsen == nil {
		t.Error("cached mlcelf result lost its coarsen stats")
	}

	// Every retired coarsen mode names the same lossless path, so it
	// shares the cache slot.
	for _, mode := range []string{"lossless", "bounded"} {
		var folded server.PlaceResult
		code, _ = doJSONHeaders(t, "POST", ts.URL+"/v1/graphs/"+info.ID+"/place", nil,
			server.PlaceSpec{Algorithm: "mlcelf", K: 3, Coarsen: mode}, &folded)
		if code != http.StatusOK || !folded.Cached {
			t.Errorf("coarsen %q missed the default slot: status %d, %+v", mode, code, folded)
		}
	}
}

// TestMLCELFPlacementValidation pins the coarsen knob's server-side
// contract: unknown modes are rejected for mlcelf, and the field is
// irrelevant (zeroed, same cache slot) for other algorithms.
func TestMLCELFPlacementValidation(t *testing.T) {
	ts := newTestServer(t, server.Config{})
	info := uploadDiamond(t, ts.URL)

	for _, bad := range []server.PlaceSpec{
		{Algorithm: "mlcelf", K: 1, Coarsen: "sideways"},
	} {
		if code := doJSON(t, "POST", ts.URL+"/v1/graphs/"+info.ID+"/place", bad, nil); code != http.StatusBadRequest {
			t.Errorf("spec %+v: status %d, want 400", bad, code)
		}
	}

	// The coarsen field on a non-multilevel algorithm is ignored, not an
	// error — validate zeroes it, so the decorated request lands in the
	// same cache slot as the plain one.
	var ji server.JobInfo
	if code := doJSON(t, "POST", ts.URL+"/v1/graphs/"+info.ID+"/place",
		server.PlaceSpec{Algorithm: "celf", K: 1}, &ji); code != http.StatusAccepted {
		t.Fatalf("celf: status %d", code)
	}
	waitJob(t, ts.URL, ji.ID)
	var second server.PlaceResult
	if code := doJSON(t, "POST", ts.URL+"/v1/graphs/"+info.ID+"/place",
		server.PlaceSpec{Algorithm: "celf", K: 1, Coarsen: "lossless"}, &second); code != http.StatusOK {
		t.Fatalf("decorated celf: status %d", code)
	}
	if !second.Cached {
		t.Error("coarsen-decorated celf missed the plain request's cache slot")
	}
}
