package server_test

import (
	"fmt"
	"net/http"
	"strings"
	"testing"

	"repro/internal/server"
)

// TestPlaceUnencodableResultIs500: on a chain of 1,100 diamonds the path
// counts overflow float64, so gmax's report carries NaN, which
// encoding/json rejects. The daemon must answer a JSON 500 error with the
// request id, counted in request_errors, never a 200 with an empty body.
func TestPlaceUnencodableResultIs500(t *testing.T) {
	ts := newTestServer(t, server.Config{})
	const diamonds = 1100
	var edges strings.Builder
	for i := 0; i < diamonds; i++ {
		top := 3 * i
		fmt.Fprintf(&edges, "%d %d\n%d %d\n%d %d\n%d %d\n", top, top+1, top, top+2, top+1, top+3, top+2, top+3)
	}
	var info server.GraphInfo
	if code := doJSON(t, "POST", ts.URL+"/v1/graphs", server.GraphSpec{Edges: edges.String()}, &info); code != http.StatusCreated {
		t.Fatalf("upload: status %d", code)
	}
	if info.Nodes != 3*diamonds+1 {
		t.Fatalf("nodes = %d, want %d", info.Nodes, 3*diamonds+1)
	}
	var e struct {
		Error     string `json:"error"`
		RequestID string `json:"request_id"`
	}
	code := doJSON(t, "POST", ts.URL+"/v1/graphs/"+info.ID+"/place", server.PlaceSpec{Algorithm: "gmax", K: 3}, &e)
	if code != http.StatusInternalServerError {
		t.Fatalf("status = %d, want 500", code)
	}
	if !strings.Contains(e.Error, "encode response") || e.RequestID == "" {
		t.Errorf("error body = %+v, want an encode error with a request id", e)
	}
	var ms server.MetricsSnapshot
	doJSON(t, "GET", ts.URL+"/metrics", nil, &ms)
	if ms.RequestErrors != 1 {
		t.Errorf("request_errors = %d, want 1", ms.RequestErrors)
	}
}

// TestExactMLCELFIgnoresSeed: a lossless mlcelf run without sampling
// knobs never reads the seed, so two requests differing only in seed share
// one cache slot and one job.
func TestExactMLCELFIgnoresSeed(t *testing.T) {
	ts := newTestServer(t, server.Config{})
	info := uploadDiamond(t, ts.URL)
	place := ts.URL + "/v1/graphs/" + info.ID + "/place"
	var job server.JobInfo
	if code := doJSON(t, "POST", place, server.PlaceSpec{Algorithm: "mlcelf", K: 1, Coarsen: "lossless", Seed: 1}, &job); code != http.StatusAccepted {
		t.Fatalf("first: status %d, want 202", code)
	}
	if done := waitJob(t, ts.URL, job.ID); done.State != server.JobDone {
		t.Fatalf("job finished as %s (error %q)", done.State, done.Error)
	}
	var res server.PlaceResult
	if code := doJSON(t, "POST", place, server.PlaceSpec{Algorithm: "mlcelf", K: 1, Coarsen: "lossless", Seed: 2}, &res); code != http.StatusOK || !res.Cached {
		t.Fatalf("second: status %d cached %v, want a 200 cache hit", code, res.Cached)
	}
	var ms server.MetricsSnapshot
	doJSON(t, "GET", ts.URL+"/metrics", nil, &ms)
	if ms.CacheMisses != 1 || ms.JobsSubmitted != 1 {
		t.Errorf("cache_misses %d jobs_submitted %d, want 1 and 1", ms.CacheMisses, ms.JobsSubmitted)
	}

	// With a sampling knob set, mlcelf samples, so the seed matters again.
	for seed := int64(1); seed <= 2; seed++ {
		if code := doJSON(t, "POST", place, server.PlaceSpec{Algorithm: "mlcelf", K: 1, Quality: 0.2, Seed: seed}, &job); code != http.StatusAccepted {
			t.Fatalf("sampled seed %d: status %d, want 202 (a fresh slot)", seed, code)
		}
		waitJob(t, ts.URL, job.ID)
	}
}
