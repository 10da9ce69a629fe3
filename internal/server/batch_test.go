package server_test

import (
	"fmt"
	"net/http"
	"testing"

	"repro/internal/server"
)

// uploadLayered registers a distinct generated graph per seed.
func uploadLayered(t *testing.T, base string, seed int64) server.GraphInfo {
	t.Helper()
	var info server.GraphInfo
	spec := server.GraphSpec{Name: fmt.Sprintf("layered-%d", seed), Generator: "layered",
		Levels: 6, PerLevel: 10, Seed: seed}
	if code := doJSON(t, "POST", base+"/v1/graphs", spec, &info); code != http.StatusCreated {
		t.Fatalf("upload layered %d: status %d", seed, code)
	}
	return info
}

// TestBatchPlaceEndToEnd drives the gang path: N graphs, one job, one
// terminal state per graph, per-graph cache entries populated.
func TestBatchPlaceEndToEnd(t *testing.T) {
	ts := newTestServer(t, server.Config{})
	ids := make([]string, 4)
	for i := range ids {
		ids[i] = uploadLayered(t, ts.URL, int64(i+1)).ID
	}

	var job server.JobInfo
	code := doJSON(t, "POST", ts.URL+"/v1/placements:batch", server.BatchPlaceSpec{
		Graphs: ids,
		Spec:   server.PlaceSpec{Algorithm: "gall", K: 3, Parallelism: 2},
	}, &job)
	if code != http.StatusAccepted {
		t.Fatalf("batch submit: status %d", code)
	}
	if len(job.Batch) != len(ids) {
		t.Fatalf("job carries %d batch items, want %d", len(job.Batch), len(ids))
	}
	done := waitJob(t, ts.URL, job.ID)
	if done.State != server.JobDone {
		t.Fatalf("job state %s (%s)", done.State, done.Error)
	}
	for _, item := range done.Batch {
		if item.State != server.JobDone || item.Result == nil {
			t.Fatalf("item %+v not done", item)
		}
		if len(item.Result.Filters) != 3 {
			t.Errorf("graph %s placed %d filters, want 3", item.GraphID, len(item.Result.Filters))
		}
	}

	// Per-graph cache entries were populated: a later SOLO request for any
	// member graph answers 200 from cache, no new job.
	for _, id := range ids {
		var res server.PlaceResult
		code := doJSON(t, "POST", ts.URL+"/v1/graphs/"+id+"/place",
			server.PlaceSpec{Algorithm: "gall", K: 3}, &res)
		if code != http.StatusOK || !res.Cached {
			t.Fatalf("solo after batch on %s: status %d, cached %v", id, code, res.Cached)
		}
	}

	var ms server.MetricsSnapshot
	doJSON(t, "GET", ts.URL+"/metrics", nil, &ms)
	if ms.BatchesSubmitted != 1 {
		t.Errorf("batches_submitted = %d, want 1", ms.BatchesSubmitted)
	}
	if ms.BatchGraphsInflight != 0 {
		t.Errorf("batch_graphs_inflight = %d after completion", ms.BatchGraphsInflight)
	}
	if ms.SchedWorkers < 1 {
		t.Errorf("sched_workers = %d, want ≥ 1", ms.SchedWorkers)
	}
}

// TestBatchCacheKeyNormalization is the cache-key satellite: batch specs
// canonicalize graph order and exclude parallelism, so (a) a permuted
// batch with a different parallelism is answered inline from the first
// batch's cache entries, and (b) a solo request at yet another
// parallelism hits too.
func TestBatchCacheKeyNormalization(t *testing.T) {
	ts := newTestServer(t, server.Config{})
	g1 := uploadLayered(t, ts.URL, 11).ID
	g2 := uploadLayered(t, ts.URL, 12).ID

	var job server.JobInfo
	code := doJSON(t, "POST", ts.URL+"/v1/placements:batch", server.BatchPlaceSpec{
		Graphs: []string{g2, g1}, // reversed on purpose
		Spec:   server.PlaceSpec{Algorithm: "celf", K: 2, Parallelism: 3},
	}, &job)
	if code != http.StatusAccepted {
		t.Fatalf("first batch: status %d", code)
	}
	if done := waitJob(t, ts.URL, job.ID); done.State != server.JobDone {
		t.Fatalf("first batch ended %s (%s)", done.State, done.Error)
	}

	// Same set, different order AND different parallelism: every slot is
	// cached, so the response is inline 200 — no job.
	var inline server.BatchResult
	code = doJSON(t, "POST", ts.URL+"/v1/placements:batch", server.BatchPlaceSpec{
		Graphs: []string{g1, g2},
		Spec:   server.PlaceSpec{Algorithm: "celf", K: 2, Parallelism: 7},
	}, &inline)
	if code != http.StatusOK {
		t.Fatalf("permuted batch: status %d, want inline 200", code)
	}
	if len(inline.Graphs) != 2 {
		t.Fatalf("inline result has %d graphs", len(inline.Graphs))
	}
	for _, item := range inline.Graphs {
		if item.State != server.JobDone || item.Result == nil || !item.Result.Cached {
			t.Fatalf("inline item %+v not served from cache", item)
		}
	}

	// Solo request at serial parallelism shares the same entries.
	var res server.PlaceResult
	code = doJSON(t, "POST", ts.URL+"/v1/graphs/"+g1+"/place",
		server.PlaceSpec{Algorithm: "celf", K: 2}, &res)
	if code != http.StatusOK || !res.Cached {
		t.Fatalf("solo after batch: status %d, cached %v", code, res.Cached)
	}
}

// TestBatchPartialCachePrefill checks a batch over a half-cached set only
// runs the misses: the cached graph comes back done immediately in the
// 202 body.
func TestBatchPartialCachePrefill(t *testing.T) {
	ts := newTestServer(t, server.Config{})
	g1 := uploadLayered(t, ts.URL, 21).ID
	g2 := uploadLayered(t, ts.URL, 22).ID

	// Prime g1 through the solo path.
	var solo server.JobInfo
	if code := doJSON(t, "POST", ts.URL+"/v1/graphs/"+g1+"/place",
		server.PlaceSpec{Algorithm: "gall", K: 2}, &solo); code != http.StatusAccepted {
		t.Fatalf("solo prime: status %d", code)
	}
	waitJob(t, ts.URL, solo.ID)

	var job server.JobInfo
	code := doJSON(t, "POST", ts.URL+"/v1/placements:batch", server.BatchPlaceSpec{
		Graphs: []string{g1, g2},
		Spec:   server.PlaceSpec{Algorithm: "gall", K: 2},
	}, &job)
	if code != http.StatusAccepted {
		t.Fatalf("batch: status %d", code)
	}
	var prefilled int
	for _, item := range job.Batch {
		if item.GraphID == g1 {
			if item.State != server.JobDone || item.Result == nil || !item.Result.Cached {
				t.Fatalf("cached member not prefilled: %+v", item)
			}
			prefilled++
		}
	}
	if prefilled != 1 {
		t.Fatalf("prefilled %d items, want 1", prefilled)
	}
	if done := waitJob(t, ts.URL, job.ID); done.State != server.JobDone {
		t.Fatalf("batch ended %s", done.State)
	}
}

// TestBatchErrorPaths covers the request validation surface.
func TestBatchErrorPaths(t *testing.T) {
	ts := newTestServer(t, server.Config{})
	id := uploadLayered(t, ts.URL, 41).ID

	var errBody struct {
		Error string `json:"error"`
	}
	if code := doJSON(t, "POST", ts.URL+"/v1/placements:batch",
		server.BatchPlaceSpec{Spec: server.PlaceSpec{Algorithm: "gall", K: 1}}, &errBody); code != http.StatusBadRequest {
		t.Errorf("empty graph list: status %d", code)
	}
	if code := doJSON(t, "POST", ts.URL+"/v1/placements:batch", server.BatchPlaceSpec{
		Graphs: []string{id, "nope"},
		Spec:   server.PlaceSpec{Algorithm: "gall", K: 1},
	}, &errBody); code != http.StatusNotFound {
		t.Errorf("unknown graph: status %d", code)
	}
	if code := doJSON(t, "POST", ts.URL+"/v1/placements:batch", server.BatchPlaceSpec{
		Graphs: []string{id},
		Spec:   server.PlaceSpec{Algorithm: "made-up", K: 1},
	}, &errBody); code != http.StatusBadRequest {
		t.Errorf("unknown algorithm: status %d", code)
	}
	if code := doJSON(t, "POST", ts.URL+"/v1/placements:batch", server.BatchPlaceSpec{
		Graphs: []string{id},
		Spec:   server.PlaceSpec{Algorithm: "gall", K: 100000},
	}, &errBody); code != http.StatusBadRequest {
		t.Errorf("k out of range: status %d", code)
	}
}
