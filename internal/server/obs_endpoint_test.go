package server_test

import (
	"io"
	"net/http"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/server"
)

// getRaw fetches url with the given Accept header and returns status,
// content type and body.
func getRaw(t *testing.T, url, accept string) (int, string, string) {
	t.Helper()
	req, err := http.NewRequest("GET", url, nil)
	if err != nil {
		t.Fatal(err)
	}
	if accept != "" {
		req.Header.Set("Accept", accept)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header.Get("Content-Type"), string(body)
}

// stageNames flattens a job timeline to its stage-name set.
func stageNames(info server.JobInfo) map[string]bool {
	out := make(map[string]bool, len(info.Timeline))
	for _, rec := range info.Timeline {
		out[rec.Name] = true
	}
	return out
}

// TestMetricsPrometheusExposition drives real traffic through the server
// and checks the scrape surface: content negotiation, the version header,
// the four core latency histograms, and a lint-clean exposition.
func TestMetricsPrometheusExposition(t *testing.T) {
	ts := newTestServer(t, server.Config{})
	info := uploadDiamond(t, ts.URL)

	// Generate one sync placement and one async job so the route, job and
	// stage histograms all have observations.
	if code := doJSON(t, "POST", ts.URL+"/v1/graphs/"+info.ID+"/place",
		server.PlaceSpec{Algorithm: "gmax", K: 1}, nil); code != http.StatusOK {
		t.Fatalf("sync place: status %d", code)
	}
	var ji server.JobInfo
	if code := doJSON(t, "POST", ts.URL+"/v1/graphs/"+info.ID+"/place",
		server.PlaceSpec{Algorithm: "gall", K: 1}, &ji); code != http.StatusAccepted {
		t.Fatalf("async place: status %d", code)
	}
	waitJob(t, ts.URL, ji.ID)

	code, ctype, body := getRaw(t, ts.URL+"/metrics?format=prometheus", "")
	if code != http.StatusOK {
		t.Fatalf("prometheus metrics: status %d", code)
	}
	if !strings.Contains(ctype, "text/plain") || !strings.Contains(ctype, "version=0.0.4") {
		t.Errorf("content type = %q, want text/plain version=0.0.4", ctype)
	}
	for _, hist := range []string{
		"fpd_http_request_seconds",
		"fpd_job_queue_wait_seconds",
		"fpd_job_run_seconds",
		"fpd_sched_queue_wait_seconds",
		"fpd_place_stage_seconds",
	} {
		if !strings.Contains(body, "# TYPE "+hist+" histogram\n") {
			t.Errorf("exposition missing histogram %s", hist)
		}
	}
	// The route and stage vec labels carry real observations by now.
	if !strings.Contains(body, `fpd_http_request_seconds_bucket{route=`) {
		t.Error("http latency histogram has no route-labeled buckets")
	}
	if !strings.Contains(body, `fpd_place_stage_seconds_bucket{stage="greedy-round"`) {
		t.Error("stage histogram has no greedy-round buckets")
	}
	if !strings.Contains(body, "fpd_jobs_completed 1\n") {
		t.Error("counter snapshot missing from exposition")
	}
	if err := obs.LintPrometheus(strings.NewReader(body)); err != nil {
		t.Errorf("exposition fails lint: %v", err)
	}

	// Content negotiation: a text/plain Accept header (what a Prometheus
	// scraper sends) selects the exposition; ?format=json overrides it.
	if _, _, body := getRaw(t, ts.URL+"/metrics", "text/plain"); !strings.HasPrefix(body, "# HELP ") {
		t.Errorf("Accept: text/plain did not select Prometheus: %.80s", body)
	}
	if _, _, body := getRaw(t, ts.URL+"/metrics?format=json", "text/plain"); !strings.HasPrefix(body, "{") {
		t.Errorf("?format=json did not select JSON: %.80s", body)
	}
	if _, _, body := getRaw(t, ts.URL+"/metrics", ""); !strings.HasPrefix(body, "{") {
		t.Errorf("default /metrics is not JSON: %.80s", body)
	}
}

// TestJobTimelines checks GET /v1/jobs/{id} reports a stage timeline for
// the async job kinds: solo greedy-all and CELF jobs, and gang batches.
func TestJobTimelines(t *testing.T) {
	ts := newTestServer(t, server.Config{})
	info := uploadDiamond(t, ts.URL)

	tests := []struct {
		algo  string
		stage string // the algorithm-specific core stage
	}{
		{"gall", "greedy-round"},
		{"celf", "greedy-round"},
	}
	for _, tc := range tests {
		t.Run(tc.algo, func(t *testing.T) {
			var ji server.JobInfo
			if code := doJSON(t, "POST", ts.URL+"/v1/graphs/"+info.ID+"/place",
				server.PlaceSpec{Algorithm: tc.algo, K: 2}, &ji); code != http.StatusAccepted {
				t.Fatalf("place: status %d", code)
			}
			done := waitJob(t, ts.URL, ji.ID)
			if done.State != server.JobDone {
				t.Fatalf("job state %s (%s)", done.State, done.Error)
			}
			stages := stageNames(done)
			for _, want := range []string{"queued", "run", "build-evaluator", tc.stage} {
				if !stages[want] {
					t.Errorf("timeline missing %q: %+v", want, done.Timeline)
				}
			}
			// Every recorded stage ran at least once.
			for _, rec := range done.Timeline {
				if rec.Count < 1 {
					t.Errorf("stage %s has count %d", rec.Name, rec.Count)
				}
			}
		})
	}

	// A gang batch is one job; its timeline spans the whole gang.
	g2 := uploadLayered(t, ts.URL, 7)
	var job server.JobInfo
	code := doJSON(t, "POST", ts.URL+"/v1/placements:batch", server.BatchPlaceSpec{
		Graphs: []string{info.ID, g2.ID},
		Spec:   server.PlaceSpec{Algorithm: "gall", K: 1},
	}, &job)
	if code != http.StatusAccepted {
		t.Fatalf("batch submit: status %d", code)
	}
	done := waitJob(t, ts.URL, job.ID)
	if done.State != server.JobDone {
		t.Fatalf("batch job state %s (%s)", done.State, done.Error)
	}
	stages := stageNames(done)
	for _, want := range []string{"queued", "run"} {
		if !stages[want] {
			t.Errorf("batch timeline missing %q: %+v", want, done.Timeline)
		}
	}

	// Synchronous placements return inline results, not jobs — their cost
	// shows up in PlaceResult.Passes instead of a timeline.
	var res server.PlaceResult
	if code := doJSON(t, "POST", ts.URL+"/v1/graphs/"+info.ID+"/place",
		server.PlaceSpec{Algorithm: "gmax", K: 1}, &res); code != http.StatusOK {
		t.Fatalf("sync place: status %d", code)
	}
	if res.Passes == nil || res.Passes.Forward == 0 {
		t.Errorf("sync gmax result carries no pass stats: %+v", res.Passes)
	}
}
