package server_test

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/server"
)

// doJSONHeaders is doJSON plus request headers; it returns the status and
// response headers.
func doJSONHeaders(t *testing.T, method, url string, hdr map[string]string, body, out any) (int, http.Header) {
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
	for k, v := range hdr {
		req.Header.Set(k, v)
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
	return resp.StatusCode, resp.Header
}

func fetchText(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d: %s", url, resp.StatusCode, data)
	}
	return string(data)
}

func TestTenantAccountingEndToEnd(t *testing.T) {
	ts := newTestServer(t, server.Config{Version: "v-test"})
	var info server.GraphInfo
	code, _ := doJSONHeaders(t, "POST", ts.URL+"/v1/graphs", map[string]string{"X-FP-Tenant": "acme"},
		server.GraphSpec{Generator: "layered", Levels: 4, PerLevel: 8, Seed: 5}, &info)
	if code != http.StatusCreated {
		t.Fatalf("upload: status %d", code)
	}
	var jobInfo server.JobInfo
	code, _ = doJSONHeaders(t, "POST", ts.URL+"/v1/graphs/"+info.ID+"/place",
		map[string]string{"X-FP-Tenant": "acme"}, server.PlaceSpec{Algorithm: "gall", K: 3}, &jobInfo)
	if code != http.StatusAccepted {
		t.Fatalf("place: status %d, want 202", code)
	}
	if jobInfo.Tenant != "acme" {
		t.Errorf("job tenant = %q, want acme", jobInfo.Tenant)
	}
	waitJob(t, ts.URL, jobInfo.ID)

	var usage struct {
		Tenant            string `json:"tenant"`
		Requests          int64  `json:"requests"`
		JobsSubmitted     int64  `json:"jobs_submitted"`
		JobsCompleted     int64  `json:"jobs_completed"`
		Placements        int64  `json:"placements"`
		OracleEvaluations int64  `json:"oracle_evaluations"`
		ForwardPasses     int64  `json:"forward_passes"`
	}
	// Job accounting is charged as the worker finishes, marginally after
	// the job record turns terminal; poll briefly.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if code := doJSON(t, "GET", ts.URL+"/v1/tenants/acme/usage", nil, &usage); code != http.StatusOK {
			t.Fatalf("tenant usage: status %d", code)
		}
		if usage.JobsCompleted >= 1 || time.Now().After(deadline) {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	if usage.Tenant != "acme" || usage.Requests < 2 || usage.JobsSubmitted != 1 ||
		usage.JobsCompleted != 1 || usage.Placements < 1 || usage.OracleEvaluations < 1 {
		t.Errorf("acme usage = %+v, want ≥2 requests, 1 job submitted+completed, ≥1 placement with oracle work", usage)
	}

	// The tenant listing includes acme; an unseen tenant 404s.
	var list struct {
		Tenants []json.RawMessage `json:"tenants"`
	}
	if code := doJSON(t, "GET", ts.URL+"/v1/tenants", nil, &list); code != http.StatusOK || len(list.Tenants) == 0 {
		t.Fatalf("tenant list: status %d, %d tenants", code, len(list.Tenants))
	}
	if code := doJSON(t, "GET", ts.URL+"/v1/tenants/ghost/usage", nil, nil); code != http.StatusNotFound {
		t.Errorf("unseen tenant usage: status %d, want 404", code)
	}

	// Labeled Prometheus series and build info.
	prom := fetchText(t, ts.URL+"/metrics?format=prometheus")
	for _, want := range []string{
		`fpd_tenant_requests_total{tenant="acme"}`,
		`fpd_tenant_oracle_evaluations_total{tenant="acme"}`,
		`fpd_build_info{go_version="go`,
		`version="v-test"`,
	} {
		if !strings.Contains(prom, want) {
			t.Errorf("prometheus exposition missing %q", want)
		}
	}
}

func TestInvalidTenantRejected(t *testing.T) {
	ts := newTestServer(t, server.Config{})
	var body struct {
		Error     string `json:"error"`
		RequestID string `json:"request_id"`
	}
	code, hdr := doJSONHeaders(t, "GET", ts.URL+"/healthz", map[string]string{"X-FP-Tenant": "not a tenant!"}, nil, &body)
	if code != http.StatusBadRequest {
		t.Fatalf("invalid tenant: status %d, want 400", code)
	}
	if !strings.Contains(body.Error, "X-FP-Tenant") {
		t.Errorf("error body %q does not name the offending header", body.Error)
	}
	if body.RequestID == "" || hdr.Get("X-Request-ID") != body.RequestID {
		t.Errorf("rejection request id: body %q, header %q — want matching non-empty ids",
			body.RequestID, hdr.Get("X-Request-ID"))
	}
}

func TestRequestIDAndTraceparent(t *testing.T) {
	ts := newTestServer(t, server.Config{})

	// Client-supplied id echoes back; error bodies carry it too.
	var errBody struct {
		RequestID string `json:"request_id"`
	}
	code, hdr := doJSONHeaders(t, "GET", ts.URL+"/v1/graphs/nope", map[string]string{"X-Request-ID": "cli-42"}, nil, &errBody)
	if code != http.StatusNotFound {
		t.Fatalf("unknown graph: status %d, want 404", code)
	}
	if hdr.Get("X-Request-ID") != "cli-42" || errBody.RequestID != "cli-42" {
		t.Errorf("request id not echoed: header %q, body %q, want cli-42", hdr.Get("X-Request-ID"), errBody.RequestID)
	}

	// Absent (or malformed) id: one is generated.
	_, hdr = doJSONHeaders(t, "GET", ts.URL+"/healthz", map[string]string{"X-Request-ID": "has spaces"}, nil, nil)
	if id := hdr.Get("X-Request-ID"); id == "" || id == "has spaces" {
		t.Errorf("malformed client id not replaced: %q", id)
	}

	// A client traceparent is continued: same trace id, new span id.
	const parent = "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01"
	_, hdr = doJSONHeaders(t, "GET", ts.URL+"/healthz", map[string]string{"Traceparent": parent}, nil, nil)
	tp := hdr.Get("Traceparent")
	if len(tp) != len(parent) || tp[0:36] != parent[0:36] {
		t.Fatalf("traceparent %q does not continue trace %q", tp, parent)
	}
	if tp[36:52] == parent[36:52] {
		t.Error("response traceparent kept the client's span id")
	}

	// The trace survives into the async job record.
	var info server.GraphInfo
	doJSON(t, "POST", ts.URL+"/v1/graphs", server.GraphSpec{Edges: diamondEdges}, &info)
	var jobInfo server.JobInfo
	code, _ = doJSONHeaders(t, "POST", ts.URL+"/v1/graphs/"+info.ID+"/place",
		map[string]string{"Traceparent": parent, "X-Request-ID": "cli-43"},
		server.PlaceSpec{Algorithm: "gall", K: 1}, &jobInfo)
	if code != http.StatusAccepted {
		t.Fatalf("place: status %d, want 202", code)
	}
	if !strings.HasPrefix(jobInfo.Traceparent, parent[0:36]) {
		t.Errorf("job traceparent %q lost the client trace id", jobInfo.Traceparent)
	}
	if jobInfo.RequestID != "cli-43" {
		t.Errorf("job request id = %q, want cli-43", jobInfo.RequestID)
	}
	done := waitJob(t, ts.URL, jobInfo.ID)
	if done.Traceparent != jobInfo.Traceparent {
		t.Errorf("terminal job traceparent %q != submitted %q", done.Traceparent, jobInfo.Traceparent)
	}
}

func TestStatsHistoryEndpoint(t *testing.T) {
	ts := newTestServer(t, server.Config{HistoryInterval: 10 * time.Millisecond, HistoryRetention: time.Minute})
	uploadDiamond(t, ts.URL)

	var out struct {
		IntervalMS  int64 `json:"interval_ms"`
		RetentionMS int64 `json:"retention_ms"`
		Capacity    int   `json:"capacity"`
		Samples     []struct {
			T      time.Time          `json:"t"`
			Values map[string]float64 `json:"values"`
		} `json:"samples"`
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if code := doJSON(t, "GET", ts.URL+"/v1/stats/history", nil, &out); code != http.StatusOK {
			t.Fatalf("history: status %d", code)
		}
		if len(out.Samples) >= 2 || time.Now().After(deadline) {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if len(out.Samples) < 2 {
		t.Fatalf("history never accumulated samples: %+v", out)
	}
	if out.IntervalMS != 10 || out.Capacity < 1 {
		t.Errorf("interval_ms = %d, capacity = %d; want 10, ≥1", out.IntervalMS, out.Capacity)
	}
	last := out.Samples[len(out.Samples)-1]
	for _, key := range []string{"requests_total", "sched_queue_depth", "job_run_seconds_p50", "history_samples"} {
		if _, ok := last.Values[key]; !ok {
			t.Errorf("history sample missing %q; have %d keys", key, len(last.Values))
		}
	}
	if !out.Samples[0].T.Before(last.T) && len(out.Samples) > 1 {
		t.Errorf("samples not oldest-first: %v then %v", out.Samples[0].T, last.T)
	}

	if code := doJSON(t, "GET", ts.URL+"/v1/stats/history?window=bogus", nil, nil); code != http.StatusBadRequest {
		t.Errorf("bad window: status %d, want 400", code)
	}
	if code := doJSON(t, "GET", ts.URL+"/v1/stats/history?window=-5s", nil, nil); code != http.StatusBadRequest {
		t.Errorf("negative window: status %d, want 400", code)
	}
	// A tiny window still answers 200 with whatever fits.
	if code := doJSON(t, "GET", ts.URL+"/v1/stats/history?window=1ms", nil, &out); code != http.StatusOK {
		t.Errorf("tiny window: status %d, want 200", code)
	}
}

// TestSSELifecycleOverHTTP subscribes to /v1/events, submits an async
// placement, and expects the submitted → started → finished transitions
// for that job, in order, on the stream.
func TestSSELifecycleOverHTTP(t *testing.T) {
	ts := newTestServer(t, server.Config{})

	resp, err := http.Get(ts.URL + "/v1/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q, want text/event-stream", ct)
	}

	events := make(chan server.JobEvent, 64)
	go func() {
		defer close(events)
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			line := sc.Text()
			if !strings.HasPrefix(line, "data: ") {
				continue
			}
			var ev server.JobEvent
			if err := json.Unmarshal([]byte(line[len("data: "):]), &ev); err == nil {
				events <- ev
			}
		}
	}()

	var info server.GraphInfo
	doJSON(t, "POST", ts.URL+"/v1/graphs",
		server.GraphSpec{Generator: "layered", Levels: 4, PerLevel: 8, Seed: 7}, &info)
	var jobInfo server.JobInfo
	code, _ := doJSONHeaders(t, "POST", ts.URL+"/v1/graphs/"+info.ID+"/place",
		map[string]string{"X-FP-Tenant": "streamer"}, server.PlaceSpec{Algorithm: "gall", K: 2}, &jobInfo)
	if code != http.StatusAccepted {
		t.Fatalf("place: status %d, want 202", code)
	}

	var got []server.JobEvent
	deadline := time.After(15 * time.Second)
collect:
	for {
		select {
		case ev, ok := <-events:
			if !ok {
				t.Fatalf("stream ended early; got %+v", got)
			}
			if ev.JobID != jobInfo.ID {
				continue
			}
			got = append(got, ev)
			if ev.Type == server.EventFinished || ev.Type == server.EventFailed {
				break collect
			}
		case <-deadline:
			t.Fatalf("no terminal event on the stream; got %+v", got)
		}
	}
	var types []string
	var lastSeq int64
	for _, ev := range got {
		types = append(types, ev.Type)
		if ev.Seq <= lastSeq {
			t.Errorf("seq not increasing: %d after %d", ev.Seq, lastSeq)
		}
		lastSeq = ev.Seq
		if ev.Tenant != "streamer" {
			t.Errorf("event tenant = %q, want streamer", ev.Tenant)
		}
	}
	if len(types) < 3 || types[0] != server.EventSubmitted || types[1] != server.EventStarted ||
		types[len(types)-1] != server.EventFinished {
		t.Errorf("event order = %v, want submitted, started, ..., finished", types)
	}
}

// TestSSETypeFilter checks ?types= narrows the stream.
func TestSSETypeFilter(t *testing.T) {
	ts := newTestServer(t, server.Config{})
	resp, err := http.Get(ts.URL + "/v1/events?types=finished")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	events := make(chan server.JobEvent, 64)
	go func() {
		defer close(events)
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			if line := sc.Text(); strings.HasPrefix(line, "data: ") {
				var ev server.JobEvent
				if json.Unmarshal([]byte(line[len("data: "):]), &ev) == nil {
					events <- ev
				}
			}
		}
	}()
	var info server.GraphInfo
	doJSON(t, "POST", ts.URL+"/v1/graphs",
		server.GraphSpec{Generator: "layered", Levels: 3, PerLevel: 6, Seed: 9}, &info)
	var jobInfo server.JobInfo
	doJSON(t, "POST", ts.URL+"/v1/graphs/"+info.ID+"/place", server.PlaceSpec{Algorithm: "gall", K: 2}, &jobInfo)
	select {
	case ev := <-events:
		if ev.Type != server.EventFinished {
			t.Errorf("filtered stream delivered %q, want only finished", ev.Type)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("filtered stream delivered nothing")
	}
}

// TestConcurrentScrapeUnderLoad races Prometheus scrapes, tenant reads
// and placement submissions; the payoff is under -race.
func TestConcurrentScrapeUnderLoad(t *testing.T) {
	ts := newTestServer(t, server.Config{HistoryInterval: 5 * time.Millisecond})
	var info server.GraphInfo
	doJSON(t, "POST", ts.URL+"/v1/graphs",
		server.GraphSpec{Generator: "layered", Levels: 4, PerLevel: 8, Seed: 3}, &info)

	var wg sync.WaitGroup
	tenants := []string{"t-a", "t-b", "t-c"}
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for k := 1; k <= 4; k++ {
				var jobInfo server.JobInfo
				code, _ := doJSONHeaders(t, "POST", ts.URL+"/v1/graphs/"+info.ID+"/place",
					map[string]string{"X-FP-Tenant": tenants[i]},
					server.PlaceSpec{Algorithm: "gall", K: k}, &jobInfo)
				if code == http.StatusAccepted {
					waitJob(t, ts.URL, jobInfo.ID)
				}
			}
		}(i)
	}
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := 0; n < 20; n++ {
				fetchText(t, ts.URL+"/metrics?format=prometheus")
				doJSON(t, "GET", ts.URL+"/v1/tenants", nil, nil)
				doJSON(t, "GET", ts.URL+"/v1/stats/history", nil, nil)
			}
		}()
	}
	wg.Wait()

	prom := fetchText(t, ts.URL+"/metrics?format=prometheus")
	for _, tn := range tenants {
		if !strings.Contains(prom, `fpd_tenant_placements_total{tenant="`+tn+`"}`) {
			t.Errorf("exposition missing placements series for %s", tn)
		}
	}
}
