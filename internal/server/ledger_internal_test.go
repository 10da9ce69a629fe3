package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/sched"
)

// ledgerServer starts a daemon sized so one short script reaches every
// counter: two run slots, a one-place queue and a two-graph registry.
func ledgerServer(t *testing.T) (*Server, string) {
	t.Helper()
	old := sched.Default().Workers()
	t.Cleanup(func() { sched.SetDefaultWorkers(old) })
	s := New(Config{SchedWorkers: 2, QueueDepth: 1, MaxGraphs: 2})
	ts := httptest.NewServer(s)
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts.URL
}

// ledgerCall sends body (JSON-encoded when non-nil) as tenant and decodes
// the response into out (when non-nil), returning the status.
func ledgerCall(t *testing.T, method, url, tenant string, body, out any) int {
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
	if tenant != "" {
		req.Header.Set("X-FP-Tenant", tenant)
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

// ledgerWorkload runs one scripted pass over every counted event, all of
// it as tenant "acme" except one request with an invalid tenant. joined
// reads the flights_joined fleet value.
func ledgerWorkload(t *testing.T, s *Server, base string, joined func() int64) {
	t.Helper()
	const tenant = "acme"
	meta := JobMeta{Tenant: tenant}
	expect := func(what string, got, want int) {
		t.Helper()
		if got != want {
			t.Fatalf("%s: status %d, want %d", what, got, want)
		}
	}
	wait := func(id string) JobInfo {
		t.Helper()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		info, err := s.jobs.Wait(ctx, id)
		if err != nil {
			t.Fatalf("wait %s: %v", id, err)
		}
		return info
	}
	place := func(id string, spec PlaceSpec) JobInfo {
		t.Helper()
		var ji JobInfo
		expect("place "+spec.Algorithm, ledgerCall(t, "POST", base+"/v1/graphs/"+id+"/place", tenant, spec, &ji), http.StatusAccepted)
		if done := wait(ji.ID); done.State != JobDone {
			t.Fatalf("%s job: %s %s", spec.Algorithm, done.State, done.Error)
		}
		return ji
	}

	// Three uploads into a two-graph registry: the first is evicted.
	const diamond = "0 1\n0 2\n1 3\n2 3\n3 4\n"
	var first, g, p GraphInfo
	expect("upload", ledgerCall(t, "POST", base+"/v1/graphs", tenant, GraphSpec{Edges: diamond}, &first), http.StatusCreated)
	expect("upload", ledgerCall(t, "POST", base+"/v1/graphs", tenant,
		GraphSpec{Generator: "quote", Seed: 5}, &g), http.StatusCreated)
	expect("upload", ledgerCall(t, "POST", base+"/v1/graphs", tenant, GraphSpec{Edges: diamond}, &p), http.StatusCreated)

	// An SSE subscriber that never reads: publishes past its one-slot
	// buffer are drops.
	_, unsubscribe, ok := s.events.subscribe(1)
	if !ok {
		t.Fatal("event bus refused a subscriber")
	}
	defer unsubscribe()

	// Sync placement and an evaluation.
	expect("gmax", ledgerCall(t, "POST", base+"/v1/graphs/"+g.ID+"/place", tenant, PlaceSpec{Algorithm: "gmax", K: 2}, nil), http.StatusOK)
	expect("evaluate", ledgerCall(t, "GET", base+"/v1/graphs/"+g.ID+"/evaluate?filters=1", tenant, nil, nil), http.StatusOK)

	// Async placements: a miss on the scheduler, then the cached hit; the
	// estimate-driven and multilevel engines; one cached entry on p for
	// the PATCH to invalidate.
	gall := PlaceSpec{Algorithm: "gall", K: 2, Parallelism: 2}
	place(g.ID, gall)
	expect("cached gall", ledgerCall(t, "POST", base+"/v1/graphs/"+g.ID+"/place", tenant, gall, nil), http.StatusOK)
	place(g.ID, PlaceSpec{Algorithm: "approx", K: 2})
	place(g.ID, PlaceSpec{Algorithm: "mlcelf", K: 2})
	place(p.ID, PlaceSpec{Algorithm: "celf", K: 1})

	// A gang batch.
	var batch JobInfo
	expect("batch", ledgerCall(t, "POST", base+"/v1/placements:batch", tenant,
		BatchPlaceSpec{Graphs: []string{g.ID}, Spec: PlaceSpec{Algorithm: "celf", K: 3}}, &batch), http.StatusAccepted)
	wait(batch.ID)

	// PATCH with auto-maintain.
	var pr PatchResult
	expect("patch", ledgerCall(t, "PATCH", base+"/v1/graphs/"+p.ID+"/edges", tenant,
		PatchSpec{AddNodes: 1, Add: [][2]int{{1, 4}, {3, 5}}, Remove: [][2]int{{0, 2}}, Maintain: true, K: 1}, &pr), http.StatusOK)
	if pr.Job == nil {
		t.Fatalf("patch enqueued no maintain job: %+v", pr)
	}
	wait(pr.Job.ID)

	// A placement that joins an in-flight computation of the same key.
	m, _, _ := s.registry.Get(g.ID)
	f, _ := s.jobs.claim("ledger-flight")
	follower := make(chan error, 1)
	go func() {
		_, err := s.runShared(context.Background(), "ledger-flight", gall, m, g.ID, s.acct.Tenant(tenant))
		follower <- err
	}()
	for deadline := time.Now().Add(10 * time.Second); joined() < 1; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("follower never joined the flight")
		}
	}
	s.jobs.settle("ledger-flight", f, &PlaceResult{GraphID: g.ID}, nil)
	if err := <-follower; err != nil {
		t.Fatalf("flight follower: %v", err)
	}

	// Admission: fill every run slot and the one queue place (a second
	// identical submission dedups onto it), overflow with a 503, cancel
	// the queued job, and queue one that fails.
	release := make(chan struct{})
	block := func(ctx context.Context) (*PlaceResult, error) {
		select {
		case <-release:
			return &PlaceResult{}, nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	spec := PlaceSpec{Algorithm: "gall", K: 1}
	var held []string
	for i := 0; i < s.jobs.slots; i++ {
		j, err := s.jobs.Submit(g.ID, spec, fmt.Sprintf("ledger-run-%d", i), meta, nil, block)
		if err != nil {
			t.Fatal(err)
		}
		waitState(t, s.jobs, j.ID, JobRunning)
		held = append(held, j.ID)
	}
	queued, err := s.jobs.Submit(g.ID, spec, "ledger-queued", meta, nil, block)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.jobs.Submit(g.ID, spec, "ledger-queued", meta, nil, block); err != nil {
		t.Fatal(err)
	}
	expect("overflow", ledgerCall(t, "POST", base+"/v1/graphs/"+g.ID+"/place", tenant, PlaceSpec{Algorithm: "gall", K: 3}, nil), http.StatusServiceUnavailable)
	expect("cancel", ledgerCall(t, "DELETE", base+"/v1/jobs/"+queued.ID, tenant, nil, nil), http.StatusOK)
	failing, err := s.jobs.Submit(g.ID, spec, "ledger-fail", meta, nil, func(context.Context) (*PlaceResult, error) {
		return nil, errors.New("scripted failure")
	})
	if err != nil {
		t.Fatal(err)
	}
	close(release)
	for _, id := range append(held, failing.ID) {
		wait(id)
	}

	// A request rejected before its tenant is known, and a deletion.
	expect("invalid tenant", ledgerCall(t, "GET", base+"/healthz", "not a tenant!", nil, nil), http.StatusBadRequest)
	expect("delete", ledgerCall(t, "DELETE", base+"/v1/graphs/"+p.ID, tenant, nil, nil), http.StatusNoContent)
}

// TestCounterLedgerMoves runs the script and checks every ledger row:
// each moved on the fleet, each tenant counter also moved on the tenant,
// and the fleet value is the fleet row plus the tenant rows — with the
// fleet row holding only events that have no tenant.
func TestCounterLedgerMoves(t *testing.T) {
	s, base := ledgerServer(t)
	ledgerWorkload(t, s, base, func() int64 { return s.acct.Total(obs.FlightsJoined) })

	// Read the views through the handlers, not ServeHTTP, so the reads
	// themselves count no requests.
	var metrics map[string]float64
	scrape(t, s.handleMetrics, "/metrics", "", &metrics)
	var usage map[string]any
	scrape(t, s.handleTenantUsage, "/v1/tenants/acme/usage", "acme", &usage)
	var list struct {
		Tenants []map[string]any `json:"tenants"`
	}
	scrape(t, s.handleListTenants, "/v1/tenants", "", &list)
	if len(list.Tenants) != 1 || list.Tenants[0]["tenant"] != "acme" {
		t.Fatalf("tenants = %v, want acme alone", list.Tenants)
	}

	fleet := s.acct.Fleet()
	for _, c := range obs.Counters() {
		name := c.Key() + c.Usage()
		if c == obs.PlanSplices {
			if total := s.acct.Total(c); total != 0 {
				t.Errorf("plan_splices = %d, want 0: every plan repair is a rebuild", total)
			}
			continue
		}
		if total := s.acct.Total(c); total <= 0 {
			t.Errorf("%s: fleet value %d did not move", name, total)
		}
		if c.Key() != "" && metrics[c.Key()] != float64(s.acct.Total(c)) {
			t.Errorf("%s: /metrics reads %v, ledger total %d", name, metrics[c.Key()], s.acct.Total(c))
		}
		if c.Usage() == "" {
			if v := s.acct.Tenant("acme").Value(c); v != 0 {
				t.Errorf("%s: fleet counter recorded %d on a tenant row", name, v)
			}
			continue
		}
		if v, _ := usage[c.Usage()].(float64); v <= 0 {
			t.Errorf("%s: tenant usage %v did not move", name, usage[c.Usage()])
		}
		// Only requests rejected before their tenant is known land on the
		// fleet row: every plan rebuild is a PATCH's, charged to its tenant.
		switch row := fleet.Value(c); {
		case c == obs.Requests && row != 1:
			t.Errorf("requests on the fleet row = %d, want 1 (the invalid-tenant 400)", row)
		case c != obs.Requests && row != 0:
			t.Errorf("%s: %d recorded on the fleet row, want 0", name, row)
		}
		if c.Key() == "" {
			continue
		}
		sum := float64(fleet.Value(c))
		for _, u := range list.Tenants {
			v, _ := u[c.Usage()].(float64)
			sum += v
		}
		if metrics[c.Key()] != sum {
			t.Errorf("%s: fleet value %v, fleet row + tenant rows = %v", name, metrics[c.Key()], sum)
		}
	}
}

// TestClientViewsDecodable pins the typed client views: every json key of
// MetricsSnapshot and obs.TenantUsage is served (a dropped key would
// decode as 0), each MetricsSnapshot key is an fpd_<key> series of the
// right type, each usage key an fpd_tenant_<key>_total family, and the
// exposition passes the strict linter.
func TestClientViewsDecodable(t *testing.T) {
	s, base := ledgerServer(t)
	ledgerCall(t, "GET", base+"/healthz", "acme", nil, nil)

	var metrics, usage map[string]any
	if code := ledgerCall(t, "GET", base+"/metrics", "", nil, &metrics); code != http.StatusOK {
		t.Fatalf("/metrics: status %d", code)
	}
	if code := ledgerCall(t, "GET", base+"/v1/tenants/acme/usage", "", nil, &usage); code != http.StatusOK {
		t.Fatalf("tenant usage: status %d", code)
	}
	resp, err := http.Get(base + "/metrics?format=prometheus")
	if err != nil {
		t.Fatal(err)
	}
	prom, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	text := string(prom)

	gauges := map[string]bool{}
	for _, g := range s.gauges {
		gauges[g.key] = true
	}
	for _, key := range jsonKeys(MetricsSnapshot{}) {
		if _, ok := metrics[key]; !ok {
			t.Errorf("/metrics lacks MetricsSnapshot key %q", key)
		}
		kind := "counter"
		if gauges[key] {
			kind = "gauge"
		}
		if !strings.Contains(text, "# TYPE fpd_"+key+" "+kind+"\n") {
			t.Errorf("exposition lacks %s fpd_%s", kind, key)
		}
	}
	for _, key := range jsonKeys(obs.TenantUsage{}) {
		if _, ok := usage[key]; !ok {
			t.Errorf("tenant usage lacks TenantUsage key %q", key)
		}
		if key != "tenant" && !strings.Contains(text, "fpd_tenant_"+key+`_total{tenant="acme"} `) {
			t.Errorf("exposition lacks fpd_tenant_%s_total for acme", key)
		}
	}
	if err := obs.LintPrometheus(strings.NewReader(text)); err != nil {
		t.Errorf("exposition fails lint: %v", err)
	}
}

// scrape serves one GET through handler h directly and decodes the JSON
// body into out; id fills the {id} path value.
func scrape(t *testing.T, h http.HandlerFunc, url, id string, out any) {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, url, nil)
	req.SetPathValue("id", id)
	rec := httptest.NewRecorder()
	h(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("GET %s: status %d: %s", url, rec.Code, rec.Body)
	}
	if err := json.Unmarshal(rec.Body.Bytes(), out); err != nil {
		t.Fatalf("GET %s: bad JSON: %v", url, err)
	}
}

// jsonKeys lists the json tags of a struct's fields.
func jsonKeys(v any) []string {
	rt := reflect.TypeOf(v)
	keys := make([]string, rt.NumField())
	for i := range keys {
		keys[i] = strings.Split(rt.Field(i).Tag.Get("json"), ",")[0]
	}
	return keys
}
