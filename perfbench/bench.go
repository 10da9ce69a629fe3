package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/server"
)

// graphRef is one generated graph: the edge list the benchmark uploaded,
// the digraph it generated (its own reference for checking responses) and
// fpd's id for it.
type graphRef struct {
	name string
	g    *graph.Digraph
	src  int
	text string
	id   string
	// stream is the churn batch stream PATCHed into the graph in order;
	// version counts the batches fpd has committed.
	stream  []gen.Mutation
	version int
	// fwdMS, sufMS and gmaxMS are one forward pass, one suffix pass and one
	// direct core.Place gmax on this graph, measured by the traced run to
	// estimate the kernel and strategy share of traced ops.
	fwdMS, sufMS, gmaxMS float64
}

// record is one response the benchmark checks after the run.
type record struct {
	g       *graphRef
	version int
	kind    string
	algo    string
	k       int
	seed    int64
	filters []int
	f       float64
}

// tally collects one client's op outcomes: latencies of successful ops by
// kind and graph, every failure, and the responses to check.
type tally struct {
	lat map[latKey][]float64
	// all holds the latency of every request round trip, the window's
	// latency percentiles; a maintain job the client waits for is not a
	// request of its own.
	all       []float64
	attempted int
	failed    int
	errs      []string
	records   []record
	// seen keys the records kept: a repeated identical response (a cached
	// placement, a gmax at a k already asked) is checked once, so the
	// benchmark's bookkeeping stays out of mem.live_heap_mb.
	seen map[string]bool
	// cacheHitsSent and cacheMissesSent count the placements expected to
	// hit and to miss fpd's result cache, for the /metrics assertion.
	cacheHitsSent, cacheMissesSent int
	cycles                         int
	last                           time.Time // end of the latest op
	// paused is time the client spent between ops on untimed work (fresh
	// uploads); the window leaves it out.
	paused time.Duration
	// rng and seq are a client's request-stream state, kept across the
	// window's segments.
	rng *rand.Rand
	seq int
}

type latKey struct{ kind, graph string }

func newTally() *tally { return &tally{lat: map[latKey][]float64{}, seen: map[string]bool{}} }

// check keeps r for checking after the run, unless an identical response
// is already kept.
func (t *tally) check(r record) {
	key := fmt.Sprintf("%p|%d|%s|%d|%d|%x|%s", r.g.g, r.version, r.algo, r.k, r.seed, math.Float64bits(r.f), filterKey(r.filters))
	if !t.seen[key] {
		t.seen[key] = true
		t.records = append(t.records, r)
	}
}

// done accounts one op of the given kind on g that ran from start to now.
func (t *tally) done(kind string, g *graphRef, start time.Time, err error) {
	t.doneAt(kind, g, start, time.Now(), err)
}

func (t *tally) doneAt(kind string, g *graphRef, start, end time.Time, err error) {
	if ms, ok := t.account(kind, g, start, end, err); ok {
		t.all = append(t.all, ms)
	}
}

// jobDone accounts a job of the given kind on g that ran from start to
// end; it is not a request, so it stays out of the window's percentiles.
func (t *tally) jobDone(kind string, g *graphRef, start, end time.Time, err error) {
	t.account(kind, g, start, end, err)
}

// account counts one op and, if it succeeded, records its latency by kind
// and returns it.
func (t *tally) account(kind string, g *graphRef, start, end time.Time, err error) (float64, bool) {
	t.attempted++
	t.last = time.Now()
	if err != nil {
		t.failed++
		if len(t.errs) < 10 {
			t.errs = append(t.errs, kind+": "+err.Error())
		}
		return 0, false
	}
	ms := float64(end.Sub(start)) / float64(time.Millisecond)
	key := latKey{kind, g.name}
	t.lat[key] = append(t.lat[key], ms)
	return ms, true
}

// p50 is an op kind's latency metric: the median on each graph, combined
// over the graphs by geometric mean. A median over the pooled samples of
// graphs whose costs differ would fall between their clusters and swing
// with a handful of samples. It also returns the sample count.
func (t *tally) p50(kind string) (float64, int) {
	logSum, graphs, n := 0.0, 0, 0
	for key, lat := range t.lat {
		if key.kind == kind {
			logSum += math.Log(median(lat))
			graphs++
			n += len(lat)
		}
	}
	return math.Exp(logSum / float64(graphs)), n
}

// merge folds other into t.
func (t *tally) merge(other *tally) {
	for k, v := range other.lat {
		t.lat[k] = append(t.lat[k], v...)
	}
	t.all = append(t.all, other.all...)
	t.attempted += other.attempted
	t.failed += other.failed
	t.errs = append(t.errs, other.errs...)
	for _, r := range other.records {
		t.check(r)
	}
	t.cacheHitsSent += other.cacheHitsSent
	t.cacheMissesSent += other.cacheMissesSent
	t.cycles += other.cycles
	t.paused += other.paused
	if other.last.After(t.last) {
		t.last = other.last
	}
}

// bench is one benchmark run against one in-process fpd.
type bench struct {
	cfg    config
	par    int     // the parallelism of every placement request
	tr     *tracer // nil outside the traced run, and during set-up
	srv    *server.Server
	ts     *httptest.Server
	client *http.Client
	// warm holds serve-mix's cached celf placements by k, filled in
	// set-up and only read by the clients.
	warm map[int][]int

	mu       sync.Mutex
	opGraphs map[int]*graphRef // traced op span → its graph
}

// start brings up fpd with its default configuration behind a loopback
// listener, wrapped in the handler span when tr is set.
func (b *bench) start(tr *tracer) {
	b.srv = server.New(server.Config{})
	var h http.Handler = b.srv
	if tr != nil {
		h = tracedHandler{h: b.srv, tr: tr}
	}
	b.ts = httptest.NewServer(h)
	b.client = b.ts.Client()
}

// stop shuts the listener down first, then fpd.
func (b *bench) stop() {
	if b.ts != nil {
		b.ts.Close()
		b.srv.Close()
		b.ts, b.srv = nil, nil
	}
}

// do sends one JSON request and decodes a 2xx body into out. A route
// names the request in the trace; an empty route leaves it untraced (the
// benchmark's own /metrics scrapes). Non-2xx answers are errors.
func (b *bench) do(method, path, route string, parent int, body, out any) (int, error) {
	var rd io.Reader
	if body != nil {
		buf, err := json.Marshal(body)
		if err != nil {
			return 0, err
		}
		rd = bytes.NewReader(buf)
	}
	req, err := http.NewRequest(method, b.ts.URL+path, rd)
	if err != nil {
		return 0, err
	}
	var id int
	if route != "" {
		id = b.tr.open("http."+route, parent)
		if id != 0 {
			req.Header.Set("X-Request-ID", requestIDPrefix+strconv.Itoa(id))
		}
	}
	resp, err := b.client.Do(req)
	if err != nil {
		b.tr.close(id, 0)
		return 0, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	b.tr.close(id, len(data))
	if err != nil {
		return resp.StatusCode, err
	}
	if resp.StatusCode/100 != 2 {
		return resp.StatusCode, fmt.Errorf("%s %s: %s: %s", method, path, resp.Status, bytes.TrimSpace(data))
	}
	if out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			return resp.StatusCode, fmt.Errorf("%s %s: decode: %w", method, path, err)
		}
	}
	return resp.StatusCode, nil
}

// upload registers g's edge list with its source and checks fpd parsed
// the graph the benchmark generated.
func (b *bench) upload(g *graphRef) error {
	var info server.GraphInfo
	spec := server.GraphSpec{Name: g.name, Edges: g.text, Sources: []int{g.src}}
	if _, err := b.do("POST", "/v1/graphs", "upload", 0, spec, &info); err != nil {
		return err
	}
	if info.Nodes != g.g.N() || info.Edges != g.g.M() {
		return fmt.Errorf("upload %s: fpd parsed %d nodes, %d edges; generated %d, %d",
			g.name, info.Nodes, info.Edges, g.g.N(), g.g.M())
	}
	g.id = info.ID
	return nil
}

// place sends one placement and accounts it under kind. An async
// algorithm's 202 is awaited with Server.Jobs().Wait, so no polling
// interval is measured, and its result fetched with GET /v1/jobs/{id}.
func (b *bench) place(tl *tally, kind string, g *graphRef, spec server.PlaceSpec) (*server.PlaceResult, error) {
	start := time.Now()
	op := b.tr.open("op."+kind, 0)
	if op != 0 {
		b.mu.Lock()
		b.opGraphs[op] = g
		b.mu.Unlock()
	}
	res, err := b.placeOnce(op, g, spec)
	b.tr.close(op, 0)
	tl.done(kind, g, start, err)
	if err != nil {
		return nil, err
	}
	tl.check(record{g: g, version: g.version, kind: kind, algo: spec.Algorithm,
		k: spec.K, seed: spec.Seed, filters: res.Filters, f: res.F})
	return res, nil
}

func (b *bench) placeOnce(op int, g *graphRef, spec server.PlaceSpec) (*server.PlaceResult, error) {
	var raw json.RawMessage
	status, err := b.do("POST", "/v1/graphs/"+g.id+"/place", "place", op, spec, &raw)
	if err != nil {
		return nil, err
	}
	if status == http.StatusOK {
		var res server.PlaceResult
		return &res, json.Unmarshal(raw, &res)
	}
	var job server.JobInfo
	if err := json.Unmarshal(raw, &job); err != nil {
		return nil, err
	}
	info, err := b.awaitJob(op, job.ID)
	if err != nil {
		return nil, err
	}
	b.traceJob(op, info, g, "core.place")
	return info.Result, nil
}

func (b *bench) opGraph(op int) *graphRef {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.opGraphs[op]
}

// awaitJob waits for job id to end and fetches it; a job that did not
// finish done is an error.
func (b *bench) awaitJob(op int, id string) (server.JobInfo, error) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if _, err := b.srv.Jobs().Wait(ctx, id); err != nil {
		return server.JobInfo{}, fmt.Errorf("wait for job %s: %w", id, err)
	}
	var info server.JobInfo
	if _, err := b.do("GET", "/v1/jobs/"+id, "job", op, nil, &info); err != nil {
		return info, err
	}
	if info.State != server.JobDone || info.Result == nil {
		return info, fmt.Errorf("job %s ended %s: %s", id, info.State, info.Error)
	}
	return info, nil
}

// traceJob adds a finished job's lifecycle to op's span tree: its queue
// wait and run, the strategy or maintenance stages inside the run (summed
// from the job timeline, so shown as one span at the start of the run),
// and the kernel passes inside those, estimated from the result's pass
// counts and this graph's measured pass times.
func (b *bench) traceJob(op int, info server.JobInfo, g *graphRef, work string) {
	if b.tr == nil {
		return
	}
	at := func(ms float64) time.Time { return info.Created.Add(time.Duration(ms * float64(time.Millisecond))) }
	var run int
	var runStart time.Time
	var runMS, workMS float64
	for _, st := range info.Timeline {
		switch st.Name {
		case "queued":
			b.tr.record("server.job.queued", op, at(st.StartMS), at(st.StartMS+st.DurationMS))
		case "run":
			runStart, runMS = at(st.StartMS), st.DurationMS
			run = b.tr.record("server.job.run", op, runStart, at(st.StartMS+st.DurationMS))
		case "deferred-wait", "plan-splice", "plan-rebuild":
			// Outside the run (the PATCH handler's splice) or nested
			// inside the maintain stage.
		default:
			workMS += st.DurationMS
		}
	}
	if run == 0 || workMS == 0 {
		return
	}
	// Child spans are clipped to their parents: the stage sum can exceed
	// the run where stages nest, and the pass estimate can exceed the
	// stages where passes ran on a smaller quotient graph.
	workMS = min(workMS, runMS)
	w := b.tr.record(work, run, runStart, runStart.Add(msDur(workMS)))
	if p := info.Result.Passes; p != nil {
		par := max(info.Result.Parallelism, 1)
		est := (float64(p.Forward)*g.fwdMS + float64(p.Suffix)*g.sufMS) / float64(par)
		b.tr.record("flow.kernels.est", w, runStart, runStart.Add(msDur(min(est, workMS))))
	}
}

func msDur(ms float64) time.Duration { return time.Duration(ms * float64(time.Millisecond)) }

// evaluate asks fpd for Φ and F of an explicit filter set, accounted
// under kind.
func (b *bench) evaluate(tl *tally, kind string, g *graphRef, filters []int) error {
	start := time.Now()
	op := b.tr.open("op."+kind, 0)
	ids := make([]string, len(filters))
	for i, v := range filters {
		ids[i] = strconv.Itoa(v)
	}
	var res server.PlaceResult
	_, err := b.do("GET", "/v1/graphs/"+g.id+"/evaluate?filters="+strings.Join(ids, ","), "evaluate", op, nil, &res)
	b.tr.close(op, 0)
	tl.done(kind, g, start, err)
	if err == nil {
		tl.check(record{g: g, version: g.version, kind: kind,
			algo: "evaluate", k: len(filters), filters: filters, f: res.F})
	}
	return err
}

// patchMaintain PATCHes g's next churn batch with maintain:true and
// budget k, then awaits the maintain job; it returns the maintained
// filters. The patch op is the PATCH round trip; the maintain op runs from
// the job's creation, right after the batch commits, to the job's end.
// They are accounted as patchKind and maintainKind.
func (b *bench) patchMaintain(tl *tally, g *graphRef, k int, patchKind, maintainKind string) ([]int, error) {
	if g.version >= len(g.stream) {
		return nil, fmt.Errorf("churn stream of %s exhausted", g.name)
	}
	batch := g.stream[g.version]
	spec := server.PatchSpec{Add: batch.Add, Remove: batch.Remove, Maintain: true, K: k}
	start := time.Now()
	op := b.tr.open("op."+patchKind, 0)
	var pr server.PatchResult
	_, err := b.do("PATCH", "/v1/graphs/"+g.id+"/edges", "patch", op, spec, &pr)
	b.tr.close(op, 0)
	if err == nil {
		g.version++
		switch {
		case pr.EdgesAdded != len(batch.Add) || pr.EdgesRemoved != len(batch.Remove):
			err = fmt.Errorf("PATCH %s: fpd applied +%d -%d edges, sent +%d -%d",
				g.id, pr.EdgesAdded, pr.EdgesRemoved, len(batch.Add), len(batch.Remove))
		case pr.Job == nil:
			err = fmt.Errorf("PATCH %s: no maintain job: %s", g.id, pr.JobError)
		}
	}
	tl.done(patchKind, g, start, err)
	if err != nil {
		return nil, err
	}

	info, err := b.awaitJob(0, pr.Job.ID)
	if err != nil {
		tl.jobDone(maintainKind, g, time.Now(), time.Now(), err)
		return nil, err
	}
	end := *info.Finished // set on every terminal job
	tl.jobDone(maintainKind, g, info.Created, end, nil)
	mop := b.tr.record("op."+maintainKind, 0, info.Created, end)
	b.traceJob(mop, info, g, "dyn.maintain")
	tl.check(record{g: g, version: g.version, kind: maintainKind,
		algo: "maintain", k: k, filters: info.Result.Filters, f: info.Result.F})
	return info.Result.Filters, nil
}
