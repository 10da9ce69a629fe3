package main

import (
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// span is one timed interval of the traced run. The spans of one operation
// form a tree through parent (0 = root); times are nanoseconds since the
// tracer's base. Names are layer labels: "op.place.celf", "http.place",
// "server.handler", "server.job.queued", "server.job.run", "core.place",
// "dyn.maintain" and the estimated "core.place.est" and "flow.kernels.est".
type span struct {
	id, parent int
	name       string
	start, end int64
	bytes      int // response body bytes, on http spans
}

// tracer keeps every span in memory until the run ends. A nil tracer is
// the untraced run: every method is a no-op.
type tracer struct {
	mu sync.Mutex
	// base carries no monotonic reading, so every offset is taken on the
	// wall clock — the clock of the job timestamps fpd reports.
	base  time.Time
	spans []span // spans[i].id == i+1
}

func newTracer() *tracer { return &tracer{base: time.Now().Round(0)} }

func (t *tracer) at(tm time.Time) int64 { return tm.Sub(t.base).Nanoseconds() }

// open starts a span now and returns its id.
func (t *tracer) open(name string, parent int) int {
	return t.record(name, parent, time.Now(), time.Time{})
}

// record adds a span with known bounds (a zero end leaves it open).
func (t *tracer) record(name string, parent int, start, end time.Time) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s := span{id: len(t.spans) + 1, parent: parent, name: name, start: t.at(start)}
	if !end.IsZero() {
		s.end = t.at(end)
	}
	t.spans = append(t.spans, s)
	return s.id
}

// addAt adds a span with bounds in tracer offsets: the analysis-time
// estimates hung under observed spans.
func (t *tracer) addAt(name string, parent int, start, end int64) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := span{id: len(t.spans) + 1, parent: parent, name: name, start: start, end: end}
	t.spans = append(t.spans, s)
	return s.id
}

// close ends span id now, noting the response bytes it carried.
func (t *tracer) close(id, bytes int) {
	if t == nil || id == 0 {
		return
	}
	now := t.at(time.Now())
	t.mu.Lock()
	t.spans[id-1].end = now
	t.spans[id-1].bytes = bytes
	t.mu.Unlock()
}

// requestIDPrefix marks the X-Request-ID values that carry the client's
// http span id to the handler wrapper.
const requestIDPrefix = "bench-"

// tracedHandler wraps fpd's ServeHTTP in a "server.handler" span, a child
// of the client-side http span named by the request's X-Request-ID.
type tracedHandler struct {
	h  http.Handler
	tr *tracer
}

func (th tracedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	th.h.ServeHTTP(w, r)
	end := time.Now()
	if id, ok := strings.CutPrefix(r.Header.Get("X-Request-ID"), requestIDPrefix); ok {
		if parent, err := strconv.Atoi(id); err == nil {
			th.tr.record("server.handler", parent, start, end)
		}
	}
}

// traceView is the analysed span set: children lists and self times.
type traceView struct {
	spans    []span
	children map[int][]int
	self     []float64 // ms, indexed by id-1
}

// view freezes the spans and computes every span's self time: its
// duration minus the part of its interval its children cover.
func (t *tracer) view() *traceView {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	v := &traceView{spans: spans, children: map[int][]int{}, self: make([]float64, len(spans))}
	for _, s := range spans {
		if s.parent != 0 {
			v.children[s.parent] = append(v.children[s.parent], s.id)
		}
	}
	for i, s := range spans {
		v.self[i] = float64(s.end-s.start-v.covered(s)) / 1e6
	}
	return v
}

// covered returns the length of the union of s's child intervals, clipped
// to s.
func (v *traceView) covered(s span) int64 {
	type iv struct{ a, b int64 }
	var ivs []iv
	for _, c := range v.children[s.id] {
		cs := v.spans[c-1]
		a, b := max(cs.start, s.start), min(cs.end, s.end)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, end int64
	end = s.start
	for _, x := range ivs {
		if x.a > end {
			end = x.a
		}
		if x.b > end {
			total += x.b - end
			end = x.b
		}
	}
	return total
}

func (v *traceView) span(id int) span { return v.spans[id-1] }

func (v *traceView) durMS(id int) float64 {
	s := v.span(id)
	return float64(s.end-s.start) / 1e6
}

// ops returns the ids of the root spans of one op kind.
func (v *traceView) ops(kind string) []int {
	var ids []int
	for _, s := range v.spans {
		if s.parent == 0 && s.name == "op."+kind {
			ids = append(ids, s.id)
		}
	}
	return ids
}

// routeStats returns, per route, the handler durations, the transport
// time (round trip minus handler) and the response bytes of every traced
// request.
func (v *traceView) routeStats() (handler, transport, bytes map[string][]float64) {
	handler, transport, bytes = map[string][]float64{}, map[string][]float64{}, map[string][]float64{}
	for i, s := range v.spans {
		r, ok := strings.CutPrefix(s.name, "http.")
		if !ok {
			continue
		}
		transport[r] = append(transport[r], v.self[i])
		bytes[r] = append(bytes[r], float64(s.bytes))
		for _, c := range v.children[s.id] {
			if v.span(c).name == "server.handler" {
				handler[r] = append(handler[r], v.durMS(c))
			}
		}
	}
	return handler, transport, bytes
}

// unattributed returns the self time of every op of one kind: the part of
// its latency no layer span covers.
func (v *traceView) unattributed(kind string) []float64 {
	var out []float64
	for _, id := range v.ops(kind) {
		out = append(out, v.self[id-1])
	}
	return out
}

// decompose prints the latency decomposition of one op kind, indented by
// span depth. Each instant of an op is attributed to exactly one span: the
// deepest one active then, or on equal depth the latest started (a job
// running while its 202 response is still in flight is charged to the
// job). Rows are means over the ops, so they sum to the mean latency; the
// instants no span covers are the unattributed remainder.
func (v *traceView) decompose(w io.Writer, kind string) {
	ops := v.ops(kind)
	if len(ops) == 0 {
		fmt.Fprintf(w, "decomposition %s: no ops traced\n", kind)
		return
	}
	type row struct {
		path  string
		depth int
		sum   float64
	}
	var rows []*row
	index := map[string]*row{}
	var lat []float64
	unattr := 0.0
	for _, op := range ops {
		lat = append(lat, v.durMS(op))
		type member struct {
			s     span
			path  string
			depth int
		}
		var members []member
		var walk func(id int, path string, depth int)
		walk = func(id int, path string, depth int) {
			for _, c := range v.children[id] {
				p := path + "/" + v.span(c).name
				members = append(members, member{v.span(c), p, depth})
				walk(c, p, depth+1)
			}
		}
		walk(op, "", 0)
		opSpan := v.span(op)
		cuts := []int64{opSpan.start, opSpan.end}
		for _, m := range members {
			cuts = append(cuts, max(opSpan.start, min(m.s.start, opSpan.end)), max(opSpan.start, min(m.s.end, opSpan.end)))
		}
		sort.Slice(cuts, func(i, j int) bool { return cuts[i] < cuts[j] })
		for i := 1; i < len(cuts); i++ {
			a, b := cuts[i-1], cuts[i]
			if b <= a {
				continue
			}
			owner := -1
			for j, m := range members {
				if m.s.start > a || m.s.end < b {
					continue
				}
				if o := owner; o < 0 || m.depth > members[o].depth ||
					(m.depth == members[o].depth && m.s.start > members[o].s.start) {
					owner = j
				}
			}
			ms := float64(b-a) / 1e6
			if owner < 0 {
				unattr += ms
				continue
			}
			m := members[owner]
			r, ok := index[m.path]
			if !ok {
				r = &row{path: m.path, depth: m.depth}
				index[m.path] = r
				rows = append(rows, r)
			}
			r.sum += ms
		}
	}
	sort.SliceStable(rows, func(i, j int) bool { return rows[i].path < rows[j].path })
	n := float64(len(ops))
	fmt.Fprintf(w, "decomposition %s: %d ops, mean latency %.4f ms (mean time per layer; rows sum to the mean)\n", kind, len(ops), mean(lat))
	for _, r := range rows {
		name := r.path[strings.LastIndex(r.path, "/")+1:]
		fmt.Fprintf(w, "  %s%-*s %12.4f ms\n", strings.Repeat("  ", r.depth), 28-2*r.depth, name, r.sum/n)
	}
	fmt.Fprintf(w, "  %-28s %12.4f ms\n", "unattributed", unattr/n)
}
