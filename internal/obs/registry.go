package obs

import (
	"fmt"
	"io"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// metricNameRE is the Prometheus metric/label name grammar.
var metricNameRE = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)

// Registry holds named metrics for one exposition endpoint. Counters and
// gauges are callback-based (the value is sampled at scrape time, so the
// owner keeps its own atomic state); histograms are owned by the
// registry's callers and scraped via their snapshots. Registration is
// idempotent by name and panics on an invalid name or a kind conflict —
// both are programmer errors a test hits immediately.
type Registry struct {
	mu       sync.Mutex
	kinds    map[string]string // name → counter|gauge|histogram
	help     map[string]string
	counters map[string]func() float64
	gauges   map[string]func() float64
	families map[string]labeledFamily
	infos    map[string]string // name → rendered constant-label selector
	hists    map[string]*Histogram
	vecs     map[string]*HistogramVec
}

// LabeledValue is one sample of a labeled metric family: the value of
// the family's single label plus the sample value.
type LabeledValue struct {
	Label string
	Value float64
}

// labeledFamily is a callback-based counter or gauge family partitioned
// by one label; fn is sampled at scrape time and may return samples in
// any order (exposition sorts them).
type labeledFamily struct {
	label string
	fn    func() []LabeledValue
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		kinds:    make(map[string]string),
		help:     make(map[string]string),
		counters: make(map[string]func() float64),
		gauges:   make(map[string]func() float64),
		families: make(map[string]labeledFamily),
		hists:    make(map[string]*Histogram),
		vecs:     make(map[string]*HistogramVec),
	}
}

func (r *Registry) register(name, help, kind string) {
	if !metricNameRE.MatchString(name) {
		panic(fmt.Sprintf("obs: invalid metric name %q", name))
	}
	if k, ok := r.kinds[name]; ok && k != kind {
		panic(fmt.Sprintf("obs: metric %q re-registered as %s (was %s)", name, kind, k))
	}
	r.kinds[name] = kind
	r.help[name] = help
}

// Counter registers a monotonic counter sampled from fn at scrape time.
func (r *Registry) Counter(name, help string, fn func() float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.register(name, help, "counter")
	r.counters[name] = fn
}

// Gauge registers a gauge sampled from fn at scrape time.
func (r *Registry) Gauge(name, help string, fn func() float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.register(name, help, "gauge")
	r.gauges[name] = fn
}

// CounterVec registers a counter family partitioned by one label,
// sampled from fn at scrape time. fn returns one sample per label value
// (the per-tenant accounting series use this: the accountant snapshot is
// taken once per scrape, not per observation).
func (r *Registry) CounterVec(name, help, label string, fn func() []LabeledValue) {
	r.registerFamily(name, help, label, "counter", fn)
}

func (r *Registry) registerFamily(name, help, label, kind string, fn func() []LabeledValue) {
	if !metricNameRE.MatchString(label) {
		panic(fmt.Sprintf("obs: invalid label name %q", label))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.register(name, help, kind)
	r.families[name] = labeledFamily{label: label, fn: fn}
}

// Info registers an always-1 gauge with constant labels — the
// build-info idiom (fpd_build_info{version="...",go_version="..."} 1).
// Label values are fixed at registration.
func (r *Registry) Info(name, help string, labels map[string]string) {
	keys := make([]string, 0, len(labels))
	for k := range labels {
		if !metricNameRE.MatchString(k) {
			panic(fmt.Sprintf("obs: invalid label name %q", k))
		}
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = fmt.Sprintf("%s=%q", k, labels[k])
	}
	sel := strings.Join(parts, ",")
	r.mu.Lock()
	defer r.mu.Unlock()
	r.register(name, help, "gauge")
	r.infoSels(name, sel)
}

// infoSels stores the rendered constant-label selector for an info
// gauge. Kept as a tiny map to avoid another struct field per metric.
func (r *Registry) infoSels(name, sel string) {
	if r.infos == nil {
		r.infos = make(map[string]string)
	}
	r.infos[name] = sel
}

// Histogram registers (or returns the existing) named histogram. nil
// bounds use DefBuckets.
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	if h, ok := r.hists[name]; ok {
		return h
	}
	r.register(name, help, "histogram")
	h := NewHistogram(bounds)
	r.hists[name] = h
	return h
}

// HistogramVec registers (or returns the existing) named histogram
// family partitioned by one label. nil bounds use DefBuckets.
func (r *Registry) HistogramVec(name, help, label string, bounds []float64) *HistogramVec {
	if !metricNameRE.MatchString(label) {
		panic(fmt.Sprintf("obs: invalid label name %q", label))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if v, ok := r.vecs[name]; ok {
		return v
	}
	r.register(name, help, "histogram")
	v := NewHistogramVec(label, bounds)
	r.vecs[name] = v
	return v
}

// WritePrometheus writes every registered metric in Prometheus text
// exposition format (version 0.0.4), sorted by metric name so scrapes
// are diffable.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	names := make([]string, 0, len(r.kinds))
	for name := range r.kinds {
		names = append(names, name)
	}
	sort.Strings(names)
	// Copy the callback/handle maps so sampling runs outside the lock.
	counters := make(map[string]func() float64, len(r.counters))
	for k, v := range r.counters {
		counters[k] = v
	}
	gauges := make(map[string]func() float64, len(r.gauges))
	for k, v := range r.gauges {
		gauges[k] = v
	}
	families := make(map[string]labeledFamily, len(r.families))
	for k, v := range r.families {
		families[k] = v
	}
	infos := make(map[string]string, len(r.infos))
	for k, v := range r.infos {
		infos[k] = v
	}
	hists := make(map[string]*Histogram, len(r.hists))
	for k, v := range r.hists {
		hists[k] = v
	}
	vecs := make(map[string]*HistogramVec, len(r.vecs))
	for k, v := range r.vecs {
		vecs[k] = v
	}
	kinds, help := r.kinds, r.help
	r.mu.Unlock()

	for _, name := range names {
		if err := writeHeader(w, name, help[name], kinds[name]); err != nil {
			return err
		}
		var err error
		switch {
		case counters[name] != nil:
			err = writeSample(w, name, "", counters[name]())
		case gauges[name] != nil:
			err = writeSample(w, name, "", gauges[name]())
		case families[name].fn != nil:
			fam := families[name]
			samples := fam.fn()
			sort.Slice(samples, func(i, j int) bool { return samples[i].Label < samples[j].Label })
			for _, s := range samples {
				sel := fmt.Sprintf("%s=%q", fam.label, s.Label)
				if err = writeSample(w, name, sel, s.Value); err != nil {
					break
				}
			}
		case infos[name] != "":
			err = writeSample(w, name, infos[name], 1)
		case hists[name] != nil:
			err = writeHistogram(w, name, "", hists[name].Snapshot())
		case vecs[name] != nil:
			v := vecs[name]
			for _, ls := range v.snapshotAll() {
				// %q escaping (backslash, quote, newline) matches the
				// exposition format's label escaping for the printable
				// values used here (route patterns, stage names).
				sel := fmt.Sprintf("%s=%q", v.Label(), ls.value)
				if err = writeHistogram(w, name, sel, ls.snap); err != nil {
					break
				}
			}
		}
		if err != nil {
			return err
		}
	}
	return nil
}

func writeHeader(w io.Writer, name, help, kind string) error {
	if help != "" {
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n", name, escapeHelp(help)); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintf(w, "# TYPE %s %s\n", name, kind)
	return err
}

func writeSample(w io.Writer, name, labels string, value float64) error {
	if labels != "" {
		labels = "{" + labels + "}"
	}
	_, err := fmt.Fprintf(w, "%s%s %s\n", name, labels, formatValue(value))
	return err
}

// writeHistogram writes the cumulative _bucket series plus _sum and
// _count, with sel ("label=\"value\"") merged into each bucket's le
// selector.
func writeHistogram(w io.Writer, name, sel string, s HistSnapshot) error {
	var cum uint64
	for i, c := range s.Counts {
		cum += c
		le := "+Inf"
		if i < len(s.Bounds) {
			le = formatValue(s.Bounds[i])
		}
		labels := fmt.Sprintf("le=%q", le)
		if sel != "" {
			labels = sel + "," + labels
		}
		if _, err := fmt.Fprintf(w, "%s_bucket{%s} %d\n", name, labels, cum); err != nil {
			return err
		}
	}
	suffix := ""
	if sel != "" {
		suffix = "{" + sel + "}"
	}
	if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", name, suffix, formatValue(s.Sum)); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s_count%s %d\n", name, suffix, s.Count)
	return err
}

// formatValue renders a float the way Prometheus clients do: shortest
// round-trip representation.
func formatValue(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// escapeHelp escapes a HELP text per the exposition format.
func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}
