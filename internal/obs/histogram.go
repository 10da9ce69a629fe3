package obs

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// DefBuckets is the default latency bucket layout: upper bounds in
// seconds, spanning 100µs (a cheap heuristic on a small graph) to 30s (a
// greedy placement on the largest graphs the exact path handles). The
// layout matches Prometheus conventions (roughly 1-2.5-5 per decade) so
// dashboards can use standard histogram_quantile queries.
var DefBuckets = []float64{
	0.0001, 0.00025, 0.0005,
	0.001, 0.0025, 0.005,
	0.01, 0.025, 0.05,
	0.1, 0.25, 0.5,
	1, 2.5, 5,
	10, 30,
}

// Histogram is a fixed-bucket latency histogram safe for concurrent use.
// Observe is lock-free: one atomic add into the matching bucket plus two
// for the count/sum, so it can sit on request and job completion paths
// without coordination. Bucket bounds are immutable after construction.
type Histogram struct {
	bounds []float64       // ascending upper bounds (seconds); +Inf is implicit
	counts []atomic.Uint64 // len(bounds)+1; last bucket is the +Inf overflow
	count  atomic.Uint64
	sumNS  atomic.Int64 // sum of observations in nanoseconds
}

// NewHistogram builds a histogram over the given ascending upper bounds
// (seconds). nil or empty bounds use DefBuckets.
func NewHistogram(bounds []float64) *Histogram {
	if len(bounds) == 0 {
		bounds = DefBuckets
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic("obs: histogram bounds must be strictly ascending")
		}
	}
	b := append([]float64(nil), bounds...)
	return &Histogram{bounds: b, counts: make([]atomic.Uint64, len(b)+1)}
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	s := d.Seconds()
	// Linear scan: the bucket list is short (≤ ~20) and latencies cluster
	// in the low buckets, so this beats binary search in practice and
	// keeps the fast path branch-predictable.
	i := 0
	for i < len(h.bounds) && s > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.count.Add(1)
	h.sumNS.Add(int64(d))
}

// HistSnapshot is a point-in-time copy of a histogram. Counts are
// per-bucket (not cumulative); Sum is in seconds. Because buckets are
// read individually while writers proceed, a snapshot taken under
// concurrent load may be off by the handful of observations that landed
// mid-copy — fine for monitoring, which is the only consumer.
type HistSnapshot struct {
	Bounds []float64 `json:"bounds"`
	Counts []uint64  `json:"counts"`
	Count  uint64    `json:"count"`
	Sum    float64   `json:"sum"`
}

// Snapshot copies the histogram's current state.
func (h *Histogram) Snapshot() HistSnapshot {
	s := HistSnapshot{
		Bounds: h.bounds,
		Counts: make([]uint64, len(h.counts)),
	}
	var total uint64
	for i := range h.counts {
		c := h.counts[i].Load()
		s.Counts[i] = c
		total += c
	}
	// Derive Count from the buckets rather than h.count so Count always
	// equals the +Inf cumulative bucket, as the Prometheus format requires
	// even for a snapshot racing writers.
	s.Count = total
	s.Sum = time.Duration(h.sumNS.Load()).Seconds()
	return s
}

// Quantile estimates the q-quantile (0 < q < 1) in seconds by linear
// interpolation within the bucket containing the target rank, the same
// estimate Prometheus's histogram_quantile computes. Observations in the
// +Inf bucket clamp to the largest finite bound. Returns 0 for an empty
// histogram.
func (s HistSnapshot) Quantile(q float64) float64 {
	if s.Count == 0 || len(s.Bounds) == 0 {
		return 0
	}
	rank := q * float64(s.Count)
	var cum uint64
	for i, c := range s.Counts {
		cum += c
		if float64(cum) < rank {
			continue
		}
		if i >= len(s.Bounds) {
			return s.Bounds[len(s.Bounds)-1]
		}
		lower := 0.0
		if i > 0 {
			lower = s.Bounds[i-1]
		}
		upper := s.Bounds[i]
		if c == 0 {
			return upper
		}
		// Position of the target rank inside this bucket.
		within := rank - float64(cum-c)
		return lower + (upper-lower)*(within/float64(c))
	}
	return s.Bounds[len(s.Bounds)-1]
}

// HistogramVec is a histogram family partitioned by one label (route,
// stage, job kind…). Children are created on first use and live forever —
// label values must therefore be low-cardinality (route patterns, not
// URLs; stage names, not node ids).
type HistogramVec struct {
	label  string
	bounds []float64
	mu     sync.RWMutex
	m      map[string]*Histogram
}

// NewHistogramVec builds a histogram family keyed by the given label
// name. nil bounds use DefBuckets.
func NewHistogramVec(label string, bounds []float64) *HistogramVec {
	if len(bounds) == 0 {
		bounds = DefBuckets
	}
	return &HistogramVec{label: label, bounds: bounds, m: make(map[string]*Histogram)}
}

// Label returns the family's label name.
func (v *HistogramVec) Label() string { return v.label }

// With returns the child histogram for the given label value, creating it
// on first use. The read-locked fast path makes repeated lookups cheap
// enough for per-request use.
func (v *HistogramVec) With(value string) *Histogram {
	v.mu.RLock()
	h, ok := v.m[value]
	v.mu.RUnlock()
	if ok {
		return h
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	if h, ok := v.m[value]; ok {
		return h
	}
	h = NewHistogram(v.bounds)
	v.m[value] = h
	return h
}

// snapshotAll returns every (label value, snapshot) pair sorted by label
// value, for deterministic exposition.
func (v *HistogramVec) snapshotAll() []labeledSnapshot {
	v.mu.RLock()
	defer v.mu.RUnlock()
	out := make([]labeledSnapshot, 0, len(v.m))
	for value, h := range v.m {
		out = append(out, labeledSnapshot{value: value, snap: h.Snapshot()})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].value < out[j].value })
	return out
}

type labeledSnapshot struct {
	value string
	snap  HistSnapshot
}
