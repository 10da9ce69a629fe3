package obs

import (
	"sync"
	"time"
)

// Sample is one periodic observation of the system: a timestamp plus a
// flat name→value map (counters, gauges and pre-computed histogram
// quantiles). Values are copied on insert and on read, so callers may
// reuse or mutate their maps freely.
type Sample struct {
	Time   time.Time          `json:"t"`
	Values map[string]float64 `json:"values"`
}

// SeriesRing is a fixed-capacity ring buffer of Samples — the in-process
// time-series store behind GET /v1/stats/history. Writers append at a
// fixed cadence (the server's history sampler); readers take windowed
// copies. With one writer every few seconds and capacity in the
// hundreds, a plain RWMutex is far below contention concern.
type SeriesRing struct {
	mu    sync.RWMutex
	buf   []Sample
	next  int // index the next Add writes to
	count int // number of valid samples, ≤ len(buf)
}

// NewSeriesRing returns a ring holding at most capacity samples
// (minimum 1).
func NewSeriesRing(capacity int) *SeriesRing {
	if capacity < 1 {
		capacity = 1
	}
	return &SeriesRing{buf: make([]Sample, capacity)}
}

// Add appends a sample, overwriting the oldest once full. The values map
// is defensively copied so the caller can reuse its map.
func (r *SeriesRing) Add(t time.Time, values map[string]float64) {
	vals := make(map[string]float64, len(values))
	for k, v := range values {
		vals[k] = v
	}
	r.mu.Lock()
	r.buf[r.next] = Sample{Time: t, Values: vals}
	r.next = (r.next + 1) % len(r.buf)
	if r.count < len(r.buf) {
		r.count++
	}
	r.mu.Unlock()
}

// Len reports how many samples are currently stored.
func (r *SeriesRing) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.count
}

// Cap reports the ring capacity.
func (r *SeriesRing) Cap() int { return len(r.buf) }

// Window returns the retained samples no older than window before now,
// oldest first. window <= 0 returns everything. Samples are deep-copied;
// mutating the result cannot corrupt the ring.
func (r *SeriesRing) Window(window time.Duration, now time.Time) []Sample {
	var cutoff time.Time
	if window > 0 {
		cutoff = now.Add(-window)
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]Sample, 0, r.count)
	start := (r.next - r.count + len(r.buf)) % len(r.buf)
	for i := 0; i < r.count; i++ {
		s := r.buf[(start+i)%len(r.buf)]
		if window > 0 && s.Time.Before(cutoff) {
			continue
		}
		out = append(out, s.clone())
	}
	return out
}

func (s Sample) clone() Sample {
	vals := make(map[string]float64, len(s.Values))
	for k, v := range s.Values {
		vals[k] = v
	}
	return Sample{Time: s.Time, Values: vals}
}
