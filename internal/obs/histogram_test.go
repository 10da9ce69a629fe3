package obs

import (
	"math"
	"sync"
	"testing"
	"time"
)

// TestHistogramBucketBoundaries pins the bucketing rule: an observation
// equal to an upper bound lands IN that bucket (le is ≤, Prometheus
// semantics), one epsilon above lands in the next.
func TestHistogramBucketBoundaries(t *testing.T) {
	h := NewHistogram([]float64{0.001, 0.01, 0.1})
	h.Observe(time.Millisecond)        // == bound 0 → bucket 0
	h.Observe(1100 * time.Microsecond) // just above → bucket 1
	h.Observe(10 * time.Millisecond)   // == bound 1 → bucket 1
	h.Observe(50 * time.Millisecond)   // → bucket 2
	h.Observe(500 * time.Millisecond)  // beyond all bounds → +Inf bucket
	h.Observe(0)                       // zero → bucket 0

	s := h.Snapshot()
	want := []uint64{2, 2, 1, 1}
	for i, w := range want {
		if s.Counts[i] != w {
			t.Errorf("bucket %d = %d, want %d (%v)", i, s.Counts[i], w, s.Counts)
		}
	}
	if s.Count != 6 {
		t.Errorf("Count = %d, want 6", s.Count)
	}
}

func TestHistogramSumAndQuantiles(t *testing.T) {
	h := NewHistogram([]float64{1, 2, 4})
	for i := 0; i < 100; i++ {
		h.Observe(500 * time.Millisecond) // all in bucket [0,1]
	}
	s := h.Snapshot()
	if got := s.Quantile(0.5); got <= 0 || got > 1 {
		t.Errorf("p50 = %v, want within (0, 1]", got)
	}
	if math.Abs(s.Sum-50) > 1e-6 {
		t.Errorf("Sum = %v, want 50", s.Sum)
	}

	// Overflow observations clamp to the largest finite bound.
	h2 := NewHistogram([]float64{1, 2})
	h2.Observe(100 * time.Second)
	if got := h2.Snapshot().Quantile(0.99); got != 2 {
		t.Errorf("overflow p99 = %v, want clamp to 2", got)
	}

	// Empty histogram quantile is 0.
	if got := NewHistogram(nil).Snapshot().Quantile(0.9); got != 0 {
		t.Errorf("empty p90 = %v, want 0", got)
	}
}

// TestHistogramQuantileInterpolation checks the rank interpolation: with
// 100 samples split 50/50 across two buckets, p25 lands midway through
// the first bucket and p75 midway through the second.
func TestHistogramQuantileInterpolation(t *testing.T) {
	h := NewHistogram([]float64{1, 2})
	for i := 0; i < 50; i++ {
		h.Observe(500 * time.Millisecond)
		h.Observe(1500 * time.Millisecond)
	}
	s := h.Snapshot()
	if got := s.Quantile(0.25); math.Abs(got-0.5) > 1e-9 {
		t.Errorf("p25 = %v, want 0.5", got)
	}
	if got := s.Quantile(0.75); math.Abs(got-1.5) > 1e-9 {
		t.Errorf("p75 = %v, want 1.5", got)
	}
}

// TestHistogramConcurrency hammers one histogram (and one vec child) from
// many goroutines; run under -race this is the lock-free soundness check,
// and the final count must be exact regardless.
func TestHistogramConcurrency(t *testing.T) {
	const goroutines = 16
	const perG = 2000
	h := NewHistogram(nil)
	vec := NewHistogramVec("stage", []float64{0.001, 1})
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			stage := []string{"a", "b", "c"}[g%3]
			for i := 0; i < perG; i++ {
				h.Observe(time.Duration(i%10) * time.Millisecond)
				vec.With(stage).Observe(time.Microsecond)
			}
		}(g)
	}
	wg.Wait()
	if got := h.Snapshot().Count; got != goroutines*perG {
		t.Errorf("histogram count = %d, want %d", got, goroutines*perG)
	}
	var vecTotal uint64
	for _, ls := range vec.snapshotAll() {
		vecTotal += ls.snap.Count
	}
	if vecTotal != goroutines*perG {
		t.Errorf("vec total = %d, want %d", vecTotal, goroutines*perG)
	}
}

func TestHistogramVecSortedSnapshots(t *testing.T) {
	vec := NewHistogramVec("route", nil)
	for _, v := range []string{"z", "a", "m"} {
		vec.With(v).Observe(time.Millisecond)
	}
	all := vec.snapshotAll()
	if len(all) != 3 || all[0].value != "a" || all[1].value != "m" || all[2].value != "z" {
		t.Errorf("snapshotAll order wrong: %+v", all)
	}
	// Same value returns the same child.
	if vec.With("a") != vec.With("a") {
		t.Error("With is not idempotent")
	}
}

func TestHistogramBadBoundsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("non-ascending bounds did not panic")
		}
	}()
	NewHistogram([]float64{1, 1})
}
