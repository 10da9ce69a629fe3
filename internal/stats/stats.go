// Package stats provides the small statistical toolkit the experiment
// harness needs: empirical CDFs over integer samples (the paper's Figures 4
// and 6 plot in-degree CDFs), histograms, and mean/stddev accumulators for
// averaging the randomized baselines over repetitions (the paper averages
// 25 runs).
package stats

import (
	"math"
	"sort"
)

// CDF is an empirical cumulative distribution over integer samples.
type CDF struct {
	values []int     // distinct sample values, ascending
	cum    []float64 // cum[i] = P(X ≤ values[i])
	n      int
}

// NewCDF builds the empirical CDF of the samples. It panics on an empty
// sample set.
func NewCDF(samples []int) *CDF {
	if len(samples) == 0 {
		panic("stats: empty sample set")
	}
	s := append([]int(nil), samples...)
	sort.Ints(s)
	c := &CDF{n: len(s)}
	for i := 0; i < len(s); {
		j := i
		for j < len(s) && s[j] == s[i] {
			j++
		}
		c.values = append(c.values, s[i])
		c.cum = append(c.cum, float64(j)/float64(len(s)))
		i = j
	}
	return c
}

// P returns P(X ≤ x).
func (c *CDF) P(x int) float64 {
	i := sort.SearchInts(c.values, x+1) - 1
	if i < 0 {
		return 0
	}
	return c.cum[i]
}

// Quantile returns the smallest sample value v with P(X ≤ v) ≥ q, for
// q ∈ (0, 1].
func (c *CDF) Quantile(q float64) int {
	for i, p := range c.cum {
		if p >= q {
			return c.values[i]
		}
	}
	return c.values[len(c.values)-1]
}

// Max returns the largest sample value.
func (c *CDF) Max() int { return c.values[len(c.values)-1] }

// Min returns the smallest sample value.
func (c *CDF) Min() int { return c.values[0] }

// N returns the sample count.
func (c *CDF) N() int { return c.n }

// Points returns the CDF's support and cumulative probabilities, suitable
// for plotting exactly like the paper's Figures 4 and 6.
func (c *CDF) Points() (values []int, cum []float64) {
	return append([]int(nil), c.values...), append([]float64(nil), c.cum...)
}

// Welford accumulates a running mean and variance (Welford's method); it is
// used to average the randomized placement baselines across repetitions.
type Welford struct {
	n    int
	mean float64
	m2   float64
}

// Add records one observation.
func (w *Welford) Add(x float64) {
	w.n++
	d := x - w.mean
	w.mean += d / float64(w.n)
	w.m2 += d * (x - w.mean)
}

// N returns the observation count.
func (w *Welford) N() int { return w.n }

// Mean returns the running mean (0 with no observations).
func (w *Welford) Mean() float64 { return w.mean }

// StdDev returns the sample standard deviation (0 with fewer than two
// observations).
func (w *Welford) StdDev() float64 {
	if w.n < 2 {
		return 0
	}
	return math.Sqrt(w.m2 / float64(w.n-1))
}

// Histogram counts integer samples into unit buckets.
type Histogram struct {
	counts map[int]int
	total  int
}

// NewHistogram returns an empty histogram.
func NewHistogram() *Histogram { return &Histogram{counts: map[int]int{}} }

// Add records one sample.
func (h *Histogram) Add(x int) {
	h.counts[x]++
	h.total++
}

// Count returns the number of samples equal to x.
func (h *Histogram) Count(x int) int { return h.counts[x] }

// Total returns the number of samples recorded.
func (h *Histogram) Total() int { return h.total }
