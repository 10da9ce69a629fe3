package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestCDFBasics(t *testing.T) {
	c := NewCDF([]int{1, 1, 2, 5, 5, 5, 9, 9, 9, 9})
	cases := []struct {
		x    int
		want float64
	}{
		{0, 0}, {1, 0.2}, {2, 0.3}, {4, 0.3}, {5, 0.6}, {9, 1}, {100, 1},
	}
	for _, cse := range cases {
		if got := c.P(cse.x); math.Abs(got-cse.want) > 1e-12 {
			t.Errorf("P(X≤%d) = %v, want %v", cse.x, got, cse.want)
		}
	}
	if c.Min() != 1 || c.Max() != 9 || c.N() != 10 {
		t.Errorf("min/max/n = %d/%d/%d", c.Min(), c.Max(), c.N())
	}
	if q := c.Quantile(0.5); q != 5 {
		t.Errorf("median = %d, want 5", q)
	}
	if q := c.Quantile(1.0); q != 9 {
		t.Errorf("Q(1) = %d, want 9", q)
	}
}

func TestCDFEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewCDF(nil) did not panic")
		}
	}()
	NewCDF(nil)
}

func TestCDFProperties(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(200)
		samples := make([]int, n)
		for i := range samples {
			samples[i] = rng.Intn(50)
		}
		c := NewCDF(samples)
		vals, cum := c.Points()
		// Monotone, ends at exactly 1, values strictly increasing.
		for i := 1; i < len(vals); i++ {
			if vals[i] <= vals[i-1] || cum[i] <= cum[i-1] {
				return false
			}
		}
		if math.Abs(cum[len(cum)-1]-1) > 1e-12 {
			return false
		}
		// P agrees with direct counting at a random point.
		x := rng.Intn(60) - 5
		cnt := 0
		for _, s := range samples {
			if s <= x {
				cnt++
			}
		}
		return math.Abs(c.P(x)-float64(cnt)/float64(n)) < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestWelford(t *testing.T) {
	var w Welford
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		w.Add(x)
	}
	if w.N() != 8 {
		t.Errorf("N = %d", w.N())
	}
	if math.Abs(w.Mean()-5) > 1e-12 {
		t.Errorf("mean = %v, want 5", w.Mean())
	}
	// Sample stddev of this classic set is sqrt(32/7).
	if want := math.Sqrt(32.0 / 7.0); math.Abs(w.StdDev()-want) > 1e-12 {
		t.Errorf("stddev = %v, want %v", w.StdDev(), want)
	}
}

func TestWelfordDegenerate(t *testing.T) {
	var w Welford
	if w.Mean() != 0 || w.StdDev() != 0 {
		t.Error("zero-value Welford not zero")
	}
	w.Add(3)
	if w.StdDev() != 0 {
		t.Error("stddev of one sample not 0")
	}
}

func TestHistogram(t *testing.T) {
	h := NewHistogram()
	for _, x := range []int{1, 1, 2, 7} {
		h.Add(x)
	}
	if h.Count(1) != 2 || h.Count(7) != 1 || h.Count(3) != 0 {
		t.Error("counts wrong")
	}
	if h.Total() != 4 {
		t.Errorf("total = %d", h.Total())
	}
}
