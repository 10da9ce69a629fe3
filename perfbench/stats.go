package main

import (
	"math"
	"sort"
)

// quantile returns the q-quantile (0 ≤ q ≤ 1) of xs by linear
// interpolation between closest ranks; NaN for an empty slice. xs is not
// modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// centralMedian estimates the median as the mean of the middle tenth of
// xs. Where the samples fall into separated clusters — place-miss's eight
// request kinds, an equal number of each — the plain median sits between
// the two samples either side of a gap and swings with them; this does
// not. On a unimodal sample it matches the median closely.
func centralMedian(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	lo := int(math.Floor(0.45 * float64(len(s))))
	hi := max(int(math.Ceil(0.55*float64(len(s)))), lo+1)
	return mean(s[lo:min(hi, len(s))])
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}
