package main

import (
	"math"
	"sort"
	"time"
)

// percentile returns the p-th percentile (0..100) of xs by linear
// interpolation between closest ranks; 0 for an empty sample. xs is
// sorted in place.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	if len(xs) == 1 {
		return xs[0]
	}
	rank := p / 100 * float64(len(xs)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	return xs[lo] + (xs[hi]-xs[lo])*(rank-float64(lo))
}

// median is the 50th percentile; the figure every timed metric reports
// over its windows.
func median(xs []float64) float64 { return percentile(xs, 50) }

// tailPercentiles are the candidates for the ungated tail figure, from
// the deepest down.
var tailPercentiles = []float64{99.99, 99.9, 99.5, 99, 98, 95, 90, 75}

// tail returns the highest percentile that still has at least ten
// samples beyond it, and its value: deeper percentiles are decided by a
// handful of samples and say more about the host's neighbours than
// about the program. With fewer than 40 samples no percentile
// qualifies and tail reports the median.
func tail(xs []float64) (pct, value float64) {
	for _, p := range tailPercentiles {
		if float64(len(xs))*(100-p)/100 >= 10 {
			return p, percentile(xs, p)
		}
	}
	return 50, median(xs)
}

// ms, us and ns convert a duration to the float the metric's unit wants.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
func ns(d time.Duration) float64 { return float64(d) }

// durations converts a latency sample to floats through conv.
func durations(ds []time.Duration, conv func(time.Duration) float64) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = conv(d)
	}
	return out
}
