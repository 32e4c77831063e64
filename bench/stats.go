package main

import (
	"math"
	"sort"
)

// percentile returns the nearest-rank q-quantile of xs (0 < q <= 1): the
// ⌈q·n⌉-th smallest sample. It never interpolates, so every reported value
// is one that was measured. Returns 0 for no samples.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	// The epsilon keeps an exact product such as 0.95·20 = 19 from rounding
	// up to rank 20 through floating-point error.
	rank := int(math.Ceil(q*float64(len(s)) - 1e-9))
	rank = max(1, min(rank, len(s)))
	return s[rank-1]
}

// tailQuantiles are the candidate tail percentiles, highest first.
var tailQuantiles = []float64{0.999, 0.99, 0.95, 0.9}

// tailQuantile returns the highest of tailQuantiles that leaves at least ten
// of n samples above its nearest rank, and false when n is too small for
// any of them.
func tailQuantile(n int) (float64, bool) {
	for _, q := range tailQuantiles {
		if n-int(math.Ceil(q*float64(n)-1e-9)) >= 10 {
			return q, true
		}
	}
	return 0, false
}

// quartiles returns the first quartile, the median and the third quartile
// of xs by the "exclusive" method of Python's statistics.quantiles(xs, n=4),
// the rule the benchmark's spreads are judged by. With fewer than two
// samples all three are the single sample (or 0 when there is none).
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sortedCopy(xs)
	switch len(s) {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	m := len(s) + 1
	var q [3]float64
	for i := 1; i <= 3; i++ {
		j := max(1, min(i*m/4, len(s)-1))
		delta := float64(i*m - j*4)
		q[i-1] = (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q[0], q[1], q[2]
}

// median is the middle sample, or the mean of the two middle samples.
func median(xs []float64) float64 {
	s := sortedCopy(xs)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// mean is the arithmetic mean of xs, or 0 for no samples.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}
