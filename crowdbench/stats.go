package main

import (
	"math"
	"sort"
)

// median of xs (NaN when empty).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile is the linear-interpolation q-quantile of xs (NaN when empty).
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

// tailPercentile is the highest whole percentile p < 100 that leaves at
// least 10 of n samples above it (n - ceil(p/100*n) >= 10), or 0 when n
// is too small for any tail: below 40 samples even the 75th percentile
// would leave fewer than ten, and a tail of fewer is no tail.
func tailPercentile(n int) int {
	for p := 99; p >= 75; p-- {
		if n-int(math.Ceil(float64(p)*float64(n)/100)) >= 10 {
			return p
		}
	}
	return 0
}

// tail returns the tailPercentile of xs and its value.
func tail(xs []float64) (int, float64) {
	p := tailPercentile(len(xs))
	if p == 0 {
		return 0, math.NaN()
	}
	return p, quantile(xs, float64(p)/100)
}
