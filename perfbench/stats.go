package main

import (
	"math"
	"sort"
)

// percentile returns the p-th percentile (0..100) of xs by linear
// interpolation between the closest ranks, the definition Python's
// statistics.quantiles(method="inclusive") and numpy's default use. It
// returns 0 for an empty sample.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if p <= 0 {
		return s[0]
	}
	if p >= 100 {
		return s[len(s)-1]
	}
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo+1 >= len(s) {
		return s[lo]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

// median is the 50th percentile.
func median(xs []float64) float64 { return percentile(xs, 50) }

// ratio returns num/base, or 0 when the base is 0 (a ratio whose base
// never occurred, such as a hit ratio with no submissions, reads 0).
func ratio(num, base float64) float64 {
	if base == 0 {
		return 0
	}
	return num / base
}

// geomean returns the geometric mean of positive values (0 for none).
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(xs)))
}
