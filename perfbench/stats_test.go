package main

import (
	"math"
	"testing"
)

func TestPercentile(t *testing.T) {
	xs := []float64{4, 1, 3, 2} // unsorted on purpose
	for _, c := range []struct{ p, want float64 }{
		{0, 1}, {25, 1.75}, {50, 2.5}, {90, 3.7}, {100, 4},
	} {
		if got := percentile(xs, c.p); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if xs[0] != 4 {
		t.Errorf("percentile sorted its input in place: %v", xs)
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of no samples = %v, want 0", got)
	}
	if got := median([]float64{7}); got != 7 {
		t.Errorf("median of one sample = %v, want 7", got)
	}
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("median of odd sample = %v, want 3", got)
	}
}

func TestRatioAndGeomean(t *testing.T) {
	if got := ratio(3, 4); got != 0.75 {
		t.Errorf("ratio(3, 4) = %v", got)
	}
	if got := ratio(3, 0); got != 0 {
		t.Errorf("ratio with a zero base = %v, want 0", got)
	}
	if got := geomean([]float64{1, 100}); math.Abs(got-10) > 1e-12 {
		t.Errorf("geomean(1, 100) = %v, want 10", got)
	}
	if got := geomean(nil); got != 0 {
		t.Errorf("geomean of nothing = %v, want 0", got)
	}
}
