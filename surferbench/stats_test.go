package main

import "testing"

func TestNearestRank(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3, 10, 9, 8, 7, 6}
	for _, c := range []struct{ q, want float64 }{
		{0, 1}, {0.1, 1}, {0.11, 2}, {0.5, 5}, {0.9, 9}, {0.91, 10}, {1, 10},
	} {
		if got := nearestRank(xs, c.q); got != c.want {
			t.Errorf("nearestRank(q=%g) = %g, want %g", c.q, got, c.want)
		}
	}
	// 120 samples: p90 is the 108th smallest, leaving 12 above it.
	var many []float64
	for i := 120; i >= 1; i-- {
		many = append(many, float64(i))
	}
	if got := nearestRank(many, 0.9); got != 108 {
		t.Errorf("p90 of 1..120 = %g, want 108", got)
	}
	if got := nearestRank(nil, 0.5); got != 0 {
		t.Errorf("nearestRank(empty) = %g, want 0", got)
	}
	if xs[0] != 5 {
		t.Error("nearestRank sorted its input in place")
	}
}

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want float64
	}{
		{nil, 0}, {[]float64{3}, 3}, {[]float64{3, 1, 2}, 2}, {[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(c.xs); got != c.want {
			t.Errorf("median(%v) = %g, want %g", c.xs, got, c.want)
		}
	}
}
