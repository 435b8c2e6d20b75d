package main

import (
	"math"
	"slices"
)

// median returns the middle value of xs (the mean of the two middle values
// when len(xs) is even); 0 for an empty slice. xs is not modified.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// nearestRank returns the q-quantile (0 ≤ q ≤ 1) of xs by the nearest-rank
// method: the smallest sample with at least ⌈q·n⌉ samples at or below it.
// It returns 0 for an empty slice. xs is not modified.
func nearestRank(xs []float64, q float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	rank := int(math.Ceil(q*float64(n))) - 1
	return s[min(max(rank, 0), n-1)]
}
