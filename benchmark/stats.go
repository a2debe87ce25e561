package main

import (
	"math"
	"sort"
)

// median returns the middle value of xs (the mean of the middle two for
// an even count); 0 for an empty slice. xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// quantileSorted returns the q-quantile (0 ≤ q ≤ 1) of an ascending
// sample by the nearest-rank rule: the smallest value with at least
// q·n samples at or below it.
func quantileSorted(s []uint32, q float64) float64 {
	if len(s) == 0 {
		return 0
	}
	rank := int(math.Ceil(q*float64(len(s)))) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(s) {
		rank = len(s) - 1
	}
	return float64(s[rank])
}

// quartiles returns the first and third quartile of xs the way Python's
// statistics.quantiles(xs, n=4) does (exclusive method) — the rule the
// acceptance procedure for this benchmark uses to size its spread.
func quartiles(xs []float64) (q1, q3 float64) {
	n := len(xs)
	if n < 2 {
		if n == 1 {
			return xs[0], xs[0]
		}
		return 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(i int) float64 { // cut point i of 4
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

// relIQR is the interquartile range of xs as a share of their median.
func relIQR(xs []float64) float64 {
	m := median(xs)
	if m == 0 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return (q3 - q1) / math.Abs(m)
}

// maxRelDev is the largest distance of any value from the median, as a
// share of the median.
func maxRelDev(xs []float64) float64 {
	m := median(xs)
	if m == 0 {
		return 0
	}
	worst := 0.0
	for _, x := range xs {
		if d := math.Abs(x-m) / math.Abs(m); d > worst {
			worst = d
		}
	}
	return worst
}

// quietQuarter returns the indexes of the ⌈n/4⌉ slices with the highest
// throughput. Interference from the host only ever slows a slice, so
// the fastest quarter is the part of an episode that ran undisturbed.
func quietQuarter(thr []float64) []int {
	idx := make([]int, len(thr))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return thr[idx[a]] > thr[idx[b]] })
	return idx[:(len(thr)+3)/4]
}

// coefVar is the standard deviation of xs as a share of their mean.
func coefVar(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	mean := sum / float64(len(xs))
	if mean == 0 {
		return 0
	}
	var ss float64
	for _, x := range xs {
		ss += (x - mean) * (x - mean)
	}
	return math.Sqrt(ss/float64(len(xs))) / mean
}
