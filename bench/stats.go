package main

import (
	"math"
	"sort"
)

// percentile returns the nearest-rank p-quantile (0 < p ≤ 1) of an
// ascending-sorted sample: the smallest value with at least p·n samples at
// or below it. No interpolation, so the result is always an observed value.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// median returns the middle of xs (mean of the two middles for even n)
// without reordering the caller's slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// mean returns the arithmetic mean of xs (0 for an empty sample).
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// quartiles returns the first and third quartile of xs exactly as Python's
// statistics.quantiles(xs, n=4) (the default "exclusive" method) computes
// them — the spread the benchmark contract is judged by. Needs n ≥ 2.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0]
		}
		return 0, 0
	}
	cut := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(3)
}

// spread is the interquartile distance as a share of the median — the
// run-to-run noise figure every bound in BENCHMARK.json is sized against.
func spread(xs []float64) float64 {
	m := median(xs)
	if m == 0 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return (q3 - q1) / math.Abs(m)
}

// iv is a half-open time interval in nanoseconds since the trace epoch.
type iv struct{ start, end int64 }

// unionLen returns the total length covered by the intervals after
// clipping each to [lo, hi): overlapping children (parallel partition
// reads under one scan) are counted once.
func unionLen(ivs []iv, lo, hi int64) int64 {
	clipped := make([]iv, 0, len(ivs))
	for _, v := range ivs {
		if v.start < lo {
			v.start = lo
		}
		if v.end > hi {
			v.end = hi
		}
		if v.end > v.start {
			clipped = append(clipped, v)
		}
	}
	sort.Slice(clipped, func(a, b int) bool { return clipped[a].start < clipped[b].start })
	var total int64
	curS, curE := int64(0), int64(0)
	open := false
	for _, v := range clipped {
		switch {
		case !open:
			curS, curE, open = v.start, v.end, true
		case v.start <= curE:
			if v.end > curE {
				curE = v.end
			}
		default:
			total += curE - curS
			curS, curE = v.start, v.end
		}
	}
	if open {
		total += curE - curS
	}
	return total
}

// selfTime is a span's duration minus the part of it its children cover.
func selfTime(parent iv, children []iv) int64 {
	return (parent.end - parent.start) - unionLen(children, parent.start, parent.end)
}
