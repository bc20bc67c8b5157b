package main

import (
	"math"
	"sort"
)

// percentiles are the candidate percentiles a timing is reported at,
// lowest first.
var percentiles = []float64{50, 90, 99, 99.9}

// minTail is the number of samples that must lie beyond a percentile
// for it to be reported as measured rather than extrapolated.
const minTail = 10

// supportedPercentile returns the highest candidate percentile with at
// least minTail of n samples beyond it, or 0 when even the median has
// fewer.
func supportedPercentile(n int) float64 {
	best := 0.0
	for _, p := range percentiles {
		if n-rank(n, p) >= minTail {
			best = p
		}
	}
	return best
}

// rank is the 1-based nearest rank of the p-th percentile of n
// samples; the small slack keeps p·n/100 from rounding up past an
// integer.
func rank(n int, p float64) int {
	r := int(math.Ceil(p*float64(n)/100 - 1e-9))
	return max(r, 1)
}

// quantile returns the nearest-rank p-th percentile (0 < p ≤ 100) of
// xs: the smallest sample with at least p% of the samples at or below
// it. It returns 0 for no samples.
func quantile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank(len(s), p)-1]
}

// median is the 50th percentile of xs.
func median(xs []float64) float64 { return quantile(xs, 50) }

// weightedQuantile returns the nearest-rank p-th percentile of xs when
// xs[i] counts ws[i] times: the smallest sample with at least p% of
// the total weight at or below it. Equal weights give quantile's
// answer; it returns 0 for no samples.
func weightedQuantile(xs, ws []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	idx := make([]int, len(xs))
	total := 0.0
	for i := range idx {
		idx[i] = i
		total += ws[i]
	}
	sort.SliceStable(idx, func(a, b int) bool { return xs[idx[a]] < xs[idx[b]] })
	want, cum := p*total/100*(1-1e-12), 0.0
	for _, i := range idx {
		cum += ws[i]
		if cum >= want {
			return xs[i]
		}
	}
	return xs[idx[len(idx)-1]]
}
