package main

import (
	"math"
	"sort"
)

// minBeyond is the fewest samples that must lie beyond a percentile above
// the median before it is reported (choosing-metrics §1): a p99 of fewer
// than 1000 samples is a single outlier, not a tail.
const minBeyond = 10

// sortedMs sorts durations given in nanoseconds and returns them in
// milliseconds, the unit every latency is reported in.
func sortedMs(ns []int64) []float64 {
	out := make([]float64, len(ns))
	for i, v := range ns {
		out[i] = float64(v) / 1e6
	}
	sort.Float64s(out)
	return out
}

// percentile returns the nearest-rank p-th percentile (0 < p < 100) of an
// ascending slice. ok is false when the slice is empty, or when p is above
// the median and fewer than minBeyond samples lie beyond it.
func percentile(sorted []float64, p float64) (v float64, ok bool) {
	n := len(sorted)
	if n == 0 {
		return 0, false
	}
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if p > 50 && n-rank < minBeyond {
		return sorted[rank-1], false
	}
	return sorted[rank-1], true
}
