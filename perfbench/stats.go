package main

import (
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie above a reported percentile: a
// tail figure resting on fewer is one or two unlucky queries, not a
// property of the system.
const minBeyond = 10

// quantile returns the nearest-rank q-quantile (0 < q <= 1) of sorted: the
// ceil(q·n)-th smallest sample. It returns NaN for no samples.
func quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return sorted[rank-1]
}

// beyond counts the samples ranked above the nearest-rank q-quantile of n.
func beyond(n int, q float64) int {
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	return n - rank
}

// tailQuantile returns the q-quantile of sorted and whether it may be
// reported: at least minBeyond samples must lie beyond it.
func tailQuantile(sorted []float64, q float64) (float64, bool) {
	if len(sorted) == 0 || beyond(len(sorted), q) < minBeyond {
		return math.NaN(), false
	}
	return quantile(sorted, q), true
}

// highestTail returns the highest of the candidate percentiles (tried in
// order, highest first) that has at least minBeyond samples beyond it.
func highestTail(sorted []float64, candidates ...float64) (q, v float64, ok bool) {
	for _, q := range candidates {
		if v, ok := tailQuantile(sorted, q); ok {
			return q, v, true
		}
	}
	return 0, math.NaN(), false
}

// sortedCopy returns xs sorted ascending, leaving xs untouched.
func sortedCopy(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// median is the 0.5 nearest-rank quantile of unsorted xs (NaN when empty).
func median(xs []float64) float64 { return quantile(sortedCopy(xs), 0.5) }

// mean returns the arithmetic mean of xs (NaN when empty).
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// ratio returns num/den, or 0 when den is 0 (a layer the workload never
// exercised reads as zero work, not as NaN).
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
