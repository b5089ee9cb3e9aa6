package main

import (
	"math"
	"sort"
)

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the middle of xs (mean of the two middles for an even
// count), 0 for none.
func median(xs []float64) float64 {
	s := sorted(xs)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the three cut points Python's
// statistics.quantiles(xs, n=4) gives (its default "exclusive" method),
// which is what the driver judges spreads with. It needs two values.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sorted(xs)
	m := len(s)
	if m < 2 {
		v := median(s)
		return v, v, v
	}
	cut := func(i int) float64 {
		j := i * (m + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > m-1 {
			j = m - 1
		}
		delta := float64(i*(m+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// iqrOverMedian is the spread the driver judges a metric by: the distance
// between the first and third quartile as a share of the median.
func iqrOverMedian(xs []float64) float64 {
	q1, q2, q3 := quartiles(xs)
	if q2 == 0 {
		return 0
	}
	return math.Abs((q3 - q1) / q2)
}

// pairRatios divides num by den pair by pair. Every end-to-end time figure
// is the median of these, never a ratio of two medians: the two passes of a
// pair run back to back, so the host's phase of the minute cancels within
// the pair and not across the run.
func pairRatios(num, den []float64) []float64 {
	out := make([]float64, 0, len(num))
	for i := range num {
		if i < len(den) && den[i] > 0 {
			out = append(out, num[i]/den[i])
		}
	}
	return out
}

// hiPercentile returns the highest percentile of xs that still has at least
// ten samples beyond it, and that percentile's value; with fewer than eleven
// samples no percentile qualifies and it reports the median as p50.
func hiPercentile(xs []float64) (value, pct float64) {
	s := sorted(xs)
	n := len(s)
	if n < 11 {
		return median(s), 50
	}
	i := n - 11
	return s[i], 100 * float64(i+1) / float64(n)
}
