// Package stat implements the descriptive statistics used by the paper's
// methodology: medians with confidence intervals, the convergence rule
// from §IV-B ("95% of the measurements are within 5% of the median"),
// geometric means for speedup summaries, and histogram summaries for the
// output-variability study (Fig. 16).
package stat

import (
	"fmt"
	"math"
	"sort"
)

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Variance returns the unbiased sample variance of xs (0 if len < 2).
func Variance(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	m := Mean(xs)
	ss := 0.0
	for _, x := range xs {
		d := x - m
		ss += float64(d * d)
	}
	return ss / float64(n-1)
}

// StdDev returns the sample standard deviation of xs.
func StdDev(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

// Median returns the median of xs, or 0 for an empty slice.
func Median(xs []float64) float64 { return Percentile(xs, 50) }

// Percentile returns the p-th percentile (0..100) of xs using linear
// interpolation between closest ranks. It returns 0 for an empty slice.
func Percentile(xs []float64, p float64) float64 {
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
	rank := float64(p / 100 * float64(len(s)-1))
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return s[lo]
	}
	frac := rank - float64(lo)
	return float64(s[lo]*(1-frac)) + float64(s[hi]*frac)
}

// GeoMean returns the geometric mean of xs. Non-positive entries are
// rejected with an error since they have no geometric mean.
func GeoMean(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, fmt.Errorf("stat: geometric mean of empty slice")
	}
	sum := 0.0
	for _, x := range xs {
		if x <= 0 {
			return 0, fmt.Errorf("stat: geometric mean requires positive values, got %g", x)
		}
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs))), nil
}

// MustGeoMean is GeoMean for inputs known to be positive; it panics on
// invalid input.
func MustGeoMean(xs []float64) float64 {
	g, err := GeoMean(xs)
	if err != nil {
		panic(err)
	}
	return g
}

// Converged reports the paper's §IV-B stopping rule: at least minRuns
// samples and at least frac of them within tol (relative) of the median.
// The paper uses frac=0.95, tol=0.05.
func Converged(xs []float64, minRuns int, frac, tol float64) bool {
	if len(xs) < minRuns {
		return false
	}
	med := Median(xs)
	if med == 0 {
		return true
	}
	within := 0
	for _, x := range xs {
		if math.Abs(x-med) <= tol*math.Abs(med) {
			within++
		}
	}
	return float64(within) >= frac*float64(len(xs))
}

// Summary condenses a sample into the descriptive statistics reported in
// the paper's plots.
type Summary struct {
	N      int
	Mean   float64
	Median float64
	Std    float64
	Min    float64
	Max    float64
	P5     float64
	P25    float64
	P75    float64
	P95    float64
}

// Summarize computes a Summary of xs.
func Summarize(xs []float64) Summary {
	s := Summary{N: len(xs)}
	if len(xs) == 0 {
		return s
	}
	s.Mean = Mean(xs)
	s.Median = Median(xs)
	s.Std = StdDev(xs)
	s.Min = xs[0]
	s.Max = xs[0]
	for _, x := range xs {
		s.Min = math.Min(s.Min, x)
		s.Max = math.Max(s.Max, x)
	}
	s.P5 = Percentile(xs, 5)
	s.P25 = Percentile(xs, 25)
	s.P75 = Percentile(xs, 75)
	s.P95 = Percentile(xs, 95)
	return s
}

// Histogram bins xs into bins equal-width buckets between min and max of
// the sample. Edges has bins+1 entries.
type Histogram struct {
	Edges  []float64
	Counts []int
}

// NewHistogram builds a Histogram with the given number of bins. bins
// must be positive.
func NewHistogram(xs []float64, bins int) Histogram {
	if bins <= 0 {
		panic("stat: NewHistogram with non-positive bin count")
	}
	h := Histogram{Edges: make([]float64, bins+1), Counts: make([]int, bins)}
	if len(xs) == 0 {
		return h
	}
	lo, hi := xs[0], xs[0]
	for _, x := range xs {
		lo = math.Min(lo, x)
		hi = math.Max(hi, x)
	}
	if hi == lo {
		hi = lo + 1
	}
	width := (hi - lo) / float64(bins)
	for i := range h.Edges {
		h.Edges[i] = lo + float64(width*float64(i))
	}
	for _, x := range xs {
		b := int((x - lo) / width)
		if b >= bins {
			b = bins - 1
		}
		if b < 0 {
			b = 0
		}
		h.Counts[b]++
	}
	return h
}

// Total returns the number of samples binned in h.
func (h Histogram) Total() int {
	t := 0
	for _, c := range h.Counts {
		t += c
	}
	return t
}
