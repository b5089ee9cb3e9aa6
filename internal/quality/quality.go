// Package quality implements the paper's output-variability study (§V-E,
// Fig. 16): run the original program and the STATS-parallelized program
// many times with different nondeterminism seeds, score every run's
// output, and compare the two quality distributions.
//
// These sweeps only need the programs' outputs — no timing — so they run
// on the native executor (plain goroutines), which executes the real Go
// computation orders of magnitude faster than the cycle simulator.
package quality

import (
	"fmt"
	"math"
	"sort"

	"gostats/internal/bench"
	"gostats/internal/engine"
	"gostats/internal/rng"
	"gostats/internal/stat"
)

// Sweep holds the two quality distributions for one benchmark.
type Sweep struct {
	Benchmark string
	Original  []float64
	STATS     []float64
	// Commits and Aborts aggregate speculation outcomes over the STATS
	// runs.
	Commits, Aborts int
}

// Distributions runs the original program and its STATS version `runs`
// times each (seeds varying the nondeterminism, inputs fixed) and returns
// the quality samples, reproducing Fig. 16's methodology ("we run the
// original program two hundred times...").
func Distributions(b bench.Benchmark, cfg engine.Config, runs int, inputSeed, seed uint64) (*Sweep, error) {
	if runs < 1 {
		return nil, fmt.Errorf("quality: runs must be >= 1")
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	inputs := b.Inputs(rng.New(inputSeed))
	sw := &Sweep{Benchmark: b.Name()}
	ex := engine.NewNativeExec()
	batch := &engine.BatchScheduler{}
	for i := 0; i < runs; i++ {
		s := seed + uint64(i)*104729
		rep := engine.RunSequential(ex, b, inputs, s)
		sw.Original = append(sw.Original, b.Quality(rep.Outputs))

		c := cfg
		c.Seed = s
		prep, err := batch.RunSlice(b, inputs, c)
		if err != nil {
			return nil, fmt.Errorf("quality: STATS run %d: %w", i, err)
		}
		sw.STATS = append(sw.STATS, b.Quality(prep.Outputs))
		sw.Commits += prep.Commits
		sw.Aborts += prep.Aborts
	}
	return sw, nil
}

// Summary condenses both distributions.
type Summary struct {
	Benchmark string
	Original  stat.Summary
	STATS     stat.Summary
	// Improved reports whether the STATS median quality is at least as
	// good as the original's (the paper's counterintuitive finding that
	// "STATS tends to improve the quality of the outputs").
	Improved bool
	// KS is the two-sample Kolmogorov-Smirnov statistic between the
	// distributions, and KSSignificant whether they differ at the 5%
	// level — a statistical sharpening of the paper's visual comparison.
	KS            float64
	KSSignificant bool
}

// Summarize reduces a sweep.
func (s *Sweep) Summarize() Summary {
	o := stat.Summarize(s.Original)
	p := stat.Summarize(s.STATS)
	ks := KolmogorovSmirnov(s.Original, s.STATS)
	return Summary{
		Benchmark:     s.Benchmark,
		Original:      o,
		STATS:         p,
		Improved:      p.Median >= o.Median,
		KS:            ks,
		KSSignificant: KSReject(ks, len(s.Original), len(s.STATS), 0.05),
	}
}

// KolmogorovSmirnov returns the two-sample KS statistic: the maximum
// distance between the empirical CDFs of a and b.
func KolmogorovSmirnov(a, b []float64) float64 {
	if len(a) == 0 || len(b) == 0 {
		return 0
	}
	sa := append([]float64(nil), a...)
	sb := append([]float64(nil), b...)
	sort.Float64s(sa)
	sort.Float64s(sb)
	var i, j int
	var d float64
	for i < len(sa) && j < len(sb) {
		// Advance both CDFs past the next value (ties move together).
		x := math.Min(sa[i], sb[j])
		for i < len(sa) && sa[i] == x {
			i++
		}
		for j < len(sb) && sb[j] == x {
			j++
		}
		diff := math.Abs(float64(i)/float64(len(sa)) - float64(j)/float64(len(sb)))
		if diff > d {
			d = diff
		}
	}
	return d
}

// KSReject reports whether the KS statistic rejects distribution equality
// at significance level alpha (asymptotic critical value).
func KSReject(d float64, n, m int, alpha float64) bool {
	if n == 0 || m == 0 {
		return false
	}
	// c(alpha) = sqrt(-ln(alpha/2)/2); 0.05 -> 1.358.
	c := math.Sqrt(-math.Log(alpha/2) / 2)
	crit := c * math.Sqrt(float64(n+m)/float64(n*m))
	return d > crit
}
