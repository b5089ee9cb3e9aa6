package workload

import (
	"fmt"
	"math"

	"gostats/internal/rng"
)

// Distribution is one positive-valued random law, sampled from a seeded
// stream the caller owns. Samples are in the caller's unit — arrival
// gaps are virtual nanoseconds, session lengths are input counts — and
// Mean reports the law's analytic mean in that same unit.
//
// Implementations must be stateless value types: the same Distribution
// may be sampled from several streams concurrently, so all evolving
// state lives in the *rng.Stream.
type Distribution interface {
	// Sample draws one value >= 0 using r.
	Sample(r *rng.Stream) float64
	// Mean returns the analytic mean.
	Mean() float64
	// Validate reports parameter errors.
	Validate() error
}

// Exponential is the memoryless law: exponential interarrival gaps make
// the arrival process Poisson. Sample is exactly r.ExpFloat64() * Mean,
// one draw per sample.
type Exponential struct {
	MeanV float64 `json:"mean"`
}

// exp builds an Exponential with the given mean.
func exp(mean float64) Exponential { return Exponential{MeanV: mean} }

// Sample implements Distribution.
func (e Exponential) Sample(r *rng.Stream) float64 { return r.ExpFloat64() * e.MeanV }

// Mean implements Distribution.
func (e Exponential) Mean() float64 { return e.MeanV }

// Validate implements Distribution.
func (e Exponential) Validate() error {
	if !(e.MeanV > 0) {
		return fmt.Errorf("workload: exponential mean must be positive, got %v", e.MeanV)
	}
	return nil
}

// Deterministic always returns Value: a constant-rate arrival process or
// a fixed session length. Its variance is zero, which makes it the
// control case in characterization sweeps.
type Deterministic struct {
	Value float64 `json:"value"`
}

// Sample implements Distribution.
func (d Deterministic) Sample(r *rng.Stream) float64 { return d.Value }

// Mean implements Distribution.
func (d Deterministic) Mean() float64 { return d.Value }

// Validate implements Distribution.
func (d Deterministic) Validate() error {
	if d.Value < 0 {
		return fmt.Errorf("workload: deterministic value must be >= 0, got %v", d.Value)
	}
	return nil
}

// Gamma is the Gamma law with shape K and mean MeanV (scale MeanV/K).
// K < 1 gives heavier-than-exponential burstiness, K > 1 lighter; K = 1
// degenerates to Exponential (same law, different draw sequence).
type Gamma struct {
	K     float64 `json:"k"`
	MeanV float64 `json:"mean"`
}

// Mean implements Distribution.
func (g Gamma) Mean() float64 { return g.MeanV }

// Validate implements Distribution.
func (g Gamma) Validate() error {
	if !(g.K > 0) {
		return fmt.Errorf("workload: gamma shape must be positive, got %v", g.K)
	}
	if !(g.MeanV > 0) {
		return fmt.Errorf("workload: gamma mean must be positive, got %v", g.MeanV)
	}
	return nil
}

// Sample implements Distribution with Marsaglia–Tsang squeeze rejection
// (shape >= 1) plus the standard U^(1/k) boost for shape < 1. Rejection
// consumes a variable number of draws, which is fine: determinism is per
// (seed, draw sequence), not per draw count.
func (g Gamma) Sample(r *rng.Stream) float64 {
	k := g.K
	boost := 1.0
	if k < 1 {
		// Gamma(k) = Gamma(k+1) * U^(1/k).
		u := r.Float64()
		for u == 0 {
			u = r.Float64()
		}
		boost = math.Pow(u, 1/k)
		k++
	}
	d := k - 1.0/3.0
	c := 1 / math.Sqrt(9*d)
	for {
		x := r.NormFloat64()
		v := 1 + c*x
		if v <= 0 {
			continue
		}
		v = v * v * v
		u := r.Float64()
		if u < 1-0.0331*x*x*x*x {
			return boost * d * v * (g.MeanV / g.K)
		}
		if u > 0 && math.Log(u) < 0.5*x*x+d*(1-v+math.Log(v)) {
			return boost * d * v * (g.MeanV / g.K)
		}
	}
}

// Weibull is the Weibull law with shape K, scaled so its analytic mean is
// MeanV (scale = MeanV / Γ(1+1/K)). K < 1 is heavy-tailed (long-session
// stragglers), K > 1 concentrates around the mean.
type Weibull struct {
	K     float64 `json:"k"`
	MeanV float64 `json:"mean"`
}

// Mean implements Distribution.
func (w Weibull) Mean() float64 { return w.MeanV }

// Validate implements Distribution.
func (w Weibull) Validate() error {
	if !(w.K > 0) {
		return fmt.Errorf("workload: weibull shape must be positive, got %v", w.K)
	}
	if !(w.MeanV > 0) {
		return fmt.Errorf("workload: weibull mean must be positive, got %v", w.MeanV)
	}
	return nil
}

// Sample implements Distribution by inverse transform: scale * E^(1/K)
// with E standard exponential.
func (w Weibull) Sample(r *rng.Stream) float64 {
	scale := w.MeanV / math.Gamma(1+1/w.K)
	return scale * math.Pow(r.ExpFloat64(), 1/w.K)
}

// Poisson is the Poisson counting law with mean Lambda — integer-valued,
// used for session lengths (inputs per session) rather than gaps. For a
// Poisson *arrival process* use Exponential gaps: exponential
// interarrivals are exactly what makes the counting process Poisson.
type Poisson struct {
	Lambda float64 `json:"lambda"`
}

// Mean implements Distribution.
func (p Poisson) Mean() float64 { return p.Lambda }

// Validate implements Distribution.
func (p Poisson) Validate() error {
	if !(p.Lambda > 0) {
		return fmt.Errorf("workload: poisson lambda must be positive, got %v", p.Lambda)
	}
	return nil
}

// Sample implements Distribution with Knuth's product-of-uniforms method,
// splitting large lambdas into <= 30 slices so exp(-lambda) never
// underflows. Sums of independent Poissons are Poisson, so the split is
// exact.
func (p Poisson) Sample(r *rng.Stream) float64 {
	const slice = 30.0
	remaining := p.Lambda
	total := 0.0
	for remaining > 0 {
		l := remaining
		if l > slice {
			l = slice
		}
		remaining -= l
		limit := math.Exp(-l)
		prod := r.Float64()
		for prod > limit {
			total++
			prod *= r.Float64()
		}
	}
	return total
}
