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
