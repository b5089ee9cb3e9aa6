package workload

import (
	"fmt"
	"math"

	"gostats/internal/rng"
)

// Modulator shapes an arrival process over virtual time: Factor(now)
// multiplies the instantaneous arrival *rate* (so an interarrival gap is
// divided by it). Factors compose multiplicatively across modulators.
//
// Modulators may carry evolving state (the on/off Markov chain advances a
// phase schedule), so each Generate run builds its own instances from
// ModSpecs — sharing a built Modulator across runs would leak one run's
// phase history into the next. The contract is monotonic time: Factor
// must be called with non-decreasing now values.
type Modulator interface {
	Factor(now int64) float64
}

// Diurnal is a sinusoidal rate profile: 1 + Depth*sin(2π·now/Period),
// the classic day/night load curve compressed to the workload's
// timescale. Depth in [0,1); the factor stays positive.
type Diurnal struct {
	PeriodNS float64
	Depth    float64
}

// Factor implements Modulator. The parenthesised quotient fixes the
// rounding, so a modulated spec keeps generating the sessions it always
// has.
func (d *Diurnal) Factor(now int64) float64 {
	return 1 + float64(d.Depth*math.Sin(2*math.Pi*(float64(now)/d.PeriodNS)))
}

// OnOff is a two-state Markov-modulated rate: bursts at the base rate
// (factor 1) lasting Exp(OnMeanNS), separated by lulls of factor
// OffFactor lasting Exp(OffMeanNS). Phase changes are drawn lazily from
// the modulator's own stream as virtual time advances past them, so the
// phase schedule is a pure function of (seed, phase index) and
// independent of how often Factor is polled.
type OnOff struct {
	OnMeanNS  float64
	OffMeanNS float64
	OffFactor float64

	r    *rng.Stream
	on   bool
	next int64 // virtual time of the next phase flip
	init bool
}

// Factor implements Modulator.
func (m *OnOff) Factor(now int64) float64 {
	if !m.init {
		m.init = true
		m.on = true
		m.next = now + int64(m.r.ExpFloat64()*m.OnMeanNS)
	}
	for now >= m.next {
		m.on = !m.on
		mean := m.OnMeanNS
		if !m.on {
			mean = m.OffMeanNS
		}
		gap := int64(m.r.ExpFloat64() * mean)
		if gap < 1 {
			gap = 1 // a zero-length phase would stall the schedule
		}
		m.next += gap
	}
	if m.on {
		return 1
	}
	return m.OffFactor
}

// ModSpec is the serializable description of one modulator. Kind selects
// the shape; unused fields are ignored. Specs are inert — Build turns one
// into a live Modulator bound to a derived stream.
type ModSpec struct {
	Kind string `json:"kind"` // "diurnal" or "onoff"
	// Diurnal.
	Period Duration `json:"period,omitempty"`
	Depth  float64  `json:"depth,omitempty"`
	// OnOff. The off factor defaults to 0.1; the on phase runs at the
	// base rate.
	OnMean    Duration `json:"on_mean,omitempty"`
	OffMean   Duration `json:"off_mean,omitempty"`
	OffFactor float64  `json:"off_factor,omitempty"`
}

// Validate reports spec errors.
func (m ModSpec) Validate() error {
	switch m.Kind {
	case "diurnal":
		if !(float64(m.Period) > 0) {
			return fmt.Errorf("workload: diurnal modulator needs a positive period, got %v", m.Period)
		}
		if m.Depth < 0 || m.Depth >= 1 {
			return fmt.Errorf("workload: diurnal depth must be in [0,1), got %v", m.Depth)
		}
	case "onoff":
		if !(float64(m.OnMean) > 0) || !(float64(m.OffMean) > 0) {
			return fmt.Errorf("workload: onoff modulator needs positive on_mean and off_mean")
		}
		if m.OffFactor < 0 {
			return fmt.Errorf("workload: onoff off_factor must be >= 0")
		}
	default:
		return fmt.Errorf("workload: unknown modulator kind %q (want diurnal or onoff)", m.Kind)
	}
	return nil
}

// Build turns the spec into a live modulator. r seeds stateful kinds and
// may be nil for stateless ones.
func (m ModSpec) Build(r *rng.Stream) (Modulator, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	switch m.Kind {
	case "diurnal":
		return &Diurnal{PeriodNS: float64(m.Period), Depth: m.Depth}, nil
	default: // "onoff", by Validate
		off := m.OffFactor
		if off == 0 {
			off = 0.1
		}
		return &OnOff{
			OnMeanNS:  float64(m.OnMean),
			OffMeanNS: float64(m.OffMean),
			OffFactor: off,
			r:         r,
		}, nil
	}
}

// buildModulators builds every spec, deriving one child stream per
// modulator from r so adding a modulator never disturbs the draws of the
// ones before it.
func buildModulators(specs []ModSpec, r *rng.Stream) ([]Modulator, error) {
	if len(specs) == 0 {
		return nil, nil
	}
	out := make([]Modulator, len(specs))
	for i, s := range specs {
		m, err := s.Build(r.DeriveN("modulator", i))
		if err != nil {
			return nil, err
		}
		out[i] = m
	}
	return out, nil
}

// factor multiplies every modulator's factor at now, floored at 1e-3 so
// a deep lull slows arrivals 1000x instead of stopping virtual time.
func factor(mods []Modulator, now int64) float64 {
	f := 1.0
	for _, m := range mods {
		f *= m.Factor(now)
	}
	if f < 1e-3 {
		f = 1e-3
	}
	return f
}

// scaleGap divides an interarrival gap by the rate factor f, preserving
// gap >= 0 and guarding the int64 conversion.
func scaleGap(gap int64, f float64) int64 {
	if f == 1 {
		return gap
	}
	scaled := float64(gap) / f
	if scaled > math.MaxInt64/2 {
		return math.MaxInt64 / 2
	}
	return int64(scaled)
}
