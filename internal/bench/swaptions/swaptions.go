// Package swaptions reproduces the PARSEC swaptions workload as extended
// by the paper (§IV-C): 4 swaptions priced by Monte-Carlo simulation with
// 32M paths each... restructured, as STATS does, into a stream of
// simulation batches chained by a state dependence.
//
// The computational state is the running Monte-Carlo estimator
// (sum, sum of squares, count — 24 bytes, matching Table I). Each input
// is one batch of path simulations for one swaption; Update prices the
// batch under a Vasicek short-rate model and folds it into the estimator.
// Nondeterminism comes from the random paths. The short-memory property
// holds because the estimator converges: after enough batches the running
// mean is within sampling error of the true price regardless of history,
// so an alternative producer that replays only the last k batches from an
// empty estimator reproduces a statistically equivalent state.
//
// The real computation runs RealSimsPerBatch paths per batch; the cost
// model charges NativeSimsPerBatch paths (32M/batch-count) so the
// simulated instruction counts match the paper's scale.
package swaptions

import (
	"maps"
	"math"
	"slices"

	"gostats/internal/bench"
	"gostats/internal/engine"
	"gostats/internal/machine"
	"gostats/internal/memsim"
	"gostats/internal/rng"
)

func init() { bench.Register("swaptions", func() bench.Benchmark { return New() }) }

// Params sizes the workload.
type Params struct {
	// Swaptions is the number of distinct swaptions (the paper uses 4).
	Swaptions int
	// BatchesPerSwaption splits each swaption's simulations into the
	// input stream.
	BatchesPerSwaption int
	// RealSimsPerBatch is the number of paths actually simulated per
	// batch (semantics); NativeSimsPerBatch is the charged count (costs).
	RealSimsPerBatch   int
	NativeSimsPerBatch int64
	// Steps is the number of time steps per path.
	Steps int
	// MatchRelTol is the commit tolerance: relative difference between
	// the speculative and original price estimates.
	MatchRelTol float64
}

// Default returns the native-scale parameters: 4 swaptions, 32M charged
// simulations each.
func Default() Params {
	return Params{
		Swaptions:          4,
		BatchesPerSwaption: 128,
		RealSimsPerBatch:   1600,
		NativeSimsPerBatch: 32_000_000 / 128,
		Steps:              24,
		MatchRelTol:        0.045,
	}
}

// Training returns the autotuning workload: different data at a
// comparable scale, so tuned configurations transfer to the native
// inputs (§IV-C: training inputs "are different from the native inputs").
func Training() Params {
	p := Default()
	p.BatchesPerSwaption = 96
	return p
}

// Batch is one input: a block of Monte-Carlo paths for one swaption.
type Batch struct {
	Swaption int
	Index    int
	// Seed decorrelates batches (the program's nondeterminism still comes
	// from the runtime-provided stream).
	Seed uint64
}

// estState is the 24-byte running estimator (Table I: swaptions state
// size 24 bytes).
type estState struct {
	sum   float64
	sumSq float64
	n     float64
	// sw tracks which swaption the estimator currently accumulates; a
	// swaption switch resets it. Not counted in StateBytes: it mirrors
	// the loop index of the original program.
	sw int
}

// Swaptions is the benchmark implementation.
type Swaptions struct {
	p Params
	// Vasicek model parameters per swaption.
	strike [4]float64
}

// New builds the native-scale benchmark.
func New() *Swaptions { return NewWithParams(Default()) }

// NewWithParams builds a custom-scale benchmark.
func NewWithParams(p Params) *Swaptions {
	s := &Swaptions{p: p}
	for i := range s.strike {
		s.strike[i] = 0.02 + float64(0.005*float64(i))
	}
	return s
}

// Name implements engine.Program.
func (s *Swaptions) Name() string { return "swaptions" }

// Describe implements bench.Benchmark.
func (s *Swaptions) Describe() string {
	return "HJM-style Monte-Carlo swaption pricing (PARSEC), estimator state dependence"
}

// Initial starts with an empty estimator, like the original program.
func (s *Swaptions) Initial(r *rng.Stream) engine.State { return &estState{sw: -1} }

// Fresh is identical: the estimator needs no history to start.
func (s *Swaptions) Fresh(r *rng.Stream) engine.State { return &estState{sw: -1} }

// swaptionPayoff simulates one path and returns the discounted payoff.
// Vasicek short rate: dr = a(b - r)dt + sigma dW; payoff on the terminal
// swap rate proxy S = base - slope*rT.
func (s *Swaptions) swaptionPayoff(sw int, r *rng.Stream) float64 {
	const (
		a, b, sigma = 0.2, 0.045, 0.01
		r0          = 0.03
	)
	dt := 1.0 / float64(s.p.Steps)
	rt := r0
	for i := 0; i < s.p.Steps; i++ {
		rt += float64(a*(b-rt)*dt) + float64(sigma*math.Sqrt(dt)*r.NormFloat64())
	}
	S := 0.06 - float64(0.8*rt)
	if v := S - s.strike[sw%len(s.strike)]; v > 0 {
		return v
	}
	return 0
}

// TruePrice returns the analytic expectation of the payoff, used as the
// output-quality oracle. With rT ~ N(m, v) and S = base - slope*rT,
// E[max(S-K, 0)] follows the Bachelier formula.
func (s *Swaptions) TruePrice(sw int) float64 {
	const (
		a, b, sigma = 0.2, 0.045, 0.01
		r0          = 0.03
	)
	// Vasicek terminal moments at T = 1.
	m := b + float64((r0-b)*math.Exp(-a))
	v := sigma * sigma / (2 * a) * (1 - math.Exp(-2*a))
	mean := 0.06 - float64(0.8*m)
	sd := 0.8 * math.Sqrt(v)
	k := s.strike[sw%len(s.strike)]
	d := (mean - k) / sd
	phi := math.Exp(-d*d/2) / math.Sqrt(2*math.Pi)
	Phi := 0.5 * math.Erfc(-d/math.Sqrt2)
	return float64((mean-k)*Phi) + float64(sd*phi)
}

// Update simulates one batch and folds it into the estimator.
func (s *Swaptions) Update(st engine.State, in engine.Input, r *rng.Stream) (engine.State, engine.Output) {
	e := st.(*estState)
	batch := in.(Batch)
	if e.sw != batch.Swaption {
		*e = estState{sw: batch.Swaption}
	}
	for i := 0; i < s.p.RealSimsPerBatch; i++ {
		p := s.swaptionPayoff(batch.Swaption, r)
		e.sum += p
		e.sumSq += float64(p * p)
		e.n++
	}
	return e, Price{Swaption: batch.Swaption, Estimate: e.mean(), N: e.n}
}

func (e *estState) mean() float64 {
	if e.n == 0 {
		return 0
	}
	return e.sum / e.n
}

func (e *estState) stderr() float64 {
	if e.n < 2 {
		return math.Inf(1)
	}
	m := e.mean()
	variance := e.sumSq/e.n - float64(m*m)
	if variance < 0 {
		variance = 0
	}
	return math.Sqrt(variance / e.n)
}

// Price is the output after each batch.
type Price struct {
	Swaption int
	Estimate float64
	N        float64
}

// Clone copies the 24-byte estimator.
func (s *Swaptions) Clone(st engine.State) engine.State {
	c := *st.(*estState)
	return &c
}

// CloneInto implements engine.StateRecycler.
func (s *Swaptions) CloneInto(dst, src engine.State) engine.State {
	d, ok := dst.(*estState)
	if !ok {
		return s.Clone(src)
	}
	*d = *src.(*estState)
	return d
}

// Match accepts a speculative estimator whose mean is within MatchRelTol
// (relative) of an original one. An absolute tolerance (rather than one
// scaled by the speculative state's own standard error) forces
// alternative producers to process enough simulations for a trustworthy
// estimate — the short-memory length the autotuner searches for.
func (s *Swaptions) Match(a, b engine.State) bool {
	ea, eb := a.(*estState), b.(*estState)
	if ea.sw != eb.sw {
		return false
	}
	if ea.n == 0 || eb.n == 0 {
		return ea.n == eb.n
	}
	scale := math.Max(math.Abs(ea.mean()), 0.004)
	return math.Abs(ea.mean()-eb.mean()) <= s.p.MatchRelTol*scale
}

// StateBytes is 24: sum, sum of squares, count (Table I).
func (s *Swaptions) StateBytes() int64 { return 24 }

// simProfile targets the paper's swaptions rates (Table II): L1D ~1.6%,
// L2 ~10%, low LLC traffic, ~1.5% branch mispredictions. Almost all
// accesses hit the register-resident scratch state; a small warm region
// (rate curves) lives in L2 and a modest path buffer in the LLC.
var simProfile = memsim.AccessProfile{
	Name:    "swaptions.sim",
	MemFrac: 0.30,
	Regions: []memsim.RegionRef{
		{Name: "swaptions.scratch", Bytes: 16 << 10, Frac: 0.978},
		{Name: "swaptions.curves", Bytes: 160 << 10, Frac: 0.020},
		{Name: "swaptions.paths", Bytes: 12 << 20, Frac: 0.002},
	},
	BranchFrac:  0.12,
	BranchBias:  0.985,
	BranchSites: 8,
}

// UpdateCost charges the native-scale batch: ~240 instructions per
// simulated path step.
func (s *Swaptions) UpdateCost(in engine.Input, st engine.State) engine.UpdateWork {
	instr := s.p.NativeSimsPerBatch * int64(s.p.Steps) * 10
	serial := instr / 100 // estimator fold + batch bookkeeping
	return engine.UpdateWork{
		Serial:      machine.Work{Instr: serial, Access: &simProfile},
		Parallel:    machine.Work{Instr: instr - serial, Access: &simProfile},
		Grain:       64,
		ShareJitter: 0.03,
	}
}

// CompareCost covers the 24-byte state comparison.
func (s *Swaptions) CompareCost() machine.Work { return machine.Work{Instr: 2_000} }

// SetupWork and TeardownWork model the runtime structures.
func (s *Swaptions) SetupWork(chunks int) machine.Work {
	return machine.Work{Instr: 200_000 + int64(chunks)*40_000}
}

// TeardownWork frees them.
func (s *Swaptions) TeardownWork(chunks int) machine.Work {
	return machine.Work{Instr: 50_000 + int64(chunks)*10_000}
}

// PreRegionWork is argument parsing and term-structure setup.
func (s *Swaptions) PreRegionWork() machine.Work { return machine.Work{Instr: 18_000_000} }

// PostRegionWork prints the prices.
func (s *Swaptions) PostRegionWork() machine.Work { return machine.Work{Instr: 9_000_000} }

// Inputs generates the native batch stream: swaptions in sequence, each
// split into batches.
func (s *Swaptions) Inputs(r *rng.Stream) []engine.Input {
	return s.inputs(r, s.p.BatchesPerSwaption)
}

// TrainingInputs is a distinct stream at ~3/4 scale for the autotuner.
func (s *Swaptions) TrainingInputs(r *rng.Stream) []engine.Input {
	n := s.p.BatchesPerSwaption * 3 / 4
	if n < 4 {
		n = 4
	}
	return s.inputs(r.Derive("training"), n)
}

func (s *Swaptions) inputs(r *rng.Stream, batches int) []engine.Input {
	var ins []engine.Input
	for sw := 0; sw < s.p.Swaptions; sw++ {
		for b := 0; b < batches; b++ {
			ins = append(ins, Batch{Swaption: sw, Index: b, Seed: r.Uint64()})
		}
	}
	return ins
}

// Quality is minus the mean absolute pricing error of each swaption's
// final estimate against the analytic price.
func (s *Swaptions) Quality(outputs []engine.Output) float64 {
	final := map[int]float64{}
	for _, o := range outputs {
		p := o.(Price)
		final[p.Swaption] = p.Estimate
	}
	if len(final) == 0 {
		return math.Inf(-1)
	}
	// Accumulate in sorted swaption order: float addition is not
	// associative, so map-iteration order would leak into the reported
	// quality figure (statslint:detpath caught this).
	var errSum float64
	for _, sw := range slices.Sorted(maps.Keys(final)) {
		errSum += math.Abs(final[sw] - s.TruePrice(sw))
	}
	return -errSum / float64(len(final))
}

// MaxInnerWidth: the original PARSEC code parallelizes across swaptions.
func (s *Swaptions) MaxInnerWidth() int { return s.p.Swaptions }
