// Package bodytrack reproduces the PARSEC bodytrack workload, the
// paper's driving example (§II-A): an annealed particle filter tracking
// an articulated body pose across an image sequence.
//
// The computational state is the particle set: 1250 particles x 50 pose
// dimensions x 8 bytes = 500,000 bytes, matching Table I. Each input is
// one frame; Update runs two annealing layers of predict-weight-resample
// against the frame's (synthetic) observation. Nondeterminism comes from
// random particle diffusion and resampling phases. The short-memory
// property is the one the paper describes: where the body is in frame i
// depends on frame i-1 but not on frames long past, so an alternative
// producer that runs the filter from uniformly distributed guesses over
// the last k frames reproduces a valid state — except across occlusions,
// where speculation aborts.
package bodytrack

import (
	"math"

	"gostats/internal/bench"
	"gostats/internal/bench/trackutil"
	"gostats/internal/engine"
	"gostats/internal/machine"
	"gostats/internal/memsim"
	"gostats/internal/rng"
)

func init() { bench.Register("bodytrack", func() bench.Benchmark { return New() }) }

const (
	particles = 1250
	poseDims  = 50
)

// Params sizes the workload.
type Params struct {
	Frames     int
	Occlusions int
	// NativeInstrPerFrame is the charged cost of one annealed filter pass
	// (edge-map evaluation of 4000 particles in the original).
	NativeInstrPerFrame int64
	// MatchTol is the commit tolerance on pose distance.
	MatchTol float64
	// ObsNoise and ProcNoise shape the filter.
	ObsNoise, ProcNoise float64
}

// Default returns the native-scale parameters (the extended sequence of
// §IV-C).
func Default() Params {
	return Params{
		Frames:              240,
		Occlusions:          3,
		NativeInstrPerFrame: 40_000_000,
		MatchTol:            1.5,
		ObsNoise:            0.10,
		ProcNoise:           0.035,
	}
}

// Training returns the autotuning workload: a different sequence at a
// comparable scale (so occlusion-driven mispeculation appears during
// tuning).
func Training() Params {
	p := Default()
	p.Frames = 180
	p.Occlusions = 2
	return p
}

// BodyTrack is the benchmark implementation.
type BodyTrack struct {
	p Params
}

// New builds the native-scale benchmark.
func New() *BodyTrack { return NewWithParams(Default()) }

// NewWithParams builds a custom-scale benchmark.
func NewWithParams(p Params) *BodyTrack { return &BodyTrack{p: p} }

// Name implements engine.Program.
func (b *BodyTrack) Name() string { return "bodytrack" }

// Describe implements bench.Benchmark.
func (b *BodyTrack) Describe() string {
	return "annealed particle filter tracking a 50-dof body pose (PARSEC)"
}

// Initial locks a tight cloud on the first frame region (the original
// initializes from a known first pose).
func (b *BodyTrack) Initial(r *rng.Stream) engine.State {
	return trackutil.NewCloud(particles, poseDims, nil, 0.05, r)
}

// Fresh spreads guesses widely: the cold tracker of §II-A that takes
// "random guesses on where the body could be in the space".
func (b *BodyTrack) Fresh(r *rng.Stream) engine.State {
	return trackutil.NewCloud(particles, poseDims, nil, 3.0, r)
}

// FreshInto implements engine.FreshRecycler: Fresh rebuilt into a retired
// cloud's buffers, with the identical draw sequence.
func (b *BodyTrack) FreshInto(dst engine.State, r *rng.Stream) engine.State {
	d, _ := dst.(*trackutil.Cloud)
	return trackutil.FreshCloudInto(d, particles, poseDims, nil, 3.0, r)
}

// Update runs the annealed filter on one frame.
func (b *BodyTrack) Update(stv engine.State, in engine.Input, r *rng.Stream) (engine.State, engine.Output) {
	c := stv.(*trackutil.Cloud)
	fr := in.(trackutil.Frame)
	// Two annealing layers with tempered likelihoods: in 50 dimensions an
	// untempered Gaussian likelihood degenerates onto a single particle,
	// which is exactly why the original bodytrack anneals.
	c.StepT(fr, b.p.ProcNoise, b.p.ObsNoise, 5, r)
	est := c.StepT(fr, b.p.ProcNoise*0.4, b.p.ObsNoise, 2.5, r)
	return c, Result{Frame: fr.Index, Est: est, Err: trackutil.Dist(est, fr.True)}
}

// Result is the per-frame output: the estimated pose and its error
// against ground truth (the paper compares against an oracle offline).
type Result struct {
	Frame int
	Est   []float64
	Err   float64
}

// Clone deep-copies the 500 KB particle set.
func (b *BodyTrack) Clone(stv engine.State) engine.State { return stv.(*trackutil.Cloud).Clone() }

// CloneInto implements engine.StateRecycler: the clone lands in a retired
// cloud's buffers instead of allocating 500 KB.
func (b *BodyTrack) CloneInto(dst, src engine.State) engine.State {
	d, _ := dst.(*trackutil.Cloud)
	return trackutil.CloneCloudInto(d, src.(*trackutil.Cloud))
}

// Match accepts speculative clouds whose pose estimate is within
// MatchTol of an original state's estimate.
func (b *BodyTrack) Match(av, bv engine.State) bool {
	ca, cb := av.(*trackutil.Cloud), bv.(*trackutil.Cloud)
	return trackutil.Dist(ca.Estimate(), cb.Estimate()) <= b.p.MatchTol
}

// StateBytes is 500,000 (Table I): 1250 particles x 50 dims x 8 bytes.
func (b *BodyTrack) StateBytes() int64 { return particles * poseDims * 8 }

// bodyProfile targets the paper's bodytrack rates (Table II): high L1D
// pressure from the 500 KB particle state (L2-straddling), edge maps in
// the LLC, very predictable branches (~0.6%).
var bodyProfile = memsim.AccessProfile{
	Name:    "bodytrack.filter",
	MemFrac: 0.38,
	Regions: []memsim.RegionRef{
		{Name: "bodytrack.weights", Bytes: 20 << 10, Frac: 0.70},
		{Name: "$state", Bytes: 500_000, Frac: 0.24},
		{Name: "bodytrack.edgemaps", Bytes: 6 << 20, Frac: 0.06},
	},
	BranchFrac:  0.10,
	BranchBias:  0.994,
	BranchSites: 12,
}

// UpdateCost charges one native annealed filter pass.
func (b *BodyTrack) UpdateCost(in engine.Input, stv engine.State) engine.UpdateWork {
	instr := b.p.NativeInstrPerFrame
	serial := int64(float64(instr) * 0.12) // resampling + image pyramid setup
	var access *memsim.AccessProfile
	if c, ok := stv.(*trackutil.Cloud); ok {
		access = c.Profile(&bodyProfile, "bodytrack.state.", b.StateBytes())
	}
	return engine.UpdateWork{
		Serial:      machine.Work{Instr: serial, Access: access},
		Parallel:    machine.Work{Instr: instr - serial, Access: access},
		Grain:       32,
		ShareJitter: 0.08,
	}
}

// CompareCost covers comparing two 500 KB particle sets' statistics.
func (b *BodyTrack) CompareCost() machine.Work { return machine.Work{Instr: 450_000} }

// SetupWork models runtime allocation (large states make this visible).
func (b *BodyTrack) SetupWork(chunks int) machine.Work {
	return machine.Work{Instr: 400_000 + int64(chunks)*120_000}
}

// TeardownWork frees the states.
func (b *BodyTrack) TeardownWork(chunks int) machine.Work {
	return machine.Work{Instr: 100_000 + int64(chunks)*40_000}
}

// PreRegionWork is camera calibration and model loading.
func (b *BodyTrack) PreRegionWork() machine.Work { return machine.Work{Instr: 60_000_000} }

// PostRegionWork renders the overlaid output sequence.
func (b *BodyTrack) PostRegionWork() machine.Work { return machine.Work{Instr: 45_000_000} }

// Inputs generates the native synthetic sequence.
func (b *BodyTrack) Inputs(r *rng.Stream) []engine.Input {
	return framesToInputs(trackutil.GenTrajectory(r.Derive("native"), trackutil.TrajConfig{
		Frames:     b.p.Frames,
		Dims:       poseDims,
		Speed:      0.04,
		ObsNoise:   b.p.ObsNoise,
		Occlusions: b.p.Occlusions,
		OccMin:     8,
		OccMax:     14,
	}))
}

// TrainingInputs is a different sequence at ~3/4 scale.
func (b *BodyTrack) TrainingInputs(r *rng.Stream) []engine.Input {
	return framesToInputs(trackutil.GenTrajectory(r.Derive("training"), trackutil.TrajConfig{
		Frames:     b.p.Frames * 3 / 4,
		Dims:       poseDims,
		Speed:      0.04,
		ObsNoise:   b.p.ObsNoise,
		Occlusions: maxInt(1, b.p.Occlusions*3/4),
		OccMin:     8,
		OccMax:     12,
	}))
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func framesToInputs(frames []trackutil.Frame) []engine.Input {
	ins := make([]engine.Input, len(frames))
	for i, f := range frames {
		ins[i] = f
	}
	return ins
}

// Quality is minus the mean pose error (the paper's Euclidean-distance
// metric, negated so higher is better).
func (b *BodyTrack) Quality(outputs []engine.Output) float64 {
	if len(outputs) == 0 {
		return math.Inf(-1)
	}
	var sum float64
	for _, o := range outputs {
		sum += o.(Result).Err
	}
	return -sum / float64(len(outputs))
}

// MaxInnerWidth: the pthread bodytrack parallelizes particle likelihood
// evaluation.
func (b *BodyTrack) MaxInnerWidth() int { return 8 }
