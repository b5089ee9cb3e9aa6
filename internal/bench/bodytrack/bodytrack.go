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
	"gostats/internal/bench/trackutil"
	"gostats/internal/engine"
	"gostats/internal/machine"
	"gostats/internal/memsim"
	"gostats/internal/rng"
)

func init() { trackutil.Register(New) }

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

// New builds the native-scale benchmark.
func New() *trackutil.Tracker { return NewWithParams(Default()) }

// NewWithParams builds a custom-scale benchmark. The state is 500,000
// bytes (Table I); the cold Fresh cloud is the tracker of §II-A that takes
// "random guesses on where the body could be in the space".
func NewWithParams(p Params) *trackutil.Tracker {
	native := trackutil.TrajConfig{
		Frames:     p.Frames,
		Dims:       poseDims,
		Speed:      0.04,
		ObsNoise:   p.ObsNoise,
		Occlusions: p.Occlusions,
		OccMin:     8,
		OccMax:     14,
	}
	training := native
	training.Frames = p.Frames * 3 / 4
	training.Occlusions = max(1, p.Occlusions*3/4)
	training.OccMax = 12
	return &trackutil.Tracker{
		BenchName:     "bodytrack",
		Description:   "annealed particle filter tracking a 50-dof body pose (PARSEC)",
		Particles:     particles,
		Dims:          poseDims,
		InitialSpread: 0.05,
		FreshSpread:   3.0,
		MatchTol:      p.MatchTol,
		Native:        native,
		Training:      training,
		// Two annealing layers with tempered likelihoods: in 50 dimensions
		// an untempered Gaussian likelihood degenerates onto a single
		// particle, which is exactly why the original bodytrack anneals.
		// Only the second layer's estimate is the frame's output, so the
		// first builds none.
		Step: func(c *trackutil.Cloud, fr trackutil.Frame, r *rng.Stream) ([]float64, *trackutil.Detection) {
			c.StepT(fr, p.ProcNoise, p.ObsNoise, 5, nil, r)
			return c.StepT(fr, p.ProcNoise*0.4, p.ObsNoise, 2.5, make([]float64, poseDims), r), nil
		},
		// One native annealed filter pass; 12% of it (resampling and image
		// pyramid setup) is serial.
		Cost: func(trackutil.Frame) trackutil.Cost {
			return trackutil.Cost{Instr: p.NativeInstrPerFrame, SerialFrac: 0.12, Profile: &bodyProfile, Grain: 32, ShareJitter: 0.08}
		},
		StateRegion: "bodytrack.state.",
		Costs: engine.RegionCosts{
			// Comparing two clouds' statistics.
			Compare: machine.Work{Instr: 450_000},
			// Runtime allocation (large states make it visible), and
			// freeing the states.
			Setup:    engine.ChunkCost{Fixed: 400_000, PerChunk: 120_000},
			Teardown: engine.ChunkCost{Fixed: 100_000, PerChunk: 40_000},
			// Camera calibration and model loading.
			Pre: machine.Work{Instr: 60_000_000},
			// Rendering the overlaid output sequence.
			Post: machine.Work{Instr: 45_000_000},
		},
		// The pthread bodytrack parallelizes particle likelihood evaluation.
		InnerWidth: 8,
	}
}

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
