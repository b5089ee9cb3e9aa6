// Package facetrack reproduces the paper's facetrack workload (§IV-C): a
// particle filter tracking a person's face through a 600-frame video,
// standing in for the OpenCV 3.2 tracker of the original study.
//
// The computational state is 200 particles x 5 pose dimensions
// (x, y, scale, vx, vy) x 8 bytes = 8,000 bytes, matching Table I. The
// video contains several occlusion segments (the person turns away or is
// blocked); during occlusion the likelihood is uninformative and only a
// tracker that was already locked can coast through on its motion model.
// A speculative state built by an alternative producer that starts cold
// inside an occlusion cannot lock on, so chunk boundaries near occlusions
// mispeculate — which is why the paper's autotuner creates only 7 chunks
// for facetrack and mispeculation dominates its loss profile (Fig. 10).
package facetrack

import (
	"gostats/internal/bench/trackutil"
	"gostats/internal/engine"
	"gostats/internal/machine"
	"gostats/internal/memsim"
	"gostats/internal/rng"
)

func init() { trackutil.Register(New) }

const (
	particles = 200
	poseDims  = 5
)

// Params sizes the workload.
type Params struct {
	Frames              int
	Occlusions          int
	OccMin, OccMax      int
	NativeInstrPerFrame int64
	MatchTol            float64
	ObsNoise, ProcNoise float64
}

// Default returns the native 600-frame video of §IV-C.
func Default() Params {
	return Params{
		Frames:              600,
		Occlusions:          5,
		OccMin:              16,
		OccMax:              40,
		NativeInstrPerFrame: 3_000_000,
		MatchTol:            0.45,
		ObsNoise:            0.06,
		ProcNoise:           0.03,
	}
}

// New builds the native-scale benchmark.
func New() *trackutil.Tracker { return NewWithParams(Default()) }

// NewWithParams builds a custom-scale benchmark: one filter step a frame
// on an 8,000-byte state (Table I), trained on a different video at ~3/4
// scale with the same occlusion density.
func NewWithParams(p Params) *trackutil.Tracker {
	native := trackutil.TrajConfig{
		Frames:     p.Frames,
		Dims:       poseDims,
		Speed:      0.03,
		ObsNoise:   p.ObsNoise,
		Occlusions: p.Occlusions,
		OccMin:     p.OccMin,
		OccMax:     p.OccMax,
	}
	training := native
	training.Frames = p.Frames * 3 / 4
	training.Occlusions = p.Occlusions * 3 / 4
	return &trackutil.Tracker{
		BenchName:     "facetrack",
		Description:   "particle-filter face tracker over a 600-frame video with occlusions",
		Particles:     particles,
		Dims:          poseDims,
		InitialSpread: 0.03,
		FreshSpread:   2.0,
		MatchTol:      p.MatchTol,
		Native:        native,
		Training:      training,
		Step: func(c *trackutil.Cloud, fr trackutil.Frame, r *rng.Stream) ([]float64, *trackutil.Detection) {
			return c.Step(fr, p.ProcNoise, p.ObsNoise, r), nil
		},
		// One native tracking pass over the frame; 30% of it (color
		// conversion, resampling) is serial.
		Cost: func(trackutil.Frame) trackutil.Cost {
			return trackutil.Cost{Instr: p.NativeInstrPerFrame, SerialFrac: 0.30, Profile: &faceProfile, Grain: 4, ShareJitter: 0.10}
		},
		StateRegion: "facetrack.state.",
		Costs: engine.RegionCosts{
			// Comparing two clouds' statistics.
			Compare: machine.Work{Instr: 20_000},
			// Runtime allocation (large states make it visible), and
			// freeing the states.
			Setup:    engine.ChunkCost{Fixed: 200_000, PerChunk: 50_000},
			Teardown: engine.ChunkCost{Fixed: 60_000, PerChunk: 15_000},
			// Video open and decode setup.
			Pre: machine.Work{Instr: 30_000_000},
			// Writing the annotated video.
			Post: machine.Work{Instr: 22_000_000},
		},
		// The tracker's per-frame work parallelizes only modestly.
		InnerWidth: 4,
	}
}

// faceProfile targets the paper's facetrack rates (Table II): L1D ~13%,
// L2 ~34-44%, low LLC miss rate, BR ~1.2%. The per-state particle buffer
// is hot; the current frame window lives in L2 and frame history in the
// LLC.
var faceProfile = memsim.AccessProfile{
	Name:    "facetrack.filter",
	MemFrac: 0.36,
	Regions: []memsim.RegionRef{
		{Name: "$state", Bytes: 8_000, Frac: 0.865},
		{Name: "facetrack.frame", Bytes: 176 << 10, Frac: 0.100},
		{Name: "facetrack.history", Bytes: 2 << 20, Frac: 0.035},
	},
	BranchFrac:  0.11,
	BranchBias:  0.988,
	BranchSites: 10,
}
