// Package facedetrack reproduces the paper's facedet-and-track workload
// (§IV-C): a face detector (standing in for the OpenCV face detection
// API) combined with a particle filter that takes over only when the
// detector fails — i.e. during occlusion.
//
// The computational state is the same 8,000-byte particle set as
// facetrack (Table I). On a detectable frame, Update runs the cheap
// sliding-window detector and re-centers the cloud on the detection; on
// an occluded frame it runs the expensive particle filter. The bimodal
// per-frame latency is a built-in imbalance source, and the cheap
// detector frames make the STATS runtime's per-boundary synchronization
// relatively expensive — the paper finds facedet-and-track is limited
// mainly by synchronization overhead (Fig. 10) and creates only 14
// parallel chunks to avoid mispeculation (Table I).
package facedetrack

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
	Frames               int
	Occlusions           int
	OccMin, OccMax       int
	NativeDetectInstr    int64
	NativeFilterInstr    int64
	MatchTol             float64
	ObsNoise, ProcNoise  float64
	DetectRecenterSpread float64
}

// Default returns the native 1,050-frame video of §IV-C ("a longer video
// to compensate for the faster execution of the face detection API").
func Default() Params {
	return Params{
		Frames:               1050,
		Occlusions:           10,
		OccMin:               12,
		OccMax:               20,
		NativeDetectInstr:    1_400_000,
		NativeFilterInstr:    7_000_000,
		MatchTol:             0.40,
		ObsNoise:             0.06,
		ProcNoise:            0.03,
		DetectRecenterSpread: 0.02,
	}
}

// New builds the native-scale benchmark.
func New() *trackutil.Tracker { return NewWithParams(Default()) }

// NewWithParams builds a custom-scale benchmark, trained on a different
// video at ~3/4 scale with the same occlusion density. Its Fresh cloud is
// re-locked by the next detectable frame (a short short-memory length —
// unless inside an occlusion).
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
		BenchName:     "facedet-and-track",
		Description:   "face detector with particle-filter fallback during occlusions",
		Particles:     particles,
		Dims:          poseDims,
		InitialSpread: 0.03,
		FreshSpread:   2.0,
		MatchTol:      p.MatchTol,
		Native:        native,
		Training:      training,
		Step: func(c *trackutil.Cloud, fr trackutil.Frame, r *rng.Stream) ([]float64, *trackutil.Detection) {
			if fr.Occluded {
				// Detector fails: particle-filter fallback.
				return c.Step(fr, p.ProcNoise, p.ObsNoise, r), &trackutil.Detection{Detected: false}
			}
			// Detector succeeds: a near-deterministic box around the face.
			det := make([]float64, poseDims)
			for d := range det {
				det[d] = fr.Obs[d] + float64(0.002*r.NormFloat64())
			}
			c.Recenter(det, p.DetectRecenterSpread, r)
			return det, &trackutil.Detection{Detected: true}
		},
		// Bimodal: cheap detection, or expensive filtering when it fails;
		// a quarter of either is serial.
		Cost: func(fr trackutil.Frame) trackutil.Cost {
			k := trackutil.Cost{Instr: p.NativeDetectInstr, SerialFrac: 0.25, Profile: &detProfile, Grain: 8, ShareJitter: 0.10}
			if fr.Occluded {
				k.Instr, k.Profile = p.NativeFilterInstr, &filterProfile
			}
			return k
		},
		StateRegion: "facedet.state.",
		Costs: engine.RegionCosts{
			// Comparing two clouds' statistics.
			Compare: machine.Work{Instr: 20_000},
			// Runtime allocation (large states make it visible), and
			// freeing the states.
			Setup:    engine.ChunkCost{Fixed: 200_000, PerChunk: 50_000},
			Teardown: engine.ChunkCost{Fixed: 60_000, PerChunk: 15_000},
			// Loading the cascade and opening the video.
			Pre: machine.Work{Instr: 40_000_000},
			// Writing the annotated video.
			Post: machine.Work{Instr: 28_000_000},
		},
		// The detector's multi-scale windows parallelize.
		InnerWidth: 8,
	}
}

// detProfile and filterProfile target the paper's facedet-and-track
// rates (Table II): L1D ~15%, L2 ~42%, low LLC miss rate, BR ~0.2%. The
// cascade tables straddle L1/L2; frame history sits in the LLC.
var detProfile = memsim.AccessProfile{
	Name:    "facedet.detect",
	MemFrac: 0.34,
	Regions: []memsim.RegionRef{
		{Name: "facedet.window", Bytes: 24 << 10, Frac: 0.835},
		{Name: "facedet.cascade", Bytes: 200 << 10, Frac: 0.100},
		{Name: "facedet.frames", Bytes: 8 << 20, Frac: 0.065},
	},
	BranchFrac:  0.09,
	BranchBias:  0.998,
	BranchSites: 6,
}

var filterProfile = memsim.AccessProfile{
	Name:    "facedet.filter",
	MemFrac: 0.36,
	Regions: []memsim.RegionRef{
		{Name: "$state", Bytes: 8_000, Frac: 0.840},
		{Name: "facedet.cascade", Bytes: 200 << 10, Frac: 0.095},
		{Name: "facedet.frames", Bytes: 8 << 20, Frac: 0.065},
	},
	BranchFrac:  0.10,
	BranchBias:  0.996,
	BranchSites: 8,
}
