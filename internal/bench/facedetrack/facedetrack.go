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
	"math"

	"gostats/internal/bench"
	"gostats/internal/bench/trackutil"
	"gostats/internal/engine"
	"gostats/internal/machine"
	"gostats/internal/memsim"
	"gostats/internal/rng"
)

func init() { bench.Register("facedet-and-track", func() bench.Benchmark { return New() }) }

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

// Training returns the autotuning workload: a different video at a
// comparable scale with the same occlusion density.
func Training() Params {
	p := Default()
	p.Frames = 800
	p.Occlusions = 8
	return p
}

// FaceDetTrack is the benchmark implementation.
type FaceDetTrack struct {
	p Params
}

// New builds the native-scale benchmark.
func New() *FaceDetTrack { return NewWithParams(Default()) }

// NewWithParams builds a custom-scale benchmark.
func NewWithParams(p Params) *FaceDetTrack { return &FaceDetTrack{p: p} }

// Name implements engine.Program.
func (f *FaceDetTrack) Name() string { return "facedet-and-track" }

// Describe implements bench.Benchmark.
func (f *FaceDetTrack) Describe() string {
	return "face detector with particle-filter fallback during occlusions"
}

// Initial locks on the first-frame detection.
func (f *FaceDetTrack) Initial(r *rng.Stream) engine.State {
	return trackutil.NewCloud(particles, poseDims, nil, 0.03, r)
}

// Fresh scatters guesses over the frame; the next detectable frame
// re-locks it (a short short-memory length — unless inside an occlusion).
func (f *FaceDetTrack) Fresh(r *rng.Stream) engine.State {
	return trackutil.NewCloud(particles, poseDims, nil, 2.0, r)
}

// FreshInto implements engine.FreshRecycler: Fresh rebuilt into a retired
// cloud's buffers, with the identical draw sequence.
func (f *FaceDetTrack) FreshInto(dst engine.State, r *rng.Stream) engine.State {
	d, _ := dst.(*trackutil.Cloud)
	return trackutil.FreshCloudInto(d, particles, poseDims, nil, 2.0, r)
}

// Update runs detection or, when it fails, the particle filter.
func (f *FaceDetTrack) Update(stv engine.State, in engine.Input, r *rng.Stream) (engine.State, engine.Output) {
	c := stv.(*trackutil.Cloud)
	fr := in.(trackutil.Frame)
	var est []float64
	if !fr.Occluded {
		// Detector succeeds: a near-deterministic box around the face.
		det := make([]float64, poseDims)
		for d := range det {
			det[d] = fr.Obs[d] + float64(0.002*r.NormFloat64())
		}
		c.Recenter(det, f.p.DetectRecenterSpread, r)
		est = det
	} else {
		// Detector fails: particle-filter fallback.
		est = c.Step(fr, f.p.ProcNoise, f.p.ObsNoise, r)
	}
	return c, Result{Frame: fr.Index, Est: est, Err: trackutil.Dist(est, fr.True), Detected: !fr.Occluded}
}

// Result is the per-frame output.
type Result struct {
	Frame    int
	Est      []float64
	Err      float64
	Detected bool
}

// Clone deep-copies the particle set.
func (f *FaceDetTrack) Clone(stv engine.State) engine.State { return stv.(*trackutil.Cloud).Clone() }

// CloneInto implements engine.StateRecycler.
func (f *FaceDetTrack) CloneInto(dst, src engine.State) engine.State {
	d, _ := dst.(*trackutil.Cloud)
	return trackutil.CloneCloudInto(d, src.(*trackutil.Cloud))
}

// Match compares box estimates, as for facetrack.
func (f *FaceDetTrack) Match(av, bv engine.State) bool {
	return trackutil.EstimateDist(av.(*trackutil.Cloud), bv.(*trackutil.Cloud)) <= f.p.MatchTol
}

// StateBytes is 8,000 (Table I).
func (f *FaceDetTrack) StateBytes() int64 { return particles * poseDims * 8 }

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

// UpdateCost is bimodal: cheap detection or expensive filtering.
func (f *FaceDetTrack) UpdateCost(in engine.Input, stv engine.State) engine.UpdateWork {
	fr := in.(trackutil.Frame)
	var instr int64
	base := &detProfile
	if fr.Occluded {
		instr = f.p.NativeFilterInstr
		base = &filterProfile
	} else {
		instr = f.p.NativeDetectInstr
	}
	serial := int64(float64(instr) * 0.25)
	var access *memsim.AccessProfile
	if c, ok := stv.(*trackutil.Cloud); ok {
		access = c.Profile(base, "facedet.state.", f.StateBytes())
	} else {
		access = base
	}
	return engine.UpdateWork{
		Serial:      machine.Work{Instr: serial, Access: access},
		Parallel:    machine.Work{Instr: instr - serial, Access: access},
		Grain:       8,
		ShareJitter: 0.10,
	}
}

// CompareCost covers comparing two 8 KB states.
func (f *FaceDetTrack) CompareCost() machine.Work { return machine.Work{Instr: 20_000} }

// SetupWork models runtime allocation.
func (f *FaceDetTrack) SetupWork(chunks int) machine.Work {
	return machine.Work{Instr: 200_000 + int64(chunks)*50_000}
}

// TeardownWork frees it.
func (f *FaceDetTrack) TeardownWork(chunks int) machine.Work {
	return machine.Work{Instr: 60_000 + int64(chunks)*15_000}
}

// PreRegionWork loads the cascade and opens the video.
func (f *FaceDetTrack) PreRegionWork() machine.Work { return machine.Work{Instr: 40_000_000} }

// PostRegionWork writes the annotated video.
func (f *FaceDetTrack) PostRegionWork() machine.Work { return machine.Work{Instr: 28_000_000} }

// Inputs generates the native 1,050-frame video.
func (f *FaceDetTrack) Inputs(r *rng.Stream) []engine.Input {
	return framesToInputs(trackutil.GenTrajectory(r.Derive("native"), trackutil.TrajConfig{
		Frames:     f.p.Frames,
		Dims:       poseDims,
		Speed:      0.03,
		ObsNoise:   f.p.ObsNoise,
		Occlusions: f.p.Occlusions,
		OccMin:     f.p.OccMin,
		OccMax:     f.p.OccMax,
	}))
}

// TrainingInputs is a different video at ~3/4 scale with the same
// occlusion density.
func (f *FaceDetTrack) TrainingInputs(r *rng.Stream) []engine.Input {
	return framesToInputs(trackutil.GenTrajectory(r.Derive("training"), trackutil.TrajConfig{
		Frames:     f.p.Frames * 3 / 4,
		Dims:       poseDims,
		Speed:      0.03,
		ObsNoise:   f.p.ObsNoise,
		Occlusions: f.p.Occlusions * 3 / 4,
		OccMin:     f.p.OccMin,
		OccMax:     f.p.OccMax,
	}))
}

func framesToInputs(frames []trackutil.Frame) []engine.Input {
	ins := make([]engine.Input, len(frames))
	for i, fr := range frames {
		ins[i] = fr
	}
	return ins
}

// Quality is minus the mean box distance to ground truth (§IV-C).
func (f *FaceDetTrack) Quality(outputs []engine.Output) float64 {
	if len(outputs) == 0 {
		return math.Inf(-1)
	}
	var sum float64
	for _, o := range outputs {
		sum += o.(Result).Err
	}
	return -sum / float64(len(outputs))
}

// MaxInnerWidth: the detector's multi-scale windows parallelize.
func (f *FaceDetTrack) MaxInnerWidth() int { return 8 }
