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
	"math"

	"gostats/internal/bench"
	"gostats/internal/bench/trackutil"
	"gostats/internal/engine"
	"gostats/internal/machine"
	"gostats/internal/memsim"
	"gostats/internal/rng"
)

func init() { bench.Register("facetrack", func() bench.Benchmark { return New() }) }

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

// FaceTrack is the benchmark implementation.
type FaceTrack struct {
	p Params
}

// New builds the native-scale benchmark.
func New() *FaceTrack { return NewWithParams(Default()) }

// NewWithParams builds a custom-scale benchmark.
func NewWithParams(p Params) *FaceTrack { return &FaceTrack{p: p} }

// Name implements engine.Program.
func (f *FaceTrack) Name() string { return "facetrack" }

// Describe implements bench.Benchmark.
func (f *FaceTrack) Describe() string {
	return "particle-filter face tracker over a 600-frame video with occlusions"
}

// Initial locks on the known first-frame face box.
func (f *FaceTrack) Initial(r *rng.Stream) engine.State {
	return trackutil.NewCloud(particles, poseDims, nil, 0.03, r)
}

// Fresh scatters guesses over the frame.
func (f *FaceTrack) Fresh(r *rng.Stream) engine.State {
	return trackutil.NewCloud(particles, poseDims, nil, 2.0, r)
}

// FreshInto implements engine.FreshRecycler: Fresh rebuilt into a retired
// cloud's buffers, with the identical draw sequence.
func (f *FaceTrack) FreshInto(dst engine.State, r *rng.Stream) engine.State {
	d, _ := dst.(*trackutil.Cloud)
	return trackutil.FreshCloudInto(d, particles, poseDims, nil, 2.0, r)
}

// Update runs one filter step.
func (f *FaceTrack) Update(stv engine.State, in engine.Input, r *rng.Stream) (engine.State, engine.Output) {
	c := stv.(*trackutil.Cloud)
	fr := in.(trackutil.Frame)
	est := c.Step(fr, f.p.ProcNoise, f.p.ObsNoise, r)
	return c, Result{Frame: fr.Index, Est: est, Err: trackutil.Dist(est, fr.True)}
}

// Result is the per-frame output.
type Result struct {
	Frame int
	Est   []float64
	Err   float64
}

// Clone deep-copies the 8 KB particle set.
func (f *FaceTrack) Clone(stv engine.State) engine.State { return stv.(*trackutil.Cloud).Clone() }

// CloneInto implements engine.StateRecycler.
func (f *FaceTrack) CloneInto(dst, src engine.State) engine.State {
	d, _ := dst.(*trackutil.Cloud)
	return trackutil.CloneCloudInto(d, src.(*trackutil.Cloud))
}

// Match compares face-box estimates: the paper's "average Euclidean
// distance between the boxes containing the detected faces".
func (f *FaceTrack) Match(av, bv engine.State) bool {
	return trackutil.EstimateDist(av.(*trackutil.Cloud), bv.(*trackutil.Cloud)) <= f.p.MatchTol
}

// StateBytes is 8,000 (Table I).
func (f *FaceTrack) StateBytes() int64 { return particles * poseDims * 8 }

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

// UpdateCost charges one native tracking pass over the frame.
func (f *FaceTrack) UpdateCost(in engine.Input, stv engine.State) engine.UpdateWork {
	instr := f.p.NativeInstrPerFrame
	serial := int64(float64(instr) * 0.30) // color conversion, resampling
	var access *memsim.AccessProfile
	if c, ok := stv.(*trackutil.Cloud); ok {
		access = c.Profile(&faceProfile, "facetrack.state.", f.StateBytes())
	}
	return engine.UpdateWork{
		Serial:      machine.Work{Instr: serial, Access: access},
		Parallel:    machine.Work{Instr: instr - serial, Access: access},
		Grain:       4,
		ShareJitter: 0.10,
	}
}

// CompareCost covers comparing two 8 KB states.
func (f *FaceTrack) CompareCost() machine.Work { return machine.Work{Instr: 20_000} }

// SetupWork models runtime allocation.
func (f *FaceTrack) SetupWork(chunks int) machine.Work {
	return machine.Work{Instr: 200_000 + int64(chunks)*50_000}
}

// TeardownWork frees it.
func (f *FaceTrack) TeardownWork(chunks int) machine.Work {
	return machine.Work{Instr: 60_000 + int64(chunks)*15_000}
}

// PreRegionWork is video open/decode setup.
func (f *FaceTrack) PreRegionWork() machine.Work { return machine.Work{Instr: 30_000_000} }

// PostRegionWork writes the annotated video.
func (f *FaceTrack) PostRegionWork() machine.Work { return machine.Work{Instr: 22_000_000} }

// Inputs generates the native 600-frame video.
func (f *FaceTrack) Inputs(r *rng.Stream) []engine.Input {
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
func (f *FaceTrack) TrainingInputs(r *rng.Stream) []engine.Input {
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
func (f *FaceTrack) Quality(outputs []engine.Output) float64 {
	if len(outputs) == 0 {
		return math.Inf(-1)
	}
	var sum float64
	for _, o := range outputs {
		sum += o.(Result).Err
	}
	return -sum / float64(len(outputs))
}

// MaxInnerWidth: the tracker's per-frame work parallelizes only modestly.
func (f *FaceTrack) MaxInnerWidth() int { return 4 }
