package trackutil

import (
	"math"

	"gostats/internal/bench"
	"gostats/internal/engine"
	"gostats/internal/machine"
	"gostats/internal/memsim"
	"gostats/internal/rng"
)

// Tracker is a particle-filter tracking benchmark: the one algorithm
// behind bodytrack, facetrack and facedet-and-track. Its state is a Cloud
// of Particles x Dims, its inputs are Frames and its outputs Results;
// each of those packages sets the fields and supplies Step and Cost.
type Tracker struct {
	// BenchName is the registered name; Description is Describe's line.
	BenchName, Description string
	Particles, Dims        int
	// InitialSpread scatters the cloud Initial locks on the first frame;
	// FreshSpread scatters the cold guesses of Fresh (above 0.5: Cold).
	InitialSpread, FreshSpread float64
	// MatchTol is the commit tolerance on the distance between two
	// clouds' estimates.
	MatchTol float64
	// Native and Training shape Inputs' and TrainingInputs' sequences.
	Native, Training TrajConfig
	// Step updates the cloud on one frame and returns its estimate, and
	// a Detection for a tracker that runs a detector.
	Step func(c *Cloud, fr Frame, r *rng.Stream) ([]float64, *Detection)
	// Cost is what Step charges on a frame; StateRegion prefixes the name
	// of the cloud's own region in the cost's access profile.
	Cost        func(fr Frame) Cost
	StateRegion string
	// Costs are what the tracker charges around its updates.
	Costs      engine.RegionCosts
	InnerWidth int
}

// Cost is one Update's charge: Instr instructions, SerialFrac of them
// serial, on Profile, whose "$state" region becomes the cloud's own.
type Cost struct {
	Instr       int64
	SerialFrac  float64
	Profile     *memsim.AccessProfile
	Grain       int
	ShareJitter float64
}

// Result is a tracker's per-frame output: the estimated pose and its
// error against ground truth (the paper compares against an oracle
// offline).
type Result struct {
	Frame int
	Est   []float64
	Err   float64
	// *Detection is nil but for a tracker with a detector, so that the
	// other trackers' lines carry no Detected key.
	*Detection
}

// Detection says whether the detector found the target on the frame.
type Detection struct{ Detected bool }

// Register registers the tracker New builds, and its codec, under its
// name.
func Register(newTracker func() *Tracker) {
	c := codec{newTracker()}
	bench.Register(c.t.BenchName, func() bench.Benchmark { return newTracker() })
	bench.RegisterCodec(c.t.BenchName, func() bench.StreamCodec { return c })
}

// Name implements engine.Program.
func (t *Tracker) Name() string { return t.BenchName }

// Describe implements bench.Benchmark.
func (t *Tracker) Describe() string { return t.Description }

// Initial locks a tight cloud on the first frame's known pose.
func (t *Tracker) Initial(r *rng.Stream) engine.State {
	return NewCloud(t.Particles, t.Dims, nil, t.InitialSpread, r)
}

// Fresh scatters guesses widely: the cold tracker of §II-A that takes
// "random guesses on where the body could be in the space".
func (t *Tracker) Fresh(r *rng.Stream) engine.State {
	return NewCloud(t.Particles, t.Dims, nil, t.FreshSpread, r)
}

// FreshInto implements engine.FreshRecycler: Fresh rebuilt into a retired
// cloud's buffers, with the identical draw sequence.
func (t *Tracker) FreshInto(dst engine.State, r *rng.Stream) engine.State {
	d, _ := dst.(*Cloud)
	return FreshCloudInto(d, t.Particles, t.Dims, nil, t.FreshSpread, r)
}

// Update runs Step on one frame.
func (t *Tracker) Update(stv engine.State, in engine.Input, r *rng.Stream) (engine.State, engine.Output) {
	c, fr := stv.(*Cloud), in.(Frame)
	est, det := t.Step(c, fr, r)
	return c, Result{Frame: fr.Index, Est: est, Err: Dist(est, fr.True), Detection: det}
}

// Clone deep-copies the particle set.
func (t *Tracker) Clone(stv engine.State) engine.State { return stv.(*Cloud).Clone() }

// CloneInto implements engine.StateRecycler: the clone lands in a retired
// cloud's buffers.
func (t *Tracker) CloneInto(dst, src engine.State) engine.State {
	d, _ := dst.(*Cloud)
	return CloneCloudInto(d, src.(*Cloud))
}

// Match accepts speculative clouds whose estimate is within MatchTol of
// an original state's: for the face trackers, the paper's "average
// Euclidean distance between the boxes containing the detected faces".
func (t *Tracker) Match(av, bv engine.State) bool {
	return EstimateDist(av.(*Cloud), bv.(*Cloud)) <= t.MatchTol
}

// StateBytes is the particle set's size (Table I): 8 bytes a coordinate.
func (t *Tracker) StateBytes() int64 { return int64(t.Particles) * int64(t.Dims) * 8 }

// UpdateCost charges Cost on the frame, in the cloud's own cache region.
func (t *Tracker) UpdateCost(in engine.Input, stv engine.State) engine.UpdateWork {
	k := t.Cost(in.(Frame))
	serial := int64(float64(k.Instr) * k.SerialFrac)
	access := k.Profile
	if c, ok := stv.(*Cloud); ok {
		access = c.Profile(k.Profile, t.StateRegion, t.StateBytes())
	}
	return engine.UpdateWork{
		Serial:      machine.Work{Instr: serial, Access: access},
		Parallel:    machine.Work{Instr: k.Instr - serial, Access: access},
		Grain:       k.Grain,
		ShareJitter: k.ShareJitter,
	}
}

// RegionCosts returns Costs.
func (t *Tracker) RegionCosts() engine.RegionCosts { return t.Costs }

// Inputs generates the native synthetic sequence.
func (t *Tracker) Inputs(r *rng.Stream) []engine.Input {
	return framesToInputs(GenTrajectory(r.Derive("native"), t.Native))
}

// TrainingInputs is a different sequence at ~3/4 scale.
func (t *Tracker) TrainingInputs(r *rng.Stream) []engine.Input {
	return framesToInputs(GenTrajectory(r.Derive("training"), t.Training))
}

func framesToInputs(frames []Frame) []engine.Input {
	ins := make([]engine.Input, len(frames))
	for i, f := range frames {
		ins[i] = f
	}
	return ins
}

// Quality is minus the mean distance to ground truth (§IV-C), negated so
// that higher is better.
func (t *Tracker) Quality(outputs []engine.Output) float64 {
	if len(outputs) == 0 {
		return math.Inf(-1)
	}
	var sum float64
	for _, o := range outputs {
		sum += o.(Result).Err
	}
	return -sum / float64(len(outputs))
}

// MaxInnerWidth bounds the original program's own parallelism.
func (t *Tracker) MaxInnerWidth() int { return t.InnerWidth }
