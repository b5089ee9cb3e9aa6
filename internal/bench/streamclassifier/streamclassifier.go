// Package streamclassifier reproduces the streamclassifier workload the
// paper takes from prior work ([50] in §IV-C): an online linear
// classifier trained by stochastic gradient descent over a labeled point
// stream whose decision boundary drifts.
//
// The computational state is the weight vector (12 features + bias
// accumulator count folded in: 13 float64 = 104 bytes, Table I). Each
// input is a block of labeled points; Update runs one SGD pass in a
// randomly shuffled order (the nondeterminism). The short-memory property
// holds because the boundary drifts: the weights that classify recent
// data are determined by recent blocks.
//
// Like streamcluster, cost is state-dependent, reproducing §V-C's
// finding that the STATS version executes fewer instructions: the
// classifier keeps a budget of boundary prototypes (support points) that
// grows with the lineage's age, and every classification scans them. A
// sequential lineage saturates its prototype budget early and pays the
// full scan for the whole stream; the chunk-local lineages STATS creates
// stay small and therefore cheap.
package streamclassifier

import (
	"math"

	"gostats/internal/bench"
	"gostats/internal/engine"
	"gostats/internal/machine"
	"gostats/internal/memsim"
	"gostats/internal/rng"
)

func init() { bench.Register("streamclassifier", func() bench.Benchmark { return New() }) }

const features = 12

// Params sizes the workload.
type Params struct {
	Blocks             int
	RealPointsPerBlock int
	NativePointsBlock  int64
	// Drift rotates the hidden boundary per block.
	Drift float64
	// Noise is the label-noise probability.
	Noise float64
	// MatchCos is the minimum cosine similarity for a commit.
	MatchCos float64
}

// Default returns the native-scale parameters.
func Default() Params {
	return Params{
		Blocks:             2200,
		RealPointsPerBlock: 16,
		NativePointsBlock:  700,
		Drift:              0.015,
		Noise:              0.05,
		MatchCos:           0.90,
	}
}

// Training returns the autotuning workload: different data at a
// comparable scale.
func Training() Params {
	p := Default()
	p.Blocks = 1600
	return p
}

// Block is one labeled input block.
type Block struct {
	X [][features]float64
	Y []int // +1 / -1
	// TruthW is the hidden boundary snapshot (for analysis only).
	TruthW [features]float64
}

// sgdState is the 104-byte weight state.
type sgdState struct {
	w [features]float64
	n float64
	// errRate tracks the recent misclassification rate (quality proxy).
	errRate float64
	// protos is the prototype-set size: grows with lineage age up to a
	// budget, and every classification scans it (the state-dependent
	// cost).
	protos float64
}

// StreamClassifier is the benchmark implementation.
type StreamClassifier struct {
	p Params
}

// New builds the native-scale benchmark.
func New() *StreamClassifier { return NewWithParams(Default()) }

// NewWithParams builds a custom-scale benchmark.
func NewWithParams(p Params) *StreamClassifier { return &StreamClassifier{p: p} }

// Name implements engine.Program.
func (s *StreamClassifier) Name() string { return "streamclassifier" }

// Describe implements bench.Benchmark.
func (s *StreamClassifier) Describe() string {
	return "streaming SGD linear classifier over a drifting decision boundary"
}

// Initial is the zero weight vector.
func (s *StreamClassifier) Initial(r *rng.Stream) engine.State { return &sgdState{errRate: 0.5} }

// Fresh is identical: SGD needs no history.
func (s *StreamClassifier) Fresh(r *rng.Stream) engine.State { return &sgdState{errRate: 0.5} }

// Update runs one randomized SGD pass over the block.
func (s *StreamClassifier) Update(stv engine.State, in engine.Input, r *rng.Stream) (engine.State, engine.Output) {
	st := stv.(*sgdState)
	blk := in.(Block)
	order := r.Perm(len(blk.X))
	correctPre := 0
	for _, i := range order {
		x, y := blk.X[i], float64(blk.Y[i])
		var dot float64
		for d := 0; d < features; d++ {
			dot += float64(st.w[d] * x[d])
		}
		if dot*y > 0 {
			correctPre++
		}
		// Perceptron-style update on margin violation; learning rate
		// decays with lineage age (floored: the original remains usable,
		// just slow to follow the rotating boundary).
		if dot*y < 0.1 {
			// A young model adapts aggressively (high initial rate), so a
			// fresh lineage aligns with the current boundary within a few
			// blocks — the short-memory length.
			lr := 1.2 / (1.0 + st.n/60.0)
			if lr < 0.004 {
				lr = 0.004
			}
			for d := 0; d < features; d++ {
				st.w[d] += float64(lr * y * x[d])
			}
		}
		st.n++
	}
	acc := float64(correctPre) / float64(len(blk.X))
	st.errRate = float64(0.8*st.errRate) + float64(0.2*(1-acc))
	// Accumulate boundary prototypes up to the budget.
	st.protos += float64(0.05 * float64(len(blk.X)))
	if st.protos > 300 {
		st.protos = 300
	}
	return st, BlockAccuracy{Accuracy: acc}
}

// BlockAccuracy is the pre-update accuracy on a block, the program's
// per-block output.
type BlockAccuracy struct{ Accuracy float64 }

// Clone copies the state.
func (s *StreamClassifier) Clone(stv engine.State) engine.State {
	c := *stv.(*sgdState)
	return &c
}

// CloneInto implements engine.StateRecycler.
func (s *StreamClassifier) CloneInto(dst, src engine.State) engine.State {
	d, ok := dst.(*sgdState)
	if !ok {
		return s.Clone(src)
	}
	*d = *src.(*sgdState)
	return d
}

// Match accepts weight vectors whose cosine similarity is at least
// MatchCos (direction defines the classifier; scale does not).
func (s *StreamClassifier) Match(a, b engine.State) bool {
	wa, wb := a.(*sgdState).w, b.(*sgdState).w
	var dot, na, nb float64
	for d := 0; d < features; d++ {
		dot += float64(wa[d] * wb[d])
		na += float64(wa[d] * wa[d])
		nb += float64(wb[d] * wb[d])
	}
	if na == 0 || nb == 0 {
		return na == nb
	}
	return dot/math.Sqrt(na*nb) >= s.p.MatchCos
}

// StateBytes is 104 (Table I).
func (s *StreamClassifier) StateBytes() int64 { return 104 }

// sgdProfile targets the paper's streamclassifier rates (Table II): L1D
// ~33%, L2 and LLC miss rates near 97-98% (a huge once-through stream
// buffer), BR ~25%.
var sgdProfile = memsim.AccessProfile{
	Name:    "streamclassifier.sgd",
	MemFrac: 0.45,
	Regions: []memsim.RegionRef{
		{Name: "streamclassifier.weights", Bytes: 4 << 10, Frac: 0.655},
		{Name: "streamclassifier.window", Bytes: 160 << 10, Frac: 0.015},
		{Name: "streamclassifier.stream", Bytes: 512 << 20, Frac: 0.330},
	},
	BranchFrac:  0.18,
	BranchBias:  0.78,
	BranchSites: 32,
}

// UpdateCost charges the native block, inflated by the recent error rate
// (each margin violation costs a gradient update).
func (s *StreamClassifier) UpdateCost(in engine.Input, stv engine.State) engine.UpdateWork {
	factor := 1.0
	if st, ok := stv.(*sgdState); ok {
		factor += st.protos / 220
	}
	instr := int64(float64(s.p.NativePointsBlock*features*64) * factor)
	serial := int64(float64(instr) * 0.25)
	return engine.UpdateWork{
		Serial:      machine.Work{Instr: serial, Access: &sgdProfile},
		Parallel:    machine.Work{Instr: instr - serial, Access: &sgdProfile},
		Grain:       8,
		ShareJitter: 0.10,
	}
}

// CompareCost covers the cosine comparison of two 104-byte states.
func (s *StreamClassifier) CompareCost() machine.Work { return machine.Work{Instr: 3_000} }

// SetupWork models runtime allocation.
func (s *StreamClassifier) SetupWork(chunks int) machine.Work {
	return machine.Work{Instr: 150_000 + int64(chunks)*30_000}
}

// TeardownWork frees it.
func (s *StreamClassifier) TeardownWork(chunks int) machine.Work {
	return machine.Work{Instr: 40_000 + int64(chunks)*8_000}
}

// PreRegionWork is feature extraction and stream setup: large, per the
// paper's finding that streamclassifier is limited by sequential code.
func (s *StreamClassifier) PreRegionWork() machine.Work { return machine.Work{Instr: 55_000_000} }

// PostRegionWork is the final model evaluation and report.
func (s *StreamClassifier) PostRegionWork() machine.Work { return machine.Work{Instr: 28_000_000} }

// Inputs generates the native stream with a slowly rotating boundary.
func (s *StreamClassifier) Inputs(r *rng.Stream) []engine.Input {
	return s.inputs(r.Derive("native"), s.p.Blocks)
}

// TrainingInputs is a different stream at ~3/4 scale.
func (s *StreamClassifier) TrainingInputs(r *rng.Stream) []engine.Input {
	return s.inputs(r.Derive("training"), s.p.Blocks*3/4)
}

func (s *StreamClassifier) inputs(r *rng.Stream, blocks int) []engine.Input {
	var w [features]float64
	for d := range w {
		w[d] = r.NormFloat64()
	}
	normalize(&w)
	// The boundary rotates with a persistent angular velocity, so a
	// frozen lineage lags it linearly.
	var wvel [features]float64
	ins := make([]engine.Input, blocks)
	for b := 0; b < blocks; b++ {
		for d := range w {
			wvel[d] = float64(0.98*wvel[d]) + float64(0.24*s.p.Drift*r.NormFloat64())
			w[d] += wvel[d]
		}
		normalize(&w)
		blk := Block{
			X:      make([][features]float64, s.p.RealPointsPerBlock),
			Y:      make([]int, s.p.RealPointsPerBlock),
			TruthW: w,
		}
		for i := range blk.X {
			var dot float64
			for d := 0; d < features; d++ {
				blk.X[i][d] = r.NormFloat64()
				dot += float64(blk.X[i][d] * w[d])
			}
			y := 1
			if dot < 0 {
				y = -1
			}
			if r.Bool(s.p.Noise) {
				y = -y
			}
			blk.Y[i] = y
		}
		ins[b] = blk
	}
	return ins
}

func normalize(w *[features]float64) {
	var n float64
	for _, v := range w {
		n += float64(v * v)
	}
	n = math.Sqrt(n)
	if n == 0 {
		w[0] = 1
		return
	}
	for d := range w {
		w[d] /= n
	}
}

// Quality is the mean pre-update accuracy over the final quarter of the
// stream.
func (s *StreamClassifier) Quality(outputs []engine.Output) float64 {
	if len(outputs) == 0 {
		return math.Inf(-1)
	}
	start := len(outputs) * 3 / 4
	var sum float64
	n := 0
	for _, o := range outputs[start:] {
		sum += o.(BlockAccuracy).Accuracy
		n++
	}
	return sum / float64(n)
}

// MaxInnerWidth: gradient evaluation parallelizes modestly.
func (s *StreamClassifier) MaxInnerWidth() int { return 8 }
