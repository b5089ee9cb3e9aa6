// Package fluidanimate reproduces the PARSEC fluidanimate workload — the
// one benchmark the paper evaluated and then EXCLUDED: "We did not
// consider fluidanimate because the STATS parallelization had no
// significant impact in the program's performance" (§IV-C).
//
// The exclusion has a structural cause this kernel reproduces: a fluid
// simulation's state dependence lacks the short-memory property. The
// velocity field after step i depends on the *entire* history of applied
// forces — momentum persists (damping is near 1), so an alternative
// producer that replays only the last k timesteps from a fluid at rest
// produces a field nowhere near the true one, and every speculation
// aborts. The autotuner therefore collapses to one chunk, and STATS
// yields no speedup: the paper's negative result, emergent.
//
// The benchmark is registered under "fluidanimate" but is not part of
// the default experiment suite (matching the paper's exclusion); run it
// with `statsbench -only profile -benchmarks fluidanimate` to reproduce
// the exclusion finding.
package fluidanimate

import (
	"math"

	"gostats/internal/bench"
	"gostats/internal/engine"
	"gostats/internal/machine"
	"gostats/internal/memsim"
	"gostats/internal/rng"
)

func init() { bench.Register("fluidanimate", func() bench.Benchmark { return New() }) }

const (
	gridW = 64
	gridH = 64
	cells = gridW * gridH
)

// Params sizes the workload.
type Params struct {
	// Steps is the number of simulation timesteps (inputs).
	Steps int
	// Damping is the per-step velocity retention; near 1 means long
	// memory (the structural reason STATS fails here).
	Damping float64
	// Viscosity is the neighbor-averaging strength per step.
	Viscosity float64
	// ForceNoise is the nondeterministic perturbation per applied force.
	ForceNoise float64
	// MatchTol is the commit tolerance on RMS field distance.
	MatchTol float64
	// NativeInstrPerStep is the charged cost of one timestep.
	NativeInstrPerStep int64
}

// Default returns the native-scale parameters.
func Default() Params {
	return Params{
		Steps:              500,
		Damping:            0.999,
		Viscosity:          0.12,
		ForceNoise:         0.02,
		MatchTol:           0.08,
		NativeInstrPerStep: 8_000_000,
	}
}

// Training returns the autotuning workload.
func Training() Params {
	p := Default()
	p.Steps = 375
	return p
}

// Force is one input: a localized impulse applied to the fluid this
// timestep.
type Force struct {
	Step   int
	X, Y   int
	FX, FY float64
}

// field is the computational state: a 64x64 velocity field, 2 float64
// per cell = 65,536 bytes.
type field struct {
	vx, vy [cells]float64
}

// FluidAnimate is the benchmark implementation.
type FluidAnimate struct {
	p Params
}

// New builds the native-scale benchmark.
func New() *FluidAnimate { return NewWithParams(Default()) }

// NewWithParams builds a custom-scale benchmark.
func NewWithParams(p Params) *FluidAnimate { return &FluidAnimate{p: p} }

// Name implements engine.Program.
func (f *FluidAnimate) Name() string { return "fluidanimate" }

// Describe implements bench.Benchmark.
func (f *FluidAnimate) Describe() string {
	return "grid fluid simulation (PARSEC); no short memory, so STATS gains nothing — the paper's excluded benchmark"
}

// Initial is the fluid at rest.
func (f *FluidAnimate) Initial(r *rng.Stream) engine.State { return &field{} }

// Fresh is also the fluid at rest: there is nothing better a cold
// alternative producer could start from, which is precisely the problem.
func (f *FluidAnimate) Fresh(r *rng.Stream) engine.State { return &field{} }

// Update applies one timestep: the input force (with nondeterministic
// jitter), viscosity diffusion, and damping.
func (f *FluidAnimate) Update(stv engine.State, in engine.Input, r *rng.Stream) (engine.State, engine.Output) {
	st := stv.(*field)
	fr := in.(Force)
	// Apply the impulse with nondeterministic jitter over a small stencil.
	for dy := -1; dy <= 1; dy++ {
		for dx := -1; dx <= 1; dx++ {
			x, y := (fr.X+dx+gridW)%gridW, (fr.Y+dy+gridH)%gridH
			i := y*gridW + x
			st.vx[i] += float64(fr.FX * (1 + float64(f.p.ForceNoise*r.NormFloat64())))
			st.vy[i] += float64(fr.FY * (1 + float64(f.p.ForceNoise*r.NormFloat64())))
		}
	}
	// Viscosity: blend each cell with its 4-neighborhood (Jacobi step).
	var nvx, nvy [cells]float64
	v := f.p.Viscosity
	for y := 0; y < gridH; y++ {
		for x := 0; x < gridW; x++ {
			i := y*gridW + x
			l := y*gridW + (x-1+gridW)%gridW
			rt := y*gridW + (x+1)%gridW
			u := ((y-1+gridH)%gridH)*gridW + x
			d := ((y+1)%gridH)*gridW + x
			nvx[i] = float64((1-v)*st.vx[i]) + float64(v*0.25*(st.vx[l]+st.vx[rt]+st.vx[u]+st.vx[d]))
			nvy[i] = float64((1-v)*st.vy[i]) + float64(v*0.25*(st.vy[l]+st.vy[rt]+st.vy[u]+st.vy[d]))
		}
	}
	var energy float64
	for i := 0; i < cells; i++ {
		st.vx[i] = nvx[i] * f.p.Damping
		st.vy[i] = nvy[i] * f.p.Damping
		energy += float64(st.vx[i]*st.vx[i]) + float64(st.vy[i]*st.vy[i])
	}
	return st, StepEnergy{Step: fr.Step, Energy: energy}
}

// StepEnergy is the per-step output: the field's kinetic energy.
type StepEnergy struct {
	Step   int
	Energy float64
}

// Clone deep-copies the 64 KB field.
func (f *FluidAnimate) Clone(stv engine.State) engine.State {
	c := *stv.(*field)
	return &c
}

// CloneInto implements engine.StateRecycler: the 64 KB field lands in a
// retired field instead of allocating.
func (f *FluidAnimate) CloneInto(dst, src engine.State) engine.State {
	d, ok := dst.(*field)
	if !ok {
		return f.Clone(src)
	}
	*d = *src.(*field)
	return d
}

// Match compares fields by RMS distance. Because the field integrates
// the whole force history, a fresh-start lineage essentially never
// matches — mispeculation by construction.
func (f *FluidAnimate) Match(a, b engine.State) bool {
	fa, fb := a.(*field), b.(*field)
	var sum float64
	for i := 0; i < cells; i++ {
		dx := fa.vx[i] - fb.vx[i]
		dy := fa.vy[i] - fb.vy[i]
		sum += float64(dx*dx) + float64(dy*dy)
	}
	return math.Sqrt(sum/float64(cells)) <= f.p.MatchTol
}

// StateBytes is 65,536: 64x64 cells x 2 float64.
func (f *FluidAnimate) StateBytes() int64 { return cells * 2 * 8 }

var fluidProfile = memsim.AccessProfile{
	Name:    "fluidanimate.step",
	MemFrac: 0.45,
	Regions: []memsim.RegionRef{
		{Name: "$state", Bytes: cells * 2 * 8, Frac: 0.80},
		{Name: "fluidanimate.aux", Bytes: 1 << 20, Frac: 0.20},
	},
	BranchFrac:  0.08,
	BranchBias:  0.99,
	BranchSites: 8,
}

// UpdateCost charges one native timestep (the original simulates ~500k
// particles; the grid stands in at reduced width).
func (f *FluidAnimate) UpdateCost(in engine.Input, stv engine.State) engine.UpdateWork {
	instr := f.p.NativeInstrPerStep
	serial := int64(float64(instr) * 0.10)
	return engine.UpdateWork{
		Serial:      machine.Work{Instr: serial, Access: &fluidProfile},
		Parallel:    machine.Work{Instr: instr - serial, Access: &fluidProfile},
		Grain:       16,
		ShareJitter: 0.05,
	}
}

// CompareCost covers the 64 KB field comparison.
func (f *FluidAnimate) CompareCost() machine.Work { return machine.Work{Instr: 60_000} }

// SetupWork models runtime allocation.
func (f *FluidAnimate) SetupWork(chunks int) machine.Work {
	return machine.Work{Instr: 250_000 + int64(chunks)*60_000}
}

// TeardownWork frees it.
func (f *FluidAnimate) TeardownWork(chunks int) machine.Work {
	return machine.Work{Instr: 80_000 + int64(chunks)*20_000}
}

// PreRegionWork loads the scene.
func (f *FluidAnimate) PreRegionWork() machine.Work { return machine.Work{Instr: 30_000_000} }

// PostRegionWork writes the final fluid state.
func (f *FluidAnimate) PostRegionWork() machine.Work { return machine.Work{Instr: 20_000_000} }

// Inputs generates the native force sequence: a stirring pattern with
// drifting position.
func (f *FluidAnimate) Inputs(r *rng.Stream) []engine.Input {
	return f.inputs(r.Derive("native"), f.p.Steps)
}

// TrainingInputs is a different sequence at ~3/4 scale.
func (f *FluidAnimate) TrainingInputs(r *rng.Stream) []engine.Input {
	return f.inputs(r.Derive("training"), f.p.Steps*3/4)
}

func (f *FluidAnimate) inputs(r *rng.Stream, steps int) []engine.Input {
	ins := make([]engine.Input, steps)
	x, y := gridW/2, gridH/2
	for s := 0; s < steps; s++ {
		x = (x + r.Intn(5) - 2 + gridW) % gridW
		y = (y + r.Intn(5) - 2 + gridH) % gridH
		angle := 2 * math.Pi * float64(s) / 37
		ins[s] = Force{
			Step: s,
			X:    x, Y: y,
			FX: 0.5 * math.Cos(angle),
			FY: 0.5 * math.Sin(angle),
		}
	}
	return ins
}

// Quality is minus the relative deviation of the final kinetic energy
// from the sequential reference regime: a proxy for simulation fidelity
// (the paper's fluidanimate has no tolerance for semantic drift, which is
// the other face of its missing short memory).
func (f *FluidAnimate) Quality(outputs []engine.Output) float64 {
	if len(outputs) == 0 {
		return math.Inf(-1)
	}
	// Use the mean energy over the final tenth of the run.
	start := len(outputs) * 9 / 10
	var sum float64
	n := 0
	for _, o := range outputs[start:] {
		sum += o.(StepEnergy).Energy
		n++
	}
	return -math.Abs(sum / float64(n))
}

// MaxInnerWidth: the grid update parallelizes well (the pthread
// fluidanimate scales decently).
func (f *FluidAnimate) MaxInnerWidth() int { return 16 }
