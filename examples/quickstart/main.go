// Quickstart: parallelize a nondeterministic program with the STATS
// execution model in ~80 lines.
//
// The program is a toy stochastic smoother: it folds a stream of noisy
// samples into an exponentially decaying running estimate. The decay
// gives it the short-memory property STATS needs — the estimate after
// input i barely depends on inputs far in the past — so the stream can be
// chunked and the chunks run speculatively in parallel.
//
// Run with: go run ./examples/quickstart
package main

import (
	"fmt"
	"math"
	"time"

	"gostats/internal/engine"
	"gostats/internal/machine"
	"gostats/internal/rng"
)

// smoother implements engine.Program: the semantic part (StateDependence)
// drives both executors; the cost part (CostModel) is only used by the
// simulated machine.
type smoother struct{}

type smootherState struct{ v float64 }

func (smoother) Name() string { return "smoother" }

func (smoother) Initial(r *rng.Stream) engine.State { return &smootherState{v: 50} }

// Fresh is the cold state an alternative producer starts from: thanks to
// the decay, replaying a handful of recent inputs from zero reproduces
// the running estimate.
func (smoother) Fresh(r *rng.Stream) engine.State { return &smootherState{} }

func (smoother) Update(s engine.State, in engine.Input, r *rng.Stream) (engine.State, engine.Output) {
	st := s.(*smootherState)
	x := in.(float64)
	// Nondeterministic update: dithered exponential smoothing.
	st.v = 0.7*st.v + 0.3*(x+0.05*r.NormFloat64())
	return st, st.v
}

func (smoother) Clone(s engine.State) engine.State { c := *s.(*smootherState); return &c }

func (smoother) Match(a, b engine.State) bool {
	return math.Abs(a.(*smootherState).v-b.(*smootherState).v) < 0.5
}

func (smoother) StateBytes() int64 { return 8 }

// Cost model: each update charges 200k simulated instructions.
func (smoother) UpdateCost(engine.Input, engine.State) engine.UpdateWork {
	return engine.UpdateWork{Serial: machine.Work{Instr: 200_000}, Grain: 1}
}
func (smoother) CompareCost() machine.Work         { return machine.Work{Instr: 100} }
func (smoother) SetupWork(chunks int) machine.Work { return machine.Work{Instr: int64(chunks) * 1000} }
func (smoother) TeardownWork(int) machine.Work     { return machine.Work{Instr: 1000} }
func (smoother) PreRegionWork() machine.Work       { return machine.Work{Instr: 100_000} }
func (smoother) PostRegionWork() machine.Work      { return machine.Work{Instr: 100_000} }

func main() {
	// The input stream: a noisy ramp.
	inputs := make([]engine.Input, 2000)
	for i := range inputs {
		inputs[i] = float64(i % 100)
	}
	// The short-memory length: the estimate decays by 0.7 per step, and
	// inputs reach 99, so after k steps the forgotten history contributes
	// at most 0.7^k * ~200. The Match tolerance is 0.5, so alternative
	// producers must replay k >= log(400)/log(1/0.7) ~= 17 inputs. A
	// too-small Lookback here is exactly the paper's mispeculation case
	// (i): "the length of the short memory property was incorrectly
	// estimated".
	cfg := engine.Config{Chunks: 8, Lookback: 20, ExtraStates: 2, InnerWidth: 1, Seed: 42}

	// 1. Run natively (real goroutines): the library as an actual
	//    parallelization runtime.
	start := time.Now()
	rep, err := (&engine.BatchScheduler{}).RunSlice(smoother{}, inputs, cfg)
	if err != nil {
		panic(err)
	}
	fmt.Printf("native:    %d outputs in %v; %d/%d chunks committed, %d aborted\n",
		len(rep.Outputs), time.Since(start).Round(time.Microsecond), rep.Commits, rep.Chunks, rep.Aborts)

	// 2. Run on the simulated machine to measure the speedup the model
	//    would deliver on an 8-core platform.
	m := machine.New(machine.DefaultConfig(8))
	if err := m.Run("main", func(th *machine.Thread) {
		engine.RunSequential(engine.NewSimExec(th), smoother{}, inputs, 42)
	}); err != nil {
		panic(err)
	}
	seq := m.Now()
	sim := &engine.SimScheduler{Config: machine.DefaultConfig(8)}
	if _, err := sim.RunSlice(smoother{}, inputs, cfg); err != nil {
		panic(err)
	}
	par := sim.Cycles()
	fmt.Printf("simulated: sequential %.1fM cycles, STATS %.1fM cycles -> speedup %.2fx on 8 cores\n",
		float64(seq)/1e6, float64(par)/1e6, float64(seq)/float64(par))
}
