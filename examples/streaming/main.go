// Streaming example: streamcluster-style online clustering with
// autotuning, reproducing two of the paper's findings on a small scale:
//
//  1. the autotuner (§II-C) finds the design-space configuration that
//     balances speculation against mispeculation, and
//  2. the STATS version can execute FEWER instructions than the original
//     (§V-C), because chunk-local lineages stay adaptive while the long
//     sequential lineage goes stale and pays for chasing the drifting
//     clusters.
//
// Run with: go run ./examples/streaming
package main

import (
	"fmt"

	"gostats/internal/autotune"
	"gostats/internal/bench/streamcluster"
	"gostats/internal/engine"
	"gostats/internal/machine"
	"gostats/internal/rng"
)

func main() {
	params := streamcluster.Default()
	params.Blocks = 1400
	b := streamcluster.NewWithParams(params)
	inputs := b.Inputs(rng.New(1))
	training := b.TrainingInputs(rng.New(1))
	const cores = 16

	// Autotune on the training inputs.
	objective := func(p autotune.Point) float64 {
		cfg := engine.Config{Chunks: p.Chunks, Lookback: p.Lookback,
			ExtraStates: p.ExtraStates, InnerWidth: p.InnerWidth, Seed: 5}
		sim := &engine.SimScheduler{Config: machine.DefaultConfig(cores)}
		if _, err := sim.RunSlice(b, training, cfg); err != nil {
			return 1e18
		}
		return float64(sim.Cycles())
	}
	space := autotune.DefaultSpace(len(training), cores, b.MaxInnerWidth())
	res, err := autotune.Tune(space, objective, 60, 1)
	if err != nil {
		panic(err)
	}
	fmt.Printf("autotuned over %d configurations: best %s\n\n", res.Evaluations, res.Best)

	// Evaluate the tuned configuration on the native inputs.
	cfg := engine.Config{Chunks: res.Best.Chunks, Lookback: res.Best.Lookback,
		ExtraStates: res.Best.ExtraStates, InnerWidth: res.Best.InnerWidth, Seed: 5}

	run := func(stats bool) (cycles, instr int64, quality float64) {
		if stats {
			sim := &engine.SimScheduler{Config: machine.DefaultConfig(cores)}
			rep, err := sim.RunSlice(b, inputs, cfg)
			if err != nil {
				panic(err)
			}
			return sim.Cycles(), sim.Accounting().TotalInstr(), b.Quality(rep.Outputs)
		}
		m := machine.New(machine.DefaultConfig(cores))
		var rep *engine.Report
		if err := m.Run("main", func(th *machine.Thread) {
			rep = engine.RunSequential(engine.NewSimExec(th), b, inputs, 5)
		}); err != nil {
			panic(err)
		}
		return m.Now(), m.Accounting().TotalInstr(), b.Quality(rep.Outputs)
	}

	seqCy, seqIn, seqQ := run(false)
	parCy, parIn, parQ := run(true)
	fmt.Printf("sequential: %7.3fG cycles  %7.3fG instr  clustering cost %.4f\n",
		float64(seqCy)/1e9, float64(seqIn)/1e9, -seqQ)
	fmt.Printf("STATS:      %7.3fG cycles  %7.3fG instr  clustering cost %.4f\n",
		float64(parCy)/1e9, float64(parIn)/1e9, -parQ)
	fmt.Printf("\nspeedup %.2fx on %d cores; instructions %+.1f%% vs sequential",
		float64(seqCy)/float64(parCy), cores, float64(parIn-seqIn)/float64(seqIn)*100)
	if parIn < seqIn {
		fmt.Printf(" (STATS executes FEWER instructions, as in the paper's Fig. 14)")
	}
	fmt.Println()
	if parQ > seqQ {
		fmt.Println("output quality improved under STATS (the paper's Fig. 16 finding)")
	}
}
