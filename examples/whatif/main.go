// What-if example: using the characterization API — the paper's actual
// methodology (§V-B) — programmatically.
//
// It runs the facedet-and-track benchmark under STATS on the simulated
// machine with tracing on, draws the thread timeline (the paper's Fig. 5
// as ASCII), computes the critical path, asks what-if questions
// ("how fast would this run be without the alternative producers?"),
// and prints the full loss decomposition against the ideal speedup.
//
// Run with: go run ./examples/whatif
package main

import (
	"fmt"
	"os"

	"gostats/internal/bench/facedetrack"
	"gostats/internal/critpath"
	"gostats/internal/engine"
	"gostats/internal/machine"
	"gostats/internal/rng"
	"gostats/internal/trace"
)

func main() {
	const cores = 16
	params := facedetrack.Default()
	params.Frames = 400
	params.Occlusions = 4
	b := facedetrack.NewWithParams(params)
	inputs := b.Inputs(rng.New(1))
	cfg := engine.Config{Chunks: 8, Lookback: 10, ExtraStates: 1, InnerWidth: 1, Seed: 3}

	// Sequential baseline.
	seqM := machine.New(machine.DefaultConfig(1))
	must(seqM.Run("main", func(th *machine.Thread) {
		engine.RunSequential(engine.NewSimExec(th), b, inputs, 3)
	}))

	// Traced STATS run.
	tr := trace.New()
	par := &engine.SimScheduler{Config: machine.DefaultConfig(cores), Options: []machine.Option{machine.WithTrace(tr)}}
	rep, err := par.RunSlice(b, inputs, cfg)
	must(err)
	fmt.Printf("%s on %d cores: %.2fx speedup, %d/%d chunks committed\n\n",
		b.Name(), cores, float64(seqM.Now())/float64(par.Cycles()), rep.Commits, rep.Chunks)

	// The execution timeline (the paper's Fig. 5, rendered from the trace).
	tr.RenderTimeline(os.Stdout, 100)

	// Critical-path what-ifs (§V-B): remove one overhead category at a
	// time and re-emulate the schedule.
	an, err := critpath.New(tr)
	must(err)
	fmt.Println("\nwhat-if analysis:")
	for _, w := range []struct {
		name string
		wi   critpath.WhatIf
	}{
		{"as measured", critpath.WhatIf{}},
		{"no speculative-state generation", critpath.WhatIf{Removed: critpath.Set(trace.CatAltProducer)}},
		{"no original-state replicas", critpath.WhatIf{Removed: critpath.Set(trace.CatOrigStates)}},
		{"no state copies", critpath.WhatIf{Removed: critpath.Set(trace.CatStateCopy)}},
		{"no synchronization", critpath.WhatIf{Removed: critpath.SyncSet, RemoveWakeLatency: true}},
		{"no re-execution", critpath.WhatIf{Removed: critpath.Set(trace.CatReexec)}},
	} {
		mk := an.Makespan(w.wi)
		fmt.Printf("  %-34s %.2fx\n", w.name, float64(seqM.Now())/float64(mk))
	}

	// The full decomposition, with oracle runs for the §III-E categories.
	cpi := machine.DefaultConfig(cores).BaseCPI
	ot := engine.OracleRegionCycles(b, inputs, cfg.Chunks, cfg.InnerWidth, cores, cpi, 3)
	om := engine.OracleRegionCycles(b, inputs, engine.MaxChunks(len(inputs), cores, 1), 1, cores, cpi, 3)
	bd := critpath.Decompose(an, seqM.Now(), cores, critpath.Oracle{
		CleanTuned: float64(seqM.Now()) / float64(ot),
		CleanMax:   float64(seqM.Now()) / float64(om),
	})
	fmt.Printf("\nloss decomposition (%.1f%% of the ideal %gx lost):\n", bd.TotalLostPct, bd.Ideal)
	for l := 0; l < critpath.NumLosses; l++ {
		if bd.LostPct[l] > 0.01 {
			fmt.Printf("  %-18s %5.1f%%\n", critpath.Loss(l), bd.LostPct[l])
		}
	}
}

func must(err error) {
	if err != nil {
		panic(err)
	}
}
