// Command statsprof runs one benchmark under STATS, performs the paper's
// §V-B critical-path analysis on the execution trace, and reports where
// the time went: the measured critical-path composition, the what-if
// makespans with each overhead category removed, and the full loss
// decomposition. With -trace it also dumps the raw trace as JSON.
//
// Usage:
//
//	statsprof -bench bodytrack [-cores 28] [-chunks 14 -lookback 6
//	          -extra 1 -width 1] [-trace trace.json]
package main

import (
	"flag"
	"fmt"
	"os"

	"gostats/internal/bench"
	_ "gostats/internal/bench/all"
	"gostats/internal/critpath"
	"gostats/internal/engine"
	"gostats/internal/machine"
	"gostats/internal/profiler"
	"gostats/internal/rng"
	"gostats/internal/trace"
)

func main() {
	benchName := flag.String("bench", "", "benchmark name (required)")
	cores := flag.Int("cores", 28, "simulated core count")
	chunks := flag.Int("chunks", 14, "STATS parallel chunks")
	lookback := flag.Int("lookback", 6, "alternative-producer lookback")
	extra := flag.Int("extra", 1, "extra original states")
	width := flag.Int("width", 1, "inner gang width")
	seed := flag.Uint64("seed", 3, "nondeterminism seed")
	inputSeed := flag.Uint64("input-seed", 1, "input-generation seed")
	traceOut := flag.String("trace", "", "write the raw trace as JSON to this file")
	timeline := flag.Bool("timeline", false, "render an ASCII thread timeline of the run")
	flag.Parse()

	if *benchName == "" {
		flag.Usage()
		os.Exit(2)
	}
	b, err := bench.New(*benchName)
	if err != nil {
		fatalf("%v", err)
	}
	cfg := engine.Config{Chunks: *chunks, Lookback: *lookback, ExtraStates: *extra, InnerWidth: *width}
	spec := profiler.Spec{
		Bench:        b,
		Mode:         profiler.ModeParSTATS,
		Cores:        *cores,
		Cfg:          cfg,
		InputSeed:    *inputSeed,
		Seed:         *seed,
		CollectTrace: true,
	}
	res, err := profiler.Run(spec)
	if err != nil {
		fatalf("%v", err)
	}
	seqSpec := spec
	seqSpec.Mode = profiler.ModeSequential
	seqSpec.Cores = 1
	seqSpec.CollectTrace = false
	seqRes, err := profiler.Run(seqSpec)
	if err != nil {
		fatalf("baseline: %v", err)
	}

	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			fatalf("%v", err)
		}
		if err := res.Trace.WriteJSON(f); err != nil {
			fatalf("writing trace: %v", err)
		}
		if err := f.Close(); err != nil {
			fatalf("closing trace: %v", err)
		}
		fmt.Printf("trace written to %s (%d intervals, %d edges)\n",
			*traceOut, len(res.Trace.Intervals), len(res.Trace.Edges))
	}

	an, err := critpath.New(res.Trace)
	if err != nil {
		fatalf("analysis: %v", err)
	}

	if *timeline {
		res.Trace.RenderTimeline(os.Stdout, 110)
	}

	fmt.Printf("%s on %d cores: %.3fG cycles, speedup %.2fx\n",
		b.Name(), *cores, float64(res.Cycles)/1e9, float64(seqRes.Cycles)/float64(res.Cycles))

	fmt.Println("\ncritical-path composition (measured):")
	path := an.PathByCategory()
	var total int64
	for _, v := range path {
		total += v
	}
	for c := 0; c < trace.NumCategories; c++ {
		if path[c] == 0 {
			continue
		}
		fmt.Printf("  %-16s %10.3fG cycles (%5.1f%%)\n",
			trace.Category(c), float64(path[c])/1e9, float64(path[c])/float64(total)*100)
	}

	fmt.Println("\nwhat-if makespans (overhead removed from the critical path):")
	whatifs := []struct {
		name string
		w    critpath.WhatIf
	}{
		{"none (replay)", critpath.WhatIf{}},
		{"extra computation", critpath.WhatIf{Removed: critpath.ExtraComputationSet}},
		{"synchronization", critpath.WhatIf{Removed: critpath.SyncSet, RemoveWakeLatency: true}},
		{"re-execution", critpath.WhatIf{Removed: critpath.Set(trace.CatReexec)}},
		{"sequential code", critpath.WhatIf{Removed: critpath.Set(trace.CatSeqCode)}},
		{"all of the above", critpath.WhatIf{
			Removed:           critpath.ExtraComputationSet.Union(critpath.SyncSet).Union(critpath.Set(trace.CatReexec, trace.CatSeqCode)),
			RemoveWakeLatency: true,
		}},
	}
	for _, wf := range whatifs {
		mk := an.Makespan(wf.w)
		fmt.Printf("  %-18s %10.3fG cycles -> %.2fx\n",
			wf.name, float64(mk)/1e9, float64(seqRes.Cycles)/float64(mk))
	}

	// Full decomposition with oracles.
	inputs := b.Inputs(rng.New(*inputSeed))
	cpi := machine.DefaultConfig(*cores).BaseCPI
	ot := engine.OracleRegionCycles(b, inputs, *chunks, *width, *cores, cpi, *seed)
	om := engine.OracleRegionCycles(b, inputs, engine.MaxChunks(len(inputs), *cores, *width), *width, *cores, cpi, *seed)
	bd := critpath.Decompose(an, seqRes.Cycles, *cores, critpath.Oracle{
		CleanTuned: float64(seqRes.Cycles) / float64(ot),
		CleanMax:   float64(seqRes.Cycles) / float64(om),
	})
	fmt.Printf("\nloss decomposition (ideal %gx, measured %.2fx, %.1f%% lost):\n",
		bd.Ideal, bd.Measured, bd.TotalLostPct)
	for l := 0; l < critpath.NumLosses; l++ {
		fmt.Printf("  %-18s %6.2f%%\n", critpath.Loss(l), bd.LostPct[l])
	}
	fmt.Println("\nextra-computation components:")
	for p := 0; p < critpath.NumExtraParts; p++ {
		fmt.Printf("  %-18s %6.2f%%\n", critpath.ExtraPart(p), bd.ExtraPct[p])
	}
}

func fatalf(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "statsprof: "+format+"\n", args...)
	os.Exit(1)
}
