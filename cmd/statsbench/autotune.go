package main

import (
	"context"
	"fmt"

	"gostats/internal/bench"
	"gostats/internal/engine"
	"gostats/internal/workload"
)

// runAutotune runs each batch workload through the engine with online
// adaptive chunk sizing (engine.RunAdaptive: the chunking emerges from
// commit/abort feedback instead of being fixed up front) and prints how it
// went. Every figure comes from the engine event stream's Counters, so the
// output is a function of the seeds alone.
func runAutotune(names []string, nInputs int, seed, inputSeed uint64) error {
	const workers = 4
	for _, name := range names {
		b, err := bench.New(name)
		if err != nil {
			return err
		}
		inputs := workload.SessionInputs(b, nInputs, inputSeed)
		// The fixed-chunk shape the controller starts from: one chunk per
		// 16 inputs, as the streaming sessions use.
		cfg := engine.Config{Chunks: max(1, len(inputs)/16), Lookback: 4, ExtraStates: 1, InnerWidth: 1, Seed: seed}
		var ctr engine.Counters
		if _, err := engine.RunAdaptive(context.Background(), b, inputs, cfg, workers, &ctr); err != nil {
			return err
		}
		snap := ctr.Snapshot()
		fmt.Printf("%-18s inputs %-5d commits %-4d aborts %-3d commit-rate %.2f resizes %d\n",
			name, len(inputs), snap.Commits, snap.Aborts, commitRate(snap.Commits, snap.Aborts), snap.Resizes)
		ov := snap.Overheads()
		fmt.Printf("%-18s overhead: extra-computation %d  state-copies %d  mispeculation %d\n",
			"", ov.ExtraComputation, ov.StateCopies, ov.Mispeculation)
	}
	return nil
}
