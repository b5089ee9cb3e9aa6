// Tracking example: the bodytrack-style workload of the paper's §II-A
// driving example, run through the public API on both executors.
//
// A particle filter tracks an articulated pose through a synthetic image
// sequence. Each frame's update depends on the previous frame's particle
// set — a state dependence — but where the body is now does not depend on
// where it was long ago (the short-memory property), so STATS parallelizes
// the frame loop into speculative chunks whose initial states come from
// alternative producers that replay only a few recent frames.
//
// Run with: go run ./examples/tracking
package main

import (
	"fmt"
	"runtime"
	"time"

	"gostats/internal/bench/bodytrack"
	"gostats/internal/bench/trackutil"
	"gostats/internal/engine"
	"gostats/internal/machine"
	"gostats/internal/rng"
)

func main() {
	// A reduced sequence so the example finishes instantly.
	params := bodytrack.Default()
	params.Frames = 120
	params.Occlusions = 2
	b := bodytrack.NewWithParams(params)
	inputs := b.Inputs(rng.New(1))

	fmt.Printf("tracking %d frames, state = %d bytes of particles\n\n", len(inputs), b.StateBytes())

	// Sequential reference (native execution, real computation).
	t0 := time.Now()
	seqRep := engine.RunSequential(engine.NewNativeExec(), b, inputs, 7)
	seqWall := time.Since(t0)
	fmt.Printf("sequential: quality %.3f (mean pose error), %v\n", -b.Quality(seqRep.Outputs), seqWall)

	// STATS-parallel run on goroutines. Semantics are preserved: every
	// chunk either starts from a speculative state that matched an
	// original state, or re-executed from the true predecessor state.
	// (Wall-clock gains require real cores: GOMAXPROCS here is
	// runtime-dependent, and the model adds ~40% real work for the
	// alternative producers and replicas.)
	cfg := engine.Config{Chunks: 6, Lookback: 5, ExtraStates: 2, InnerWidth: 1, Seed: 7}
	t0 = time.Now()
	rep, err := (&engine.BatchScheduler{}).RunSlice(b, inputs, cfg)
	if err != nil {
		panic(err)
	}
	fmt.Printf("STATS:      quality %.3f, %v on %d CPU(s); %d/%d chunks committed (%d aborted)\n",
		-b.Quality(rep.Outputs), time.Since(t0), runtime.NumCPU(), rep.Commits, rep.Chunks, rep.Aborts)
	fmt.Printf("            states %d\n\n", rep.StatesCreated)

	// Where do mispeculations come from? Chunk boundaries that fall inside
	// occlusions: an alternative producer starting cold during an
	// occlusion cannot lock onto the target.
	fmt.Println("simulated 16-core performance at different chunk counts:")
	seqCycles := simCycles(b, inputs, nil)
	for _, chunks := range []int{2, 4, 8, 16} {
		c := cfg
		c.Chunks = chunks
		cycles := simCycles(b, inputs, &c)
		fmt.Printf("  %2d chunks: %6.2fx speedup\n", chunks, float64(seqCycles)/float64(cycles))
	}
}

// simCycles measures a run on the simulated machine (nil cfg =
// sequential).
func simCycles(b *trackutil.Tracker, inputs []engine.Input, cfg *engine.Config) int64 {
	if cfg != nil {
		sim := &engine.SimScheduler{Config: machine.DefaultConfig(16)}
		if _, err := sim.RunSlice(b, inputs, *cfg); err != nil {
			panic(err)
		}
		return sim.Cycles()
	}
	m := machine.New(machine.DefaultConfig(16))
	if err := m.Run("main", func(th *machine.Thread) {
		engine.RunSequential(engine.NewSimExec(th), b, inputs, 7)
	}); err != nil {
		panic(err)
	}
	return m.Now()
}
