package engine_test

import (
	"math"
	"testing"

	"gostats/internal/engine"
	"gostats/internal/machine"
)

// TestSimAndNativeProduceIdenticalOutputs: the execution model's
// nondeterminism comes only from per-worker rng streams derived from the
// config seed, so the native runtime (the streaming pipeline, here with a
// worker per chunk) must produce bit-identical outputs to the simulated
// machine's batch body, an independent runtime, for the same
// configuration — the executor changes *when* things run, never *what*
// they compute.
func TestSimAndNativeProduceIdenticalOutputs(t *testing.T) {
	p := easyProg()
	p.noise = 0.3
	ins := toyInputs(160)
	cfg := engine.Config{Chunks: 5, Lookback: 8, ExtraStates: 2, InnerWidth: 2, Seed: 99}

	nat, err := (&engine.BatchScheduler{}).RunSlice(p, ins, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sim, _ := simStats(t, 8, p, ins, cfg)

	if nat.Commits != sim.Commits || nat.Aborts != sim.Aborts {
		t.Fatalf("commit behaviour differs: native %d/%d, sim %d/%d",
			nat.Commits, nat.Aborts, sim.Commits, sim.Aborts)
	}
	if len(nat.Outputs) != len(sim.Outputs) {
		t.Fatalf("output counts differ: %d vs %d", len(nat.Outputs), len(sim.Outputs))
	}
	for i := range nat.Outputs {
		a, b := nat.Outputs[i].(float64), sim.Outputs[i].(float64)
		if a != b {
			t.Fatalf("output %d differs between executors: %g vs %g", i, a, b)
		}
	}
}

// TestSequentialCrossExecutorIdentical covers the baseline runner.
func TestSequentialCrossExecutorIdentical(t *testing.T) {
	p := easyProg()
	p.noise = 0.5
	ins := toyInputs(80)
	nat := engine.RunSequential(engine.NewNativeExec(), p, ins, 7)
	var sim *engine.Report
	m := machine.New(machine.DefaultConfig(1))
	if err := m.Run("main", func(th *machine.Thread) {
		sim = engine.RunSequential(engine.NewSimExec(th), p, ins, 7)
	}); err != nil {
		t.Fatal(err)
	}
	for i := range nat.Outputs {
		if nat.Outputs[i].(float64) != sim.Outputs[i].(float64) {
			t.Fatalf("sequential output %d differs", i)
		}
	}
}

// TestOneInputPerChunk: the degenerate chunking where every chunk holds a
// single input (lookback clamps to 1, snapshots equal chunk starts).
func TestOneInputPerChunk(t *testing.T) {
	p := easyProg()
	ins := toyInputs(6)
	rep, _ := simStats(t, 8, p, ins, engine.Config{Chunks: 6, Lookback: 4, ExtraStates: 2, InnerWidth: 1, Seed: 1})
	if rep.Chunks != 6 || len(rep.Outputs) != 6 {
		t.Fatalf("degenerate chunking broken: %+v", rep)
	}
}

// TestGangWiderThanMachine: inner width above the core count must still
// complete (oversubscribed helpers timeslice).
func TestGangWiderThanMachine(t *testing.T) {
	p := easyProg()
	p.parInstr = 100_000
	p.grain = 16
	ins := toyInputs(20)
	simStats(t, 2, p, ins, engine.Config{Chunks: 2, Lookback: 2, ExtraStates: 0, InnerWidth: 6, Seed: 1})
}

// TestManyReplicas: more replica threads than cores per boundary.
func TestManyReplicas(t *testing.T) {
	p := easyProg()
	ins := toyInputs(40)
	rep, _ := simStats(t, 2, p, ins, engine.Config{Chunks: 4, Lookback: 4, ExtraStates: 3, InnerWidth: 1, Seed: 1})
	// 4 workers + 3 boundaries x 3 replicas.
	if rep.ThreadsCreated != 4+9 {
		t.Fatalf("threads = %d, want 13", rep.ThreadsCreated)
	}
}

// TestOutputsFiniteUnderHeavyNoise: numeric sanity under extreme
// nondeterminism.
func TestOutputsFiniteUnderHeavyNoise(t *testing.T) {
	p := easyProg()
	p.noise = 50
	p.tol = 1e9 // commit everything
	ins := toyInputs(60)
	rep, err := (&engine.BatchScheduler{}).RunSlice(p, ins, engine.Config{Chunks: 3, Lookback: 5, ExtraStates: 1, InnerWidth: 1, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	for i, o := range rep.Outputs {
		if v := o.(float64); math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("output %d is not finite: %g", i, v)
		}
	}
}
