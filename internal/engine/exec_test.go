package engine_test

import (
	"testing"

	"gostats/internal/engine"
	"gostats/internal/machine"
	"gostats/internal/trace"
)

func TestNativeExecNoOps(t *testing.T) {
	ex := engine.NewNativeExec()
	// Charging and category changes must be harmless no-ops.
	ex.Compute(machine.Work{Instr: 1 << 40})
	ex.Copy(1<<40, 3, "x")
	ex.SetCat(trace.CatSetup)
	if ex.Loc() != 0 {
		t.Fatalf("Loc = %d", ex.Loc())
	}
}

func TestSimExecDelegation(t *testing.T) {
	tr := trace.New()
	m := machine.New(machine.DefaultConfig(4), machine.WithTrace(tr))
	err := m.Run("main", func(th *machine.Thread) {
		ex := engine.NewSimExec(th)
		if ex.Thread() != th {
			t.Error("Thread() lost the underlying thread")
		}
		if ex.Loc() != th.Core() {
			t.Error("Loc mismatch")
		}
		ex.SetCat(trace.CatAltProducer)
		ex.Compute(machine.Work{Instr: 1000})
		ex.Copy(800, -1, "s")
	})
	if err != nil {
		t.Fatal(err)
	}
	by := tr.CyclesByCategory()
	if by[trace.CatAltProducer] == 0 {
		t.Fatal("SetCat not delegated: no alt-producer cycles")
	}
	if by[trace.CatStateCopy] == 0 {
		t.Fatal("Copy not delegated")
	}
}

func TestNativeRuntimeParallelismRace(t *testing.T) {
	// Exercise the native runtime under the race detector: a worker per
	// chunk, replicas, the commit frontier, the abort path. The inner
	// width is accepted and runs no gang: a native executor charges no
	// cost for one to share.
	p := easyProg()
	p.parInstr = 100
	p.grain = 4
	p.noise = 1
	p.tol = 0.01 // force some aborts
	ins := toyInputs(150)
	for seed := uint64(1); seed <= 4; seed++ {
		rep, err := (&engine.BatchScheduler{}).RunSlice(p, ins, engine.Config{
			Chunks: 5, Lookback: 6, ExtraStates: 2, InnerWidth: 3, Seed: seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(rep.Outputs) != 150 {
			t.Fatalf("outputs = %d", len(rep.Outputs))
		}
		if rep.Commits+rep.Aborts != rep.Chunks {
			t.Fatalf("accounting: %+v", rep)
		}
	}
}
