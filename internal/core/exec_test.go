package core

import (
	"sync/atomic"
	"testing"

	"gostats/internal/engine"
	"gostats/internal/machine"
	"gostats/internal/trace"
)

func TestNativeExecSpawnJoin(t *testing.T) {
	ex := engine.NewNativeExec()
	var ran atomic.Int32
	var hs []engine.Handle
	for i := 0; i < 16; i++ {
		hs = append(hs, ex.Spawn("w", func(child engine.Exec) {
			ran.Add(1)
		}))
	}
	for _, h := range hs {
		ex.Join(h)
	}
	if ran.Load() != 16 {
		t.Fatalf("ran = %d", ran.Load())
	}
}

func TestNativeExecMutexCond(t *testing.T) {
	ex := engine.NewNativeExec()
	mu := ex.NewMutex()
	cond := ex.NewCond(mu)
	ready := false
	h := ex.Spawn("waiter", func(child engine.Exec) {
		mu.Lock(child)
		for !ready {
			cond.Wait(child)
		}
		mu.Unlock(child)
	})
	mu.Lock(ex)
	ready = true
	cond.Broadcast(ex)
	mu.Unlock(ex)
	ex.Join(h) // must not hang
}

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
		var childLoc int
		h := ex.Spawn("child", func(c engine.Exec) {
			c.Compute(machine.Work{Instr: 500})
			childLoc = c.Loc()
		})
		ex.Join(h)
		if childLoc < 0 || childLoc >= 4 {
			t.Errorf("child loc %d", childLoc)
		}
		mu := ex.NewMutex()
		cond := ex.NewCond(mu)
		mu.Lock(ex)
		cond.Signal(ex) // empty signal: cheap, must not block
		mu.Unlock(ex)
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
	// Exercise the full native execution model under the race detector:
	// chunk threads, replicas, commit chain, abort path. The inner width
	// is accepted and runs no gang: a native executor charges no cost for
	// one to share.
	p := easyProg()
	p.parInstr = 100
	p.grain = 4
	p.noise = 1
	p.tol = 0.01 // force some aborts
	ins := toyInputs(150)
	for seed := uint64(1); seed <= 4; seed++ {
		rep, err := engine.Run(engine.NewNativeExec(), p, ins, engine.Config{
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
