package engine_test

import (
	"errors"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"gostats/internal/engine"
	"gostats/internal/machine"
	"gostats/internal/rng"
)

// faultyProg wraps toyProg and injects failures at chosen points. With
// persistent set, the Update panic repeats on every call from the trigger
// point on (a hard fault: retries and degraded re-execution fault too);
// without it the panic fires exactly once (a transient fault: the
// engine's retry re-executes cleanly).
type faultyProg struct {
	*toyProg
	panicOnUpdate  int64 // panic on the nth Update call (0 = never)
	persistent     bool  // keep panicking on every later Update too
	panicInMatch   bool
	panicInClone   bool
	updates        atomic.Int64
	badCostNegInst bool
}

func (f *faultyProg) Update(s engine.State, in engine.Input, r *rng.Stream) (engine.State, engine.Output) {
	n := f.updates.Add(1)
	if f.panicOnUpdate > 0 && (n == f.panicOnUpdate || (f.persistent && n > f.panicOnUpdate)) {
		panic("injected update failure")
	}
	return f.toyProg.Update(s, in, r)
}

func (f *faultyProg) Match(a, b engine.State) bool {
	if f.panicInMatch {
		panic("injected match failure")
	}
	return f.toyProg.Match(a, b)
}

func (f *faultyProg) Clone(s engine.State) engine.State {
	if f.panicInClone {
		panic("injected clone failure")
	}
	return f.toyProg.Clone(s)
}

func (f *faultyProg) UpdateCost(in engine.Input, s engine.State) engine.UpdateWork {
	uw := f.toyProg.UpdateCost(in, s)
	if f.badCostNegInst {
		uw.Serial.Instr = -5
	}
	return uw
}

// runFaulty executes the STATS model on the simulated machine and returns
// its error (the runtime must never hang on injected failures).
func runFaulty(t *testing.T, f *faultyProg, cfg engine.Config) error {
	t.Helper()
	_, err := (&engine.SimScheduler{Config: machine.DefaultConfig(4)}).RunSlice(f, toyInputs(40), cfg)
	return err
}

// A persistent worker panic exhausts the retry budget, the degraded
// sequential re-execution faults too, and the session fails with a
// structured FaultError carrying the panic value — it must surface, not
// hang or kill the process.
func TestUpdatePanicInWorkerPropagates(t *testing.T) {
	f := &faultyProg{toyProg: easyProg(), panicOnUpdate: 15, persistent: true}
	err := runFaulty(t, f, engine.Config{Chunks: 4, Lookback: 4, ExtraStates: 1, InnerWidth: 1, Seed: 1})
	if err == nil || !strings.Contains(err.Error(), "injected update failure") {
		t.Fatalf("worker panic not propagated: %v", err)
	}
}

func TestUpdatePanicInAltProducerPropagates(t *testing.T) {
	// The very first updates of a non-first worker run in its alternative
	// producer; a persistent panic there must surface too.
	f := &faultyProg{toyProg: easyProg(), panicOnUpdate: 2, persistent: true}
	err := runFaulty(t, f, engine.Config{Chunks: 4, Lookback: 4, ExtraStates: 1, InnerWidth: 1, Seed: 1})
	if err == nil || !strings.Contains(err.Error(), "injected update failure") {
		t.Fatalf("alt-producer panic not propagated: %v", err)
	}
}

func TestMatchPanicPropagates(t *testing.T) {
	f := &faultyProg{toyProg: easyProg(), panicInMatch: true}
	err := runFaulty(t, f, engine.Config{Chunks: 3, Lookback: 3, ExtraStates: 0, InnerWidth: 1, Seed: 1})
	if err == nil || !strings.Contains(err.Error(), "injected match failure") {
		t.Fatalf("match panic not propagated: %v", err)
	}
}

func TestClonePanicPropagates(t *testing.T) {
	f := &faultyProg{toyProg: easyProg(), panicInClone: true}
	err := runFaulty(t, f, engine.Config{Chunks: 3, Lookback: 3, ExtraStates: 1, InnerWidth: 1, Seed: 1})
	if err == nil || !strings.Contains(err.Error(), "injected clone failure") {
		t.Fatalf("clone panic not propagated: %v", err)
	}
}

func TestNegativeCostPanicsDeterministically(t *testing.T) {
	f := &faultyProg{toyProg: easyProg(), badCostNegInst: true}
	err := runFaulty(t, f, engine.Config{Chunks: 2, Lookback: 2, ExtraStates: 0, InnerWidth: 1, Seed: 1})
	if err == nil || !strings.Contains(err.Error(), "negative instruction count") {
		t.Fatalf("negative cost not caught: %v", err)
	}
}

func TestGangHelperPanicPropagates(t *testing.T) {
	// Persistent panic during a gang-parallel update (the helper threads
	// are live).
	f := &faultyProg{toyProg: easyProg(), panicOnUpdate: 10, persistent: true}
	f.parInstr = 50_000
	f.grain = 4
	err := runFaulty(t, f, engine.Config{Chunks: 2, Lookback: 2, ExtraStates: 0, InnerWidth: 3, Seed: 1})
	if err == nil || !strings.Contains(err.Error(), "injected update failure") {
		t.Fatalf("gang-mode panic not propagated: %v", err)
	}
}

// A transient (one-shot) panic is the fault layer's bread and butter: the
// faulted attempt is isolated and retried, and because RNG derivation is
// pure the retry commits outputs byte-identical to a fault-free run.
func TestTransientUpdatePanicIsolated(t *testing.T) {
	cfg := engine.Config{Chunks: 4, Lookback: 4, ExtraStates: 1, InnerWidth: 1, Seed: 1}
	clean, err := (&engine.BatchScheduler{}).RunSlice(easyProg(), toyInputs(40), cfg)
	if err != nil {
		t.Fatalf("fault-free run: %v", err)
	}
	f := &faultyProg{toyProg: easyProg(), panicOnUpdate: 15}
	rep, err := (&engine.BatchScheduler{}).RunSlice(f, toyInputs(40), cfg)
	if err != nil {
		t.Fatalf("transient panic not isolated: %v", err)
	}
	if !reflect.DeepEqual(rep.Outputs, clean.Outputs) {
		t.Fatalf("outputs diverged after isolated fault:\nfaulted: %v\nclean:   %v",
			rep.Outputs, clean.Outputs)
	}
}

// A persistent fault on the native path fails with a structured
// *FaultError (and never a process crash), so callers can distinguish
// "this session is poisoned" from transport or configuration errors.
func TestPersistentPanicReturnsFaultError(t *testing.T) {
	f := &faultyProg{toyProg: easyProg(), panicOnUpdate: 15, persistent: true}
	cfg := engine.Config{Chunks: 4, Lookback: 4, ExtraStates: 1, InnerWidth: 1, Seed: 1}
	_, err := (&engine.BatchScheduler{}).RunSlice(f, toyInputs(40), cfg)
	var fe *engine.FaultError
	if !errors.As(err, &fe) {
		t.Fatalf("want *engine.FaultError, got %T: %v", err, err)
	}
	var cf *engine.ChunkFault
	if !errors.As(err, &cf) {
		t.Fatalf("engine.FaultError does not unwrap to *ChunkFault: %v", err)
	}
	if cf.Panic == nil || !strings.Contains(err.Error(), "injected update failure") {
		t.Fatalf("fault lost the panic value: %+v", cf)
	}
}
