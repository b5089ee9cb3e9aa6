package engine

import (
	"gostats/internal/machine"
	"gostats/internal/trace"
)

// Exec is the cost accounting of the substrate the protocol runs on: the
// simulated machine (SimExec) for the paper's experiments, which charges
// every unit of modelled work to a virtual thread, or plain goroutines
// (NativeExec) for real use, where the real computation inside Update is
// the cost and every charge is a no-op. Threads and locks are not part of
// it: the simulated batch body (Run) spawns and synchronizes machine
// threads directly, and the native runtime is the streaming pipeline.
type Exec interface {
	// Compute charges w to the calling context (no-op on native — there
	// the real computation inside Update is the cost).
	Compute(w machine.Work)
	// Copy charges a state copy. srcLoc is the producing context's
	// locality hint (Loc of the thread that owns the source) or -1.
	Copy(bytes int64, srcLoc int, tag string)
	// SetCat switches the accounting category for subsequent work.
	SetCat(c trace.Category)
	// Loc returns a locality hint (simulated core id; 0 on native).
	Loc() int
}

// ---------------------------------------------------------------------------
// Executor on the simulated machine

// SimExec adapts a machine.Thread to the Exec interface.
type SimExec struct {
	th *machine.Thread
}

// NewSimExec wraps a simulated thread.
func NewSimExec(th *machine.Thread) *SimExec { return &SimExec{th: th} }

// Thread returns the underlying simulated thread.
func (e *SimExec) Thread() *machine.Thread { return e.th }

// Compute charges w on the simulated core.
func (e *SimExec) Compute(w machine.Work) { e.th.Compute(w) }

// Copy charges a simulated state copy.
func (e *SimExec) Copy(bytes int64, srcLoc int, tag string) {
	e.th.CopyState(bytes, srcLoc, tag)
}

// SetCat switches the simulated thread's accounting category.
func (e *SimExec) SetCat(c trace.Category) { e.th.SetCat(c) }

// Loc returns the simulated core id.
func (e *SimExec) Loc() int { return e.th.Core() }

// spawn starts a simulated thread running fn on an executor of its own;
// the caller joins it through e.th.
func (e *SimExec) spawn(name string, fn func(*SimExec)) *machine.Thread {
	return e.th.Spawn(name, func(t *machine.Thread) { fn(&SimExec{th: t}) })
}

// ---------------------------------------------------------------------------
// Native executor

// NativeExec is the cost accounting of real goroutines: every charge is a
// no-op and the benchmark's actual computation provides the work. The
// streaming pipeline runs the protocol on it, and RunSequential and
// RunOriginal accept it for native baselines.
type NativeExec struct{}

// NewNativeExec returns a native executor.
func NewNativeExec() *NativeExec { return &NativeExec{} }

// Compute is a no-op: real work happens inside Update.
func (e *NativeExec) Compute(machine.Work) {}

// Copy is a no-op: Clone itself does the real copying.
func (e *NativeExec) Copy(int64, int, string) {}

// SetCat is a no-op on native.
func (e *NativeExec) SetCat(trace.Category) {}

// Loc returns 0: native threads have no stable core identity.
func (e *NativeExec) Loc() int { return 0 }

// costFree reports whether ex discards cost charges entirely, that is,
// whether it is anything but the simulated machine. It is the one place
// the substrate decides behaviour. The protocol primitives use it to skip
// UpdateCost and the Compute calls on their per-input hot paths: on such
// an executor those calls consume CPU and produce nothing — the real
// computation inside Update is the cost. The skip draws no RNG and
// touches no state, so executions are bit-identical with and without it.
// Only a charging executor runs an inner gang or spawns replica threads,
// and those take their machine thread from the *SimExec this admits.
func costFree(ex Exec) bool {
	_, sim := ex.(*SimExec)
	return !sim
}
