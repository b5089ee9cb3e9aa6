package engine

import (
	"sync"

	"gostats/internal/machine"
	"gostats/internal/trace"
)

// Exec abstracts the execution substrate the runtime drives: the
// simulated machine (SimExec) for the paper's experiments, or plain
// goroutines (NativeExec) for real use.
type Exec interface {
	// Compute charges w to the calling context (no-op on native — there
	// the real computation inside Update is the cost).
	Compute(w machine.Work)
	// Copy charges a state copy. srcLoc is the producing context's
	// locality hint (Loc of the thread that owns the source) or -1.
	Copy(bytes int64, srcLoc int, tag string)
	// SetCat switches the accounting category for subsequent work.
	SetCat(c trace.Category)
	// Spawn starts a new context running fn and returns a join handle.
	Spawn(name string, fn func(Exec)) Handle
	// Join blocks until the handle's context finishes.
	Join(h Handle)
	// NewMutex and NewCond create blocking primitives usable from any
	// context of the same substrate.
	NewMutex() Mutex
	NewCond(mu Mutex) Cond
	// Loc returns a locality hint (simulated core id; 0 on native).
	Loc() int
}

// Handle identifies a spawned context for joining.
type Handle interface{}

// Mutex is a substrate-independent mutual-exclusion lock. Methods take
// the calling Exec because the simulator needs to know which virtual
// thread blocks.
type Mutex interface {
	Lock(e Exec)
	Unlock(e Exec)
}

// Cond is a substrate-independent condition variable.
type Cond interface {
	Wait(e Exec)
	Signal(e Exec)
	Broadcast(e Exec)
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

// Spawn creates a simulated thread.
func (e *SimExec) Spawn(name string, fn func(Exec)) Handle {
	return e.th.Spawn(name, func(t *machine.Thread) { fn(&SimExec{th: t}) })
}

// Join waits for a spawned simulated thread.
func (e *SimExec) Join(h Handle) { e.th.Join(h.(*machine.Thread)) }

// NewMutex creates a simulated mutex.
func (e *SimExec) NewMutex() Mutex { return &simMutex{mu: e.th.Machine().NewMutex()} }

// NewCond creates a simulated condition variable.
func (e *SimExec) NewCond(mu Mutex) Cond {
	sm := mu.(*simMutex)
	return &simCond{c: e.th.Machine().NewCond(sm.mu)}
}

// Loc returns the simulated core id.
func (e *SimExec) Loc() int { return e.th.Core() }

type simMutex struct{ mu *machine.Mutex }

func (m *simMutex) Lock(e Exec)   { m.mu.Lock(e.(*SimExec).th) }
func (m *simMutex) Unlock(e Exec) { m.mu.Unlock(e.(*SimExec).th) }

type simCond struct{ c *machine.Cond }

func (c *simCond) Wait(e Exec)      { c.c.Wait(e.(*SimExec).th) }
func (c *simCond) Signal(e Exec)    { c.c.Signal(e.(*SimExec).th) }
func (c *simCond) Broadcast(e Exec) { c.c.Broadcast(e.(*SimExec).th) }

// ---------------------------------------------------------------------------
// Native executor

// NativeExec runs the execution model on real goroutines: cost charges
// are no-ops and the benchmark's actual computation provides the work.
// It makes the library usable as a real parallelization runtime (the
// examples use it).
type NativeExec struct{}

// NewNativeExec returns a native executor.
func NewNativeExec() *NativeExec { return &NativeExec{} }

// Compute is a no-op: real work happens inside Update.
func (e *NativeExec) Compute(machine.Work) {}

// Copy is a no-op: Clone itself does the real copying.
func (e *NativeExec) Copy(int64, int, string) {}

// SetCat is a no-op on native.
func (e *NativeExec) SetCat(trace.Category) {}

// Spawn runs fn on a new goroutine.
func (e *NativeExec) Spawn(name string, fn func(Exec)) Handle {
	done := make(chan struct{})
	go func() {
		defer close(done)
		fn(&NativeExec{})
	}()
	return done
}

// Join waits for the goroutine to finish.
func (e *NativeExec) Join(h Handle) { <-h.(chan struct{}) }

// NewMutex returns a sync.Mutex-backed lock.
func (e *NativeExec) NewMutex() Mutex { return &nativeMutex{} }

// NewCond returns a sync.Cond-backed condition variable.
func (e *NativeExec) NewCond(mu Mutex) Cond {
	nm := mu.(*nativeMutex)
	return &nativeCond{c: sync.NewCond(&nm.mu)}
}

// Loc returns 0: native threads have no stable core identity.
func (e *NativeExec) Loc() int { return 0 }

// CostFree marks the executor as one whose Compute/Copy/SetCat charges
// are no-ops, so protocol loops may skip building the cost models they
// would feed to them (see costFree).
func (e *NativeExec) CostFree() bool { return true }

// costFree reports whether ex discards cost charges entirely. The
// protocol primitives use it to skip UpdateCost and the Compute calls
// on their per-input hot paths: on such an executor those calls consume
// CPU and produce nothing — the real computation inside Update is the
// cost. The skip draws no RNG and touches no state, so executions are
// bit-identical with and without it; the simulated executor does not
// implement the marker and keeps full accounting.
func costFree(ex Exec) bool {
	cf, ok := ex.(interface{ CostFree() bool })
	return ok && cf.CostFree()
}

type nativeMutex struct{ mu sync.Mutex }

func (m *nativeMutex) Lock(Exec)   { m.mu.Lock() }
func (m *nativeMutex) Unlock(Exec) { m.mu.Unlock() }

type nativeCond struct{ c *sync.Cond }

func (c *nativeCond) Wait(Exec)      { c.c.Wait() }
func (c *nativeCond) Signal(Exec)    { c.c.Signal() }
func (c *nativeCond) Broadcast(Exec) { c.c.Broadcast() }
