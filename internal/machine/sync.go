package machine

import (
	"fmt"

	"gostats/internal/trace"
)

// Mutex is a simulated pthread-style mutex. Uncontended operations cost
// MutexCost cycles in user space; handing the lock to a waiter enters the
// kernel (KernelWakeCost on the waker) and the waiter resumes after
// WakeLatency (§III-C: "synchronizing threads can require the program to
// go to the kernel, which takes several hundreds of clock cycles").
type Mutex struct {
	m       *Machine
	holder  *Thread
	waiters []*Thread
}

// NewMutex creates a mutex on the machine.
func (m *Machine) NewMutex() *Mutex { return &Mutex{m: m} }

// Lock acquires the mutex, blocking while another thread holds it.
func (mu *Mutex) Lock(t *Thread) {
	t.chargeSync(mu.m.cfg.MutexCost, trace.CatSyncKernel, "lock")
	mu.lockAfterCharge(t)
}

// lockAfterCharge is the contention path without the user-space charge
// (used when a condvar waiter re-acquires).
func (mu *Mutex) lockAfterCharge(t *Thread) {
	if mu.holder == nil {
		mu.holder = t
		return
	}
	if mu.holder == t {
		panic(fmt.Sprintf("machine: thread %q locking mutex it already holds", t.name))
	}
	mu.waiters = append(mu.waiters, t)
	t.blockStart = mu.m.now
	t.block("mutex")
	// We are resumed holding the lock: Unlock transfers ownership.
}

// Unlock releases the mutex, handing it to the oldest waiter if any.
func (mu *Mutex) Unlock(t *Thread) {
	if mu.holder != t {
		panic(fmt.Sprintf("machine: thread %q unlocking mutex it does not hold", t.name))
	}
	t.chargeSync(mu.m.cfg.MutexCost, trace.CatSyncKernel, "unlock")
	mu.release(t)
}

// release transfers or frees the lock. The caller has already been
// charged for the user-space part.
func (mu *Mutex) release(t *Thread) {
	if len(mu.waiters) == 0 {
		mu.holder = nil
		return
	}
	w := mu.waiters[0]
	mu.waiters = mu.waiters[1:]
	mu.holder = w
	t.chargeSync(mu.m.cfg.KernelWakeCost, trace.CatSyncKernel, "futex-wake")
	mu.m.wakeBlockedExtra(t, w, "mutex-handoff", 0)
}

// releaseForWait transfers or frees the lock on behalf of a thread that is
// about to sleep on a condition variable. The futex-wake kernel cost is
// folded into the handed-off waiter's wake latency instead of occupying
// the caller: the caller must not execute between queuing itself on the
// condvar and sleeping, or an early signal could resume it while it still
// holds the CPU.
func (mu *Mutex) releaseForWait(t *Thread) {
	if len(mu.waiters) == 0 {
		mu.holder = nil
		return
	}
	w := mu.waiters[0]
	mu.waiters = mu.waiters[1:]
	mu.holder = w
	mu.m.wakeBlockedExtra(t, w, "mutex-handoff", mu.m.cfg.KernelWakeCost)
}

// wakeBlockedExtra schedules w's resumption after the wake latency plus
// extraLat, recording its wait interval and the happens-before edge.
func (m *Machine) wakeBlockedExtra(waker, w *Thread, tag string, extraLat int64) {
	lat := m.cfg.WakeLatency + extraLat
	if m.socketOf(waker.core) != m.socketOf(w.core) {
		lat += m.cfg.CrossSocketWakeExtra
	}
	fromTime := m.now
	m.after(lat, func() {
		m.record(w.id, trace.CatSyncWait, w.blockStart, m.now, tag)
		m.edge(trace.EdgeWake, waker.id, fromTime, w.id, m.now)
		m.runThread(w)
	})
}

// Cond is a simulated condition variable bound to a Mutex.
type Cond struct {
	m       *Machine
	mu      *Mutex
	waiters []*Thread
}

// NewCond creates a condition variable using mu.
func (m *Machine) NewCond(mu *Mutex) *Cond { return &Cond{m: m, mu: mu} }

// Wait atomically releases the mutex and blocks until signalled, then
// re-acquires the mutex before returning (pthread_cond_wait semantics).
func (c *Cond) Wait(t *Thread) {
	if c.mu.holder != t {
		panic(fmt.Sprintf("machine: thread %q waiting on cond without holding its mutex", t.name))
	}
	c.waiters = append(c.waiters, t)
	t.blockStart = c.m.now
	c.mu.releaseForWait(t)
	t.block("cond")
	// Signalled: contend for the mutex again. The wait interval up to the
	// signal was recorded by wakeBlocked; re-acquisition may block again.
	t.blockStart = c.m.now
	c.mu.lockAfterCharge(t)
}

// Signal wakes the oldest waiter, if any.
func (c *Cond) Signal(t *Thread) {
	if len(c.waiters) == 0 {
		t.chargeSync(c.m.cfg.MutexCost, trace.CatSyncKernel, "signal-empty")
		return
	}
	w := c.waiters[0]
	c.waiters = c.waiters[1:]
	t.chargeSync(c.m.cfg.KernelWakeCost, trace.CatSyncKernel, "cond-signal")
	c.m.wakeBlockedExtra(t, w, "cond-signal", 0)
}

// Broadcast wakes all waiters. The kernel is entered once; each
// additional waiter costs a smaller per-thread wake charge.
func (c *Cond) Broadcast(t *Thread) {
	if len(c.waiters) == 0 {
		t.chargeSync(c.m.cfg.MutexCost, trace.CatSyncKernel, "broadcast-empty")
		return
	}
	n := len(c.waiters)
	t.chargeSync(c.m.cfg.KernelWakeCost+int64(n-1)*300, trace.CatSyncKernel, "cond-broadcast")
	ws := c.waiters
	c.waiters = nil
	for _, w := range ws {
		c.m.wakeBlockedExtra(t, w, "cond-broadcast", 0)
	}
}
