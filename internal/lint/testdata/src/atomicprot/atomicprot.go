// Package atomicprot exercises the atomicprot analyzer — function-style
// atomics and stale CAS-retry loops — in flagged and clean form, and go
// vet's copylocks pass, which owns atomic operations on by-value copies.
// Each copy line carries a trailing comment naming vet's report there.
package atomicprot

import "sync/atomic"

// --- flagged shapes ---

// counter's n is accessed with function-style atomics, which leave
// room for the plain accesses below to race them.
type counter struct {
	n uint64
}

func (c *counter) Inc() {
	atomic.AddUint64(&c.n, 1) // want `function-style atomic.AddUint64`
}

func (c *counter) Reset() {
	c.n = 0
}

// hits is a package-level var with the same mixed-access bug.
var hits uint64

func Record() {
	atomic.AddUint64(&hits, 1) // want `function-style atomic.AddUint64`
}

func Hits() uint64 {
	return hits
}

// bumpStale snapshots the expected value once, outside the loop: a
// failed CAS retries against the same stale snapshot forever.
func bumpStale(v *atomic.Uint64) {
	old := v.Load()
	for {
		if v.CompareAndSwap(old, old+1) { // want `CAS retry loop compares against "old"`
			return
		}
	}
}

// gauge holds a typed atomic, so copying it by value splits the
// synchronization domain: go vet reports each copy below.
type gauge struct {
	val atomic.Int64
}

func (g gauge) Bump() { // vet: Bump passes lock by value
	g.val.Add(1)
}

func drain(g gauge) int64 { // vet: drain passes lock by value
	return g.val.Load()
}

func snapshot(p *gauge) int64 {
	c := *p // vet: assignment copies lock value to c
	return c.val.Load()
}

// --- clean shapes ---

// newCounter writes plainly and calls no atomic function: nothing to
// flag.
func newCounter(start uint64) *counter {
	c := &counter{}
	c.n = start
	return c
}

// tcounter uses a typed atomic consistently: nothing to mix.
type tcounter struct {
	n atomic.Uint64
}

func (c *tcounter) Inc() {
	c.n.Add(1)
}

func (c *tcounter) Get() uint64 {
	return c.n.Load()
}

// bumpFresh reloads the expected value every iteration.
func bumpFresh(v *atomic.Uint64) {
	for {
		old := v.Load()
		if v.CompareAndSwap(old, old+1) {
			return
		}
	}
}

// bumpRetry declares the snapshot outside but reassigns it inside the
// loop, so each retry compares against a fresh value.
func bumpRetry(v *atomic.Uint64) {
	old := v.Load()
	for {
		if v.CompareAndSwap(old, old+1) {
			return
		}
		old = v.Load()
	}
}

const (
	slotIdle    uint32 = 0
	slotClaimed uint32 = 1
)

// claim races on a state transition: constant expected values are not
// snapshots and cannot go stale.
func claim(v *atomic.Uint32) bool {
	for {
		if v.CompareAndSwap(slotIdle, slotClaimed) {
			return true
		}
		if v.Load() == slotClaimed {
			return false
		}
	}
}

// bumpShared operates through a pointer: no copy, no violation.
func bumpShared(p *gauge) {
	p.val.Add(1)
}
