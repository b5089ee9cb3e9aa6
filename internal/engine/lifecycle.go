package engine

import (
	"sync"
	"sync/atomic"

	"gostats/internal/rng"
)

// This file defines the optional fast-path state-lifecycle contract. The
// STATS protocol materializes states constantly — speculative start
// states, per-chunk snapshots, original-state replicas, recovery clones —
// and the paper's characterization (§III, Fig. 7) attributes most of the
// gap to linear speedup to exactly that extra computation: state copying,
// multiple-original-state generation, and state comparison. On the native
// executor those costs are real CPU and allocator work, so programs may
// opt in to recycling: StateRecycler lets the runtime copy a state into a
// retired state's buffers instead of allocating a fresh clone, and
// FreshRecycler rebuilds a cold state the same way (StatePool below keeps
// the free list).
//
// Recycling may not change observable behavior: CloneInto must be
// semantically identical to Clone and FreshInto to Fresh, so committed
// outputs, simulated cost accounting, and trace attribution stay
// bit-identical with and without it.

// StateRecycler is an optional Program extension: programs whose states
// can be deep-copied into a retired state's buffers implement it to make
// snapshot/spec/replica/recovery copies allocation-free on the native
// hot path.
type StateRecycler interface {
	// CloneInto deep-copies src into dst's buffers and returns the reused
	// state. dst may be nil or of an incompatible shape, in which case
	// CloneInto must behave exactly like Clone(src). dst's previous
	// contents are garbage; CloneInto must overwrite every field that
	// Clone would set.
	CloneInto(dst, src State) State
}

// FreshRecycler is an optional Program extension: programs whose Fresh
// (cold) states can be rebuilt into a retired state's buffers implement
// it to make alternative production allocation-free on the native hot
// path — every chunk's alt producer starts from a Fresh state, so
// without recycling those states dominate the steady-state allocation
// profile.
type FreshRecycler interface {
	// FreshInto must be observably identical to Fresh(r): the same draws
	// from r in the same order, and a resulting state indistinguishable
	// from a freshly allocated one. dst may be nil or of an incompatible
	// shape, in which case FreshInto must behave exactly like Fresh(r).
	// dst's previous contents are garbage; every field Fresh would set
	// must be overwritten.
	FreshInto(dst State, r *rng.Stream) State
}

// Fingerprinter is a retired extension. No program implements it, and the
// engine never asserts it: a boundary is validated by the deep Match
// alone. It stays declared only because the repository benchmark's
// tracing wrapper still names it; the next change to that benchmark drops
// it.
type Fingerprinter interface{ Fingerprint(s State) uint64 }

// PoolStats counts a StatePool's traffic.
type PoolStats struct {
	// Reused counts clones served from a retired state's buffers.
	Reused int64
	// Fresh counts clones that had to allocate.
	Fresh int64
	// Released counts states returned to the free list.
	Released int64
	// Dropped counts releases discarded because the free list was full.
	Dropped int64
}

// StatePool is a per-program free list of retired states. Clone prefers
// copying into a retired state's buffers (via the program's StateRecycler
// extension) over allocating; Release retires a dead state for reuse. For
// programs without the extension the pool degrades to plain Clone and
// Release becomes a no-op, so runtimes can use one code path throughout.
//
// The pool is safe for concurrent use. It is an allocator optimization
// only: it never changes which states exist or what they contain, so the
// simulated cost accounting (ex.Copy charges, state counters) is the
// caller's job exactly as with direct Clone calls.
type StatePool struct {
	prog Program
	rec  StateRecycler
	frec FreshRecycler

	mu    sync.Mutex
	free  []State
	limit int

	reused   atomic.Int64
	fresh    atomic.Int64
	released atomic.Int64
	dropped  atomic.Int64
}

// NewStatePool builds a pool for p. The recycling fast path engages only
// when p implements StateRecycler.
func NewStatePool(p Program) *StatePool {
	sp := &StatePool{prog: p, limit: 64}
	if r, ok := p.(StateRecycler); ok {
		sp.rec = r
	}
	// Fresh recycling reuses the same free list as Clone recycling, so it
	// only engages when retired states are actually collected — i.e. when
	// the program also recycles clones.
	if sp.rec != nil {
		if f, ok := p.(FreshRecycler); ok {
			sp.frec = f
		}
	}
	return sp
}

// Clone deep-copies s, reusing a retired state's buffers when one is
// available.
func (sp *StatePool) Clone(s State) State {
	if sp.rec == nil {
		sp.fresh.Add(1)
		return sp.prog.Clone(s)
	}
	return sp.rec.CloneInto(sp.take(), s)
}

// take pops a retired state off the free list — nil when there is none —
// and counts the outcome.
func (sp *StatePool) take() State {
	var dst State
	sp.mu.Lock()
	if n := len(sp.free); n > 0 {
		dst = sp.free[n-1]
		sp.free[n-1] = nil
		sp.free = sp.free[:n-1]
	}
	sp.mu.Unlock()
	if dst == nil {
		sp.fresh.Add(1)
	} else {
		sp.reused.Add(1)
	}
	return dst
}

// Fresh builds a cold state as the program's Fresh would, rebuilding it
// into a retired state's buffers when the program implements
// FreshRecycler and one is available.
func (sp *StatePool) Fresh(r *rng.Stream) State {
	if sp == nil {
		panic("engine: Fresh on nil StatePool")
	}
	if sp.frec == nil {
		sp.fresh.Add(1)
		return sp.prog.Fresh(r)
	}
	return sp.frec.FreshInto(sp.take(), r)
}

// Release retires a dead state for reuse. The caller must not touch s
// afterwards: its buffers will be overwritten by a future Clone. Release
// on a nil pool, a nil state, or a non-recycling program is a no-op.
func (sp *StatePool) Release(s State) {
	if sp == nil || sp.rec == nil || s == nil {
		return
	}
	sp.mu.Lock()
	if len(sp.free) < sp.limit {
		sp.free = append(sp.free, s)
		sp.mu.Unlock()
		sp.released.Add(1)
		return
	}
	sp.mu.Unlock()
	sp.dropped.Add(1)
}

// ReleaseReplicas retires the replica original states of a validated
// chunk boundary — origs[1:], the extra states originalStates generated
// or the boundary built. origs[0] is the chunk's own final state and
// follows the committed lineage's lifecycle instead, so it is never
// released here.
func (sp *StatePool) ReleaseReplicas(origs []State) {
	if len(origs) < 2 {
		return
	}
	for _, o := range origs[1:] {
		sp.Release(o)
	}
}

// Stats returns the pool's traffic counters.
func (sp *StatePool) Stats() PoolStats {
	if sp == nil {
		return PoolStats{}
	}
	return PoolStats{
		Reused:   sp.reused.Load(),
		Fresh:    sp.fresh.Load(),
		Released: sp.released.Load(),
		Dropped:  sp.dropped.Load(),
	}
}
