package engine

import (
	"math"
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
// opt in to two fast paths:
//
//   - StateRecycler lets the runtime copy a state into a retired state's
//     buffers instead of allocating a fresh clone (StatePool below keeps
//     the free list).
//   - Fingerprinter lets MatchAny reject definitely-non-matching original
//     states with an integer digest comparison and run the deep Match
//     only on digest-compatible pairs.
//
// Neither fast path may change observable behavior: CloneInto must be
// semantically identical to Clone, and a fingerprint must be conservative
// (see DigestsMayMatch), so committed outputs, simulated cost accounting,
// and trace attribution stay bit-identical with and without them.

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

// Fingerprinter is an optional Program extension: a digest over the
// match-relevant summary of a state, packed as up to four 16-bit lanes
// (PackLanes). The contract is conservativeness with respect to Match:
//
//	p.Match(a, b) ⇒ DigestsMayMatch(p.Fingerprint(a), p.Fingerprint(b))
//
// i.e. each lane must quantize a scalar summary whose difference between
// any two Match-ing states is at most the lane's quantization cell
// (QuantizeLane), or encode a discrete property through ExactLane. Under
// that contract MatchAny may skip the deep Match whenever digests are
// incompatible without ever changing its result.
type Fingerprinter interface {
	Fingerprint(s State) uint64
}

// QuantizeLane quantizes a scalar summary into a digest lane: values
// within cell of each other land in the same or adjacent cells, which is
// what DigestsMayMatch treats as compatible. cell must be at least the
// maximum difference the summary can have between two states that Match.
func QuantizeLane(v, cell float64) int64 {
	return int64(math.Floor(v / cell))
}

// ExactLane encodes a discrete property (an index, a flag) into a lane
// such that different values are always digest-incompatible: doubling
// puts distinct values at least two cells apart.
func ExactLane(v int64) int64 { return 2 * v }

// PackLanes packs up to four lane values into a digest, 16 bits each.
// Lanes keep only their low 16 bits; the wraparound cannot produce false
// rejections (two in-range values one cell apart stay one apart mod 2^16)
// — at worst an aliased pair looks compatible and falls back to the deep
// Match.
func PackLanes(lanes ...int64) uint64 {
	var d uint64
	for i, v := range lanes {
		if i == 4 {
			break
		}
		d |= (uint64(v) & 0xFFFF) << (16 * uint(i))
	}
	return d
}

// DigestsMayMatch reports whether two digests could belong to matching
// states: every 16-bit lane must be within one quantization step. Callers
// use the contrapositive — incompatible digests prove the states do not
// Match.
func DigestsMayMatch(a, b uint64) bool {
	for shift := uint(0); shift < 64; shift += 16 {
		d := uint16(a>>shift) - uint16(b>>shift)
		if d != 0 && d != 1 && d != 0xFFFF {
			return false
		}
	}
	return true
}

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
