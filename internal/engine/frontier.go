package engine

import (
	"runtime"
	"sync/atomic"
)

// This file implements the sharded commit frontier: a lock-free slot
// array over which chunk boundaries are validated concurrently, out of
// commit order, while the commit/abort decision itself is applied
// strictly in input order by the commit stage.
//
// In the original design the commit stage did everything at the
// frontier: reorder results, run MatchAny for the boundary, then commit
// or recover. Validation of boundary j (predecessor j-1's original
// states against chunk j's published speculative state) only needs both
// results to exist — not for j-1 to have been applied — so the workers
// that produced them can validate the boundary the moment the second
// result lands, overlapping comparison work with whatever the commit
// stage is still applying. The frontier records the verdict; the commit
// stage consumes it when it reaches j, falling back to an inline
// MatchAny when no verdict is usable.
//
// Determinism: a prevalidated verdict is consumed only when the
// predecessor committed its speculative lineage — exactly the case
// where the states the verdict was computed against are the states the
// inline MatchAny would have used. MatchAny is a pure function of those
// states, so the verdict, the inspected count (the EvValidated N that
// feeds the compares counter), and therefore the committed output
// sequence are identical to the sequential design. Only wall-clock
// durations differ.
//
// Slot protocol. Slot j&mask tracks boundary (j-1 → j) through a tiny
// state machine:
//
//	valIdle ──CAS──▶ valClaimed ──▶ valDone ──▶ valSpent
//	   │                 │ (bail: re-verify failed)        ▲
//	   │                 ▼                                 │
//	   │              valIdle                              │
//	   └────────────CAS (apply: no verdict)────────────────┘
//
// A prevalidator claims the slot, re-verifies that both slots still
// publish the chunks it came for (the slot array is reused across laps),
// runs the comparison, and publishes valDone. The apply path settles the
// slot — consuming a verdict, waiting out an in-flight claim, or
// marking it spent so no later claim can start — before it releases any
// state a prevalidator could be reading. That settle-before-release
// rule is what makes the concurrent reads safe: states handed to the
// pool are never reachable from a claimable slot.
//
// The slots also hold the chunk records themselves (pipeline.go), reused
// lap after lap, so the same rule guards the records: outside a claim a
// prevalidator reads nothing of a slot but its atomics. A claim on slot
// j with slots j-1 and j re-verified pins both records — record j-1 is
// reused only after clear(j-1), record j only after clear(j), and both
// clears come after settle(j), which waits the claim out; a recovery
// rewrites record j-1 sooner, behind quiesce(j), which does the same.
const (
	valIdle int32 = iota
	valClaimed
	valDone
	valSpent
)

// valSlot is one frontier slot. pub names the chunk whose result the
// slot's record holds this lap; the verdict — including which worker
// computed it — is written between the claim and the valDone store, and
// read only after observing valDone (the atomic state transitions order
// them).
type valSlot struct {
	pub   atomic.Int64 // 1 + the published chunk's index; 0 when none
	state atomic.Int32
	v     verdict
	_     pad
	ck    chunk
}

// pad, behind a slot's atomics and verdict, keeps them a cache line away
// from the record the owning worker is writing.
type pad [56]byte

// frontier is the slot array. Its length is a power of two at least
// window+2: chunk j+len is dispatched only after the producer has
// consumed outcome j+1, which means applyCommit(j+1) — the step that resets
// slot j and reads record j for the last time — has finished, so a slot
// is never claimed, and a record never written, for two chunks at once.
type frontier struct {
	mask  uint64
	slots []valSlot
}

func newFrontier(window int) *frontier {
	n := uint64(2)
	for n < uint64(window)+2 {
		n <<= 1
	}
	return &frontier{mask: n - 1, slots: make([]valSlot, n)}
}

func (f *frontier) slot(j int) *valSlot { return &f.slots[uint64(j)&f.mask] }

// chunk returns the record chunk j lives in.
func (f *frontier) chunk(j int) *chunk { return &f.slot(j).ck }

// publish makes a worker's result visible to prevalidators. The commit
// stage still receives the record through the results ring; the slot is
// only the validation rendezvous.
func (f *frontier) publish(ck *chunk) { f.slot(ck.j).pub.Store(int64(ck.j) + 1) }

// published reports whether slot j holds chunk j's result this lap.
func (f *frontier) published(j int) bool { return f.slot(j).pub.Load() == int64(j)+1 }

// settle resolves slot j for the applyCommit path: it returns a recorded
// verdict if one exists, waits out a prevalidator that is mid-claim,
// and in all cases leaves the slot spent so no new claim can begin.
// have reports whether a verdict was recorded.
func (f *frontier) settle(j int) (v verdict, have bool) {
	sl := f.slot(j)
	for {
		if sl.state.CompareAndSwap(valIdle, valSpent) {
			return verdict{}, false
		}
		switch sl.state.Load() {
		case valDone:
			sl.state.Store(valSpent)
			return sl.v, true
		case valSpent:
			return verdict{}, false
		}
		// valClaimed: the prevalidator is one bounded comparison away
		// from valDone (or from bailing back to valIdle); yield to it.
		runtime.Gosched()
	}
}

// quiesce spends slot j without consuming its verdict, waiting out an
// in-flight claim first. The abort path calls it on the successor slot
// before releasing the aborted chunk's original states: a prevalidator
// may be comparing against exactly those states, and once the slot is
// spent no new claim can reach them.
func (f *frontier) quiesce(j int) { f.settle(j) }

// clear resets slot j for its next lap. Called by applyCommit(j+1) after
// settling boundary j+1: slot j's result has served as that boundary's
// predecessor for the last time.
func (f *frontier) clear(j int) {
	sl := f.slot(j)
	sl.pub.Store(0)
	sl.state.Store(valIdle)
}

// claim takes slot j for a prevalidation of boundary (j-1 → j) if both
// results are published, and reports whether the caller now holds it —
// and with it the right to read both records. A caller that does must
// end the claim with a verdict (record) or give the slot back (unclaim).
func (f *frontier) claim(j int) bool {
	if !f.published(j) || !f.published(j-1) {
		return false
	}
	sl := f.slot(j)
	if !sl.state.CompareAndSwap(valIdle, valClaimed) {
		return false
	}
	// Re-verify under the claim: between our loads and the CAS the
	// applyCommit path may have recycled either slot for a later lap, in
	// which case the records are being rewritten and the states behind
	// them can already be back in the pool.
	if !f.published(j) || !f.published(j-1) {
		sl.state.Store(valIdle)
		return false
	}
	return true
}

// unclaim gives a claimed slot back without a verdict.
func (f *frontier) unclaim(j int) { f.slot(j).state.Store(valIdle) }

// record ends a claim on slot j with its verdict.
func (f *frontier) record(j int, v verdict) {
	sl := f.slot(j)
	sl.v = v
	sl.state.Store(valDone)
}

// prevalidate opportunistically validates boundary (j-1 → j) on the
// calling worker (pool slot worker): if both results are published and
// healthy it claims the slot, runs the fingerprint-gated comparison wave,
// and records the verdict for the commit stage. It never blocks and never
// touches the committed lineage; losing every race just means the
// frontier validates inline as before.
func (p *Pipeline) prevalidate(j, worker int) {
	if j <= 0 || !p.fr.claim(j) {
		return
	}
	succ, pred := p.fr.chunk(j), p.fr.chunk(j-1)
	if succ.fault != nil || pred.fault != nil || succ.spec == nil {
		p.fr.unclaim(j)
		return
	}
	p.fr.record(j, p.validate(p.ex, worker, pred.origs, pred.origFPs, succ.spec, succ.specFP, succ.fpOK))
}
