package engine

import (
	"fmt"
	"sync/atomic"

	"gostats/internal/rng"
	"gostats/internal/trace"
)

// This file holds the chunk-level primitives of the STATS protocol —
// alternative production, chunk execution, original-state generation, and
// speculation validation. attempt.go composes them into the one chunk
// attempt every runtime executes; their Exec call sequences and RNG
// derivations are exactly those of the original batch runtime, which keeps
// simulated executions bit-reproducible.

// speculativeState runs an alternative producer (§III-B "Generating
// speculative states"): it builds the speculative start state for a chunk
// whose predecessor ends with window, by replaying only those inputs from
// a cold state. workerRng is the owning chunk's worker stream; the
// producer derives its "fresh" and "altprod" substreams from it. pool
// rebuilds the cold state into a retired state's buffers when it can
// (FreshRecycler). onState is invoked once per state materialized.
func speculativeState(ex Exec, p Program, pool *StatePool, window []Input, workerRng *rng.Stream, onState func()) State {
	ex.SetCat(trace.CatAltProducer)
	s := pool.Fresh(workerRng.Derive("fresh"))
	onState()
	return replay(ex, p, s, window, workerRng.Derive("altprod"), trace.CatAltProducer)
}

// replay advances s over window — the lookback replay both the
// alternative producer and the original-state replicas perform —
// charging each update's modelled cost to cat. On a cost-discarding
// executor the cost model feeds nothing: Update itself is the work.
func replay(ex Exec, p Program, s State, window []Input, rnd *rng.Stream, cat trace.Category) State {
	free := costFree(ex)
	for _, in := range window {
		if free {
			s, _ = p.Update(s, in, rnd)
			continue
		}
		uw := p.UpdateCost(in, s)
		s, _ = p.Update(s, in, rnd)
		ex.SetCat(cat)
		ex.Compute(uw.Serial)
		ex.Compute(uw.Parallel)
	}
	return s
}

// processChunk executes one chunk's updates from state s, snapshotting the
// state just before input index snapAt (the base the original-state
// replicas replay from; snapAt < 0 disables the snapshot, as for the last
// chunk of a bounded stream). g may be nil when the program's original TLP
// is not used. pool serves the snapshot clone from retired state buffers;
// outBuf, when non-nil, is a retired output slab the
// returned outputs are accumulated into (the caller transfers ownership).
// It returns the outputs, the snapshot (nil if disabled) and the final
// state.
func processChunk(ex Exec, p Program, pool *StatePool, g *gang, chunk []Input, snapAt int, s State, rnd, jit *rng.Stream, cat trace.Category, onState func(), outBuf []Output) ([]Output, State, State) {
	var snapshot State
	outs := outBuf[:0]
	if outBuf == nil {
		outs = make([]Output, 0, len(chunk))
	}
	ex.SetCat(cat)
	// With no gang and a cost-discarding executor the per-input cost
	// model feeds nothing: Update itself is the work.
	if costFree(ex) && g == nil {
		for i, in := range chunk {
			if i == snapAt {
				snapshot = pool.Clone(s)
				onState()
			}
			var out Output
			s, out = p.Update(s, in, rnd)
			outs = append(outs, out)
		}
		return outs, snapshot, s
	}
	for i, in := range chunk {
		if i == snapAt {
			snapshot = pool.Clone(s)
			onState()
			ex.Copy(p.StateBytes(), ex.Loc(), p.Name()+".snap")
			ex.SetCat(cat)
		}
		uw := p.UpdateCost(in, s)
		var out Output
		s, out = p.Update(s, in, rnd)
		g.Run(ex, uw, cat, jit, uw.ShareJitter)
		outs = append(outs, out)
	}
	return outs, snapshot, s
}

// originalStates produces the set of original states for a chunk boundary:
// the chunk's own final state plus extra replicas, each re-running the
// last window inputs from the snapshot with fresh nondeterminism on its
// own thread (Fig. 5, cores 0–2). tag names the replica threads (replica i
// spawns as "tag.i"). pool serves replica start clones from retired state
// buffers; the runtime retires them back via StatePool.ReleaseReplicas
// once the boundary has been validated. onThread/onState count spawned
// threads and materialized states.
func originalStates(ex Exec, p Program, pool *StatePool, tag string, window []Input, snapshot, final State, extra int, rnd *rng.Stream, onThread, onState func()) []State {
	origs := []State{final}
	if extra == 0 || snapshot == nil {
		return origs
	}
	results := make([]State, extra)
	handles := make([]Handle, extra)
	myLoc := ex.Loc()
	// A panic on a replica thread cannot unwind into the owning worker's
	// recover; capture the first one here and re-raise it on the worker
	// after the joins, so the protocol's thread structure (spawn/join
	// pairing on both substrates) is undisturbed by the fault.
	var rf atomic.Pointer[replicaFault]
	for i := 0; i < extra; i++ {
		i := i
		rr := rnd.DeriveN("replica", i)
		handles[i] = ex.Spawn(fmt.Sprintf("%s.%d", tag, i), func(re Exec) {
			defer func() {
				if r := recover(); r != nil {
					rf.CompareAndSwap(nil, &replicaFault{val: r, stack: stack()})
				}
			}()
			re.SetCat(trace.CatOrigStates)
			sr := pool.Clone(snapshot)
			onState()
			re.Copy(p.StateBytes(), myLoc, p.Name()+".orig")
			results[i] = replay(re, p, sr, window, rr, trace.CatOrigStates)
		})
		onThread()
	}
	for _, h := range handles {
		ex.Join(h)
	}
	if f := rf.Load(); f != nil {
		panic(f)
	}
	return append(origs, results...)
}

// MatchAny is the runtime's state comparison (§II-B): it reports whether
// spec matches at least one of the original states, charging one
// comparison per state inspected and stopping at the first match.
//
// When the program implements Fingerprinter, MatchAny gates each deep
// Match behind a digest comparison: incompatible digests prove the pair
// cannot Match (the Fingerprinter contract), so the deep comparison is
// skipped. The simulated CompareCost is still charged per state inspected
// either way — on the simulated machine a comparison costs what the
// model says it costs — so traces, critical-path attribution, and the
// returned result are identical with and without the digest fast path.
func MatchAny(ex Exec, p Program, origs []State, spec State) bool {
	ok, _ := matchAnyWave(ex, p, origs, nil, spec, 0, false)
	return ok
}

// matchAnyWave is MatchAny plus the number of comparisons charged
// (original states inspected before the first match, or all of them on a
// miss — the count the event stream reports per EvValidated), over a
// validation wave whose fingerprint lanes may have been computed ahead of
// time: origFPs, when non-nil, holds Fingerprint(origs[i]) for every
// original state, and specFP (valid when haveFP) holds Fingerprint(spec).
// Cached or not, the digests are the same pure functions of the same
// states, so the result and the inspected count do not depend on the
// cache; it only removes recomputation from the commit frontier's
// critical path.
func matchAnyWave(ex Exec, p Program, origs []State, origFPs []uint64, spec State, specFP uint64, haveFP bool) (bool, int) {
	ex.SetCat(trace.CatCompare)
	fp, gated := p.(Fingerprinter)
	if gated && !haveFP {
		specFP = fp.Fingerprint(spec)
	}
	if origFPs != nil && len(origFPs) != len(origs) {
		origFPs = nil // stale cache (recovery rebuilt the set): recompute
	}
	for i, o := range origs {
		ex.Compute(p.CompareCost())
		if gated {
			var of uint64
			if origFPs != nil {
				of = origFPs[i]
			} else {
				of = fp.Fingerprint(o)
			}
			if !DigestsMayMatch(of, specFP) {
				continue
			}
		}
		if p.Match(o, spec) {
			return true, i + 1
		}
	}
	return false, len(origs)
}
