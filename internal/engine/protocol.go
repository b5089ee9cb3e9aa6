package engine

import (
	"sync/atomic"

	"gostats/internal/rng"
	"gostats/internal/trace"
)

// This file holds the chunk-level primitives of the STATS protocol —
// alternative production, chunk execution, original-state generation, and
// speculation validation. attempt.go composes them into the one chunk
// attempt every runtime executes; their Exec call sequences and RNG
// derivations are exactly those of the simulated machine's batch body,
// which keeps simulated executions bit-reproducible.

// speculativeState runs an alternative producer (§III-B "Generating
// speculative states"): it builds the speculative start state for a chunk
// whose predecessor ends with window, by replaying only those inputs from
// a cold state, drawing from the "fresh" and then the "altprod" substream
// of the chunk's worker stream. The pool rebuilds the cold state into a
// retired state's buffers when it can (FreshRecycler).
func (c *chunkRun) speculativeState(window []Input) State {
	c.ex.SetCat(trace.CatAltProducer)
	c.sub = c.rng.Sub("fresh")
	s := c.pool.Fresh(&c.sub)
	c.countState()
	c.sub = c.rng.Sub("altprod")
	return replay(c.ex, c.prog, s, window, &c.sub, trace.CatAltProducer)
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

// processChunk executes one chunk's updates from state s under cat,
// drawing from the label substream of the chunk's worker stream and
// snapshotting the state just before input index snapAt (the base the
// original-state replicas replay from; snapAt < 0 disables the snapshot,
// as for the last chunk of a bounded stream). The pool serves the
// snapshot clone from retired state buffers; outBuf, when it has the
// room, is the buffer the returned outputs are accumulated into (the
// caller transfers ownership). It returns the outputs, the snapshot (nil
// if disabled) and the final state. With squash non-nil, a cost-free run
// checks it before each input and stops once it is set: fewer outputs
// than inputs say how far the run got.
func (c *chunkRun) processChunk(chunk []Input, snapAt int, s State, label string, cat trace.Category, outBuf []Output, squash *atomic.Bool) ([]Output, State, State) {
	ex, p := c.ex, c.prog
	c.sub = c.rng.Sub(label)
	var snapshot State
	outs := outBuf[:0]
	if cap(outBuf) < len(chunk) {
		outs = make([]Output, 0, len(chunk))
	}
	ex.SetCat(cat)
	// On a cost-discarding executor, which runs no gang, the per-input
	// cost model feeds nothing: Update itself is the work.
	if costFree(ex) {
		for i, in := range chunk {
			if squash != nil && squash.Load() {
				break
			}
			if i == snapAt {
				snapshot = c.pool.Clone(s)
				c.countState()
			}
			var out Output
			s, out = p.Update(s, in, &c.sub)
			outs = append(outs, out)
		}
		return outs, snapshot, s
	}
	for i, in := range chunk {
		if i == snapAt {
			snapshot = c.pool.Clone(s)
			c.countState()
			ex.Copy(p.StateBytes(), ex.Loc(), p.Name()+".snap")
			ex.SetCat(cat)
		}
		uw := p.UpdateCost(in, s)
		var out Output
		s, out = p.Update(s, in, &c.sub)
		c.g.Run(ex, uw, cat)
		outs = append(outs, out)
	}
	return outs, snapshot, s
}

// originalStates produces the set of original states for the chunk's
// boundary: its own final state plus the configured replicas, each
// re-running the last window inputs from the snapshot with fresh
// nondeterminism drawn from rnd (Fig. 5, cores 0–2). When the replicas
// exist is the substrate's business. On a simulated machine each gets a
// thread of its own, now (spawnReplicas), and the snapshot is retired.
// On a cost-free executor the set is [final]: the chunk keeps the
// snapshot, the window and rnd as its replica seed, and the boundary
// builds the replicas (buildReplicas) only when the speculative state
// misses final. The comparison wave checks final first and stops at the
// first match, and RNG substreams are derived from rnd by label, so a
// replica built then is the state it would have been now, inspected in
// the same place. dst, when it has the room, is the buffer the set is
// returned in.
func (c *chunkRun) originalStates(window []Input, snapshot, final State, rnd *rng.Stream, dst []State) []State {
	extra := c.extra
	if snapshot == nil {
		extra = 0
	}
	origs := dst[:0]
	if cap(dst) < 1+extra {
		origs = make([]State, 0, 1+extra)
	}
	origs = append(origs, final)
	switch {
	case extra == 0:
	case costFree(c.ex):
		c.seed = replicaSeed{snapshot: snapshot, window: window, rnd: rnd}
		return origs
	default:
		origs = c.spawnReplicas(window, snapshot, rnd, origs)
	}
	c.pool.Release(snapshot)
	return origs
}

// replicaSeed is what a boundary's deferred replicas are built from: the
// snapshot the chunk took window inputs before its end, that window, and
// the stream the replicas derive their substreams from (the chunk's
// worker stream, or its recovery's). It lives in the chunkRun whose run
// produced the lineage, and a nil snapshot means nothing is deferred.
type replicaSeed struct {
	snapshot State
	window   []Input
	rnd      *rng.Stream
}

// deferred reports whether the lineage c's run produced still lacks its
// replicas.
func (c *chunkRun) deferred() bool { return c.seed.snapshot != nil }

// seedReorig reports whether the deferred replicas derive from the
// recovery stream rather than the worker stream: whether the lineage
// came from a re-execution.
func (c *chunkRun) seedReorig() bool { return c.seed.rnd == &c.reorig }

// reseed restores a replica seed a checkpoint carried into c, bound to
// the chunk whose lineage it is: the replicas then derive from the same
// stream, worker or recovery, as that chunk's own would have.
func (c *chunkRun) reseed(snapshot State, window []Input, reorig bool) {
	rnd := &c.rng
	if reorig {
		c.reorig = c.rng.Sub("reorig")
		rnd = &c.reorig
	}
	c.seed = replicaSeed{snapshot: snapshot, window: window, rnd: rnd}
}

// replicas builds the deferred replicas onto origs[:1] (origs[0] is
// final) as originalStates would have built them on the owning context:
// a pool clone of the snapshot each, replaying the window with
// rnd.SubN("replica", i). The pool serves
// the clones from retired state buffers; the runtime retires them back
// via StatePool.ReleaseReplicas once the boundary has been validated.
func (c *chunkRun) replicas(origs []State) []State {
	sd := &c.seed
	origs = origs[:1]
	for i := 0; i < c.extra; i++ {
		sr := c.pool.Clone(sd.snapshot)
		c.countState()
		c.sub = sd.rnd.SubN("replica", i)
		origs = append(origs, replay(c.ex, c.prog, sr, sd.window, &c.sub, trace.CatOrigStates))
	}
	return origs
}

// dropSeed retires the replica seed: its replicas have been built, or the
// boundary was resolved without them.
func (c *chunkRun) dropSeed() {
	c.pool.Release(c.seed.snapshot)
	c.seed = replicaSeed{}
}

// matchAnyWave is the runtime's state comparison (§II-B): it reports
// whether spec matches at least one of the original states, charging one
// comparison per state inspected and stopping at the first match, and
// returns the number of comparisons charged: original states inspected
// before the first match, or all of them on a miss — the count the event
// stream reports per EvValidated.
func matchAnyWave(ex Exec, p Program, origs []State, spec State) (bool, int) {
	ex.SetCat(trace.CatCompare)
	for i, o := range origs {
		ex.Compute(p.CompareCost())
		if p.Match(o, spec) {
			return true, i + 1
		}
	}
	return false, len(origs)
}
