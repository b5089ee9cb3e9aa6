package engine

import (
	"context"
	"fmt"
)

// worker is one member of the speculative worker pool: it pulls assembled
// chunks and executes them on NativeExec, out of commit order. slotID
// identifies the pool slot for event attribution (Recorder maps it to a
// trace thread).
func (p *Pipeline) worker(slotID int) {
	defer p.stages.Done()
	for {
		jb, err := p.jobs.Pop(p.ctx.Done())
		if err != nil {
			return
		}
		res := p.speculate(jb, slotID)
		// Publish the result to the commit frontier's validation slots,
		// then try to validate the boundaries it completes — with its
		// predecessor and, if the successor already ran, with that — on
		// this worker, off the commit stage's critical path. Publish
		// happens-before the results push, so the commit stage always
		// finds the slot occupied when it applies this chunk.
		p.fr.publish(res)
		p.prevalidate(jb.index, slotID)
		p.prevalidate(jb.index+1, slotID)
		if err := p.results.Push(p.ctx.Done(), res); err != nil {
			return
		}
	}
}

// speculate runs the worker-side protocol for one chunk down the executor
// ladder: the external executor when one is configured, then in-process —
// each rung under the engine's one retry discipline (chunkRun.retry), and
// byte-identical whichever succeeds. When the in-process budget exhausts
// too, the returned result carries only the fault; the commit frontier
// degrades the chunk to sequential re-execution from the last committed
// state.
//
// Unlike the batch worker, a streaming chunk never knows it is last, so
// original states are always generated; for a session's final chunk they
// go unused.
func (p *Pipeline) speculate(jb *job, slotID int) *result {
	j := jb.index
	c := p.chunk(p.ex, nil, j, slotID)
	res := &result{job: jb}
	if p.cfg.Runner != nil {
		// Executor failures — a dead or wedged worker process, a reply that
		// would not parse — are SiteProc faults of the same discipline.
		fault := c.retry(p.ctx, SiteProc, func() error {
			ctx, cancel := p.ctx, context.CancelFunc(func() {})
			if p.pol.ChunkDeadline > 0 {
				ctx, cancel = context.WithTimeout(p.ctx, p.pol.ChunkDeadline)
			}
			reply, err := p.cfg.Runner.RunChunk(ctx, ChunkRequest{
				Chunk: j, Attempt: c.n, Window: jb.prevWindow, Inputs: jb.inputs})
			cancel()
			if err != nil {
				return err
			}
			res.spec, res.outs, res.final, res.origs = reply.Spec, reply.Outs, reply.Final, reply.Origs
			p.cacheFingerprints(res)
			c.speculated(len(jb.inputs))
			return nil
		})
		if fault == nil {
			return res
		}
		if p.ctx.Err() != nil {
			// The run is being torn down; report the chunk as faulted so
			// the frontier never sees half-filled remote state.
			res.fault = fault
			return res
		}
		// Out of remote attempts: degrade to in-process execution rather
		// than to the frontier — the chunk is still healthy, only its
		// executor is gone.
		p.degraded.Add(1)
		p.emit(Event{Kind: EvDegraded, Chunk: j, Worker: slotID, N: fault.Attempt})
	}
	c.g = newGang(p.ex, fmt.Sprintf("%s-w%d", p.prog.Name(), j), p.cfg.InnerWidth, p.countThread)
	defer c.g.Close(p.ex)
	res.fault = c.retry(p.ctx, SiteAltProducer, func() error {
		p.scrap(res) // whatever a faulted attempt left behind
		var s State
		s, res.spec = c.start(jb.initial, jb.prevWindow, true)
		res.outs, res.final, res.origs = c.finish(s, jb.inputs, false, p.slabs.takeOut(len(jb.inputs)))
		// Cache the validation wave's fingerprint lanes while the states
		// are hot in cache.
		p.cacheFingerprints(res)
		return nil
	})
	if res.fault != nil {
		p.scrap(res)
	}
	return res
}

// recoverChunk re-executes a mispeculated or faulted chunk in place from
// the true state its committed predecessor produced. It runs at the commit
// frontier, serializing the pipeline for the chunk's length — exactly the
// mispeculation cost the paper's loss decomposition charges — and it is
// the last rung of the degradation ladder: a returned fault means every
// attempt faulted too, and the session must fail.
func (p *Pipeline) recoverChunk(r *result, trueFinal State) (outs []Output, final State, origs []State, fault *ChunkFault) {
	j := r.job.index
	g := newGang(p.ex, fmt.Sprintf("%s-x%d", p.prog.Name(), j), p.cfg.InnerWidth, p.countThread)
	defer g.Close(p.ex)
	c := p.chunk(p.ex, g, j, -1)
	fault = c.retry(p.ctx, SiteReexec, func() error {
		// The speculative outputs are dead on abort; reuse their slab.
		outs, final, origs = c.reexec(trueFinal, -1, r.job.inputs, false, r.outs)
		return nil
	})
	return outs, final, origs, fault
}

// scrap retires the states a faulted attempt materialized before it
// failed. States lost mid-phase (a snapshot, a half-built replica) are
// left to the garbage collector — correctness never depends on the pool.
func (p *Pipeline) scrap(res *result) {
	p.pool.Release(res.spec)
	p.pool.releaseRun(res.final, res.origs)
	res.spec, res.outs, res.final, res.origs = nil, nil, nil, nil
	res.specFP, res.origFPs, res.fpOK = 0, nil, false
}

// fingerprints returns the fingerprint lane of every state, nil when the
// program publishes none. The boundary comparisons reuse the cached lanes
// instead of recomputing them; they are pure functions of the states, so
// the validation result and inspected count are unchanged.
func (p *Pipeline) fingerprints(states []State) []uint64 {
	if p.fper == nil {
		return nil
	}
	fps := make([]uint64, len(states))
	for i, s := range states {
		fps[i] = p.fper.Fingerprint(s)
	}
	return fps
}

// cacheFingerprints fills res's fingerprint lanes from its states.
func (p *Pipeline) cacheFingerprints(res *result) {
	if p.fper != nil && res.spec != nil {
		res.specFP, res.fpOK = p.fper.Fingerprint(res.spec), true
	}
	res.origFPs = p.fingerprints(res.origs)
}
