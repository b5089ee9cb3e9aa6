package engine

import (
	"context"
	"runtime"
)

// worker is one member of the speculative worker pool: it pulls dispatched
// chunks, executes them on NativeExec out of commit order, and delivers
// each to the frontier, applying the frontier itself when no other worker
// is (deliver). slotID identifies the pool slot for event attribution
// (Recorder maps it to a trace thread).
func (p *Pipeline) worker(slotID int) {
	for {
		ck, err := p.jobs.Pop(p.ctx.Done())
		if err != nil {
			return
		}
		ck.speculate(slotID)
		p.deliver(ck)
		// Give up the processor before the next job. A goroutine this one
		// readied — the producer on an outcome, the Outputs consumer on a
		// send — waits in this processor's runnext slot until this one
		// blocks, and a worker with a job queued never blocks: without the
		// yield the serial stages sit runnable behind the next chunk and
		// the window drains in bursts. Which goroutine runs when is outside
		// the determinism contract; no committed byte depends on it.
		runtime.Gosched()
	}
}

// speculate runs the worker-side protocol for the chunk on pool slot
// slotID, down the executor ladder: the external executor when one is
// configured, then in-process — each rung under the engine's one retry
// discipline (chunkRun.retry), and byte-identical whichever succeeds.
// When the in-process budget exhausts too, the record carries only the
// fault; the commit frontier degrades the chunk to sequential
// re-execution from the last committed state.
//
// Unlike the batch worker, a streaming chunk never knows it is last, so
// it always takes the snapshot its replicas would replay from. In process
// the replicas stay a seed in the record until the successor's boundary
// misses the final state; a session's final chunk never builds them.
func (ck *chunk) speculate(slotID int) {
	p := ck.p
	ck.worker = slotID
	if p.cfg.Runner != nil {
		// Executor failures — a dead or wedged worker process, a reply that
		// would not parse — are SiteProc faults of the same discipline.
		fault := ck.retry(p.ctx, SiteProc, ck.remoteAttempt)
		if fault == nil {
			return
		}
		if p.ctx.Err() != nil {
			// The run is being torn down; report the chunk as faulted so
			// the frontier never sees half-filled remote state.
			ck.fault = fault
			return
		}
		// Out of remote attempts: degrade to in-process execution rather
		// than to the frontier — the chunk is still healthy, only its
		// executor is gone.
		p.degraded.Add(1)
		p.emit(Event{Kind: EvDegraded, Chunk: ck.j, Worker: slotID, N: fault.Attempt})
	}
	if ck.fault = ck.retry(p.ctx, SiteAltProducer, ck.localAttempt); ck.fault != nil {
		ck.scrap()
	}
}

// remoteAttempt is one speculative attempt through the external executor.
func (ck *chunk) remoteAttempt() error {
	p := ck.p
	ctx, cancel := p.ctx, context.CancelFunc(func() {})
	if p.pol.ChunkDeadline > 0 {
		ctx, cancel = context.WithTimeout(p.ctx, p.pol.ChunkDeadline)
	}
	reply, err := p.cfg.Runner.RunChunk(ctx, ChunkRequest{
		Chunk: ck.j, Attempt: ck.n, Window: ck.prevWindow, Inputs: ck.inputs})
	cancel()
	if err != nil {
		return err
	}
	ck.spec, ck.outs, ck.final, ck.origs = reply.Spec, reply.Outs, reply.Final, reply.Origs
	ck.speculated(len(ck.inputs))
	return nil
}

// localAttempt is one in-process speculative attempt.
func (ck *chunk) localAttempt() error {
	ck.scrap() // whatever a faulted attempt left behind
	var s State
	s, ck.spec = ck.start(ck.initState, ck.prevWindow, true)
	ck.outs, ck.final, ck.origs = ck.finish(s, ck.inputs, false, ck.outs, ck.origs)
	return nil
}

// recoverAttempt is one recovery attempt, made by the worker holding the
// commit frontier: it re-executes the chunk in place from the committed
// predecessor's final state, which the frontier's lineage holds until the
// chunk is applied, leaving the new outputs, final state and original
// states in the record. The speculative outputs and original states are
// dead on abort; their buffers are reused.
func (ck *chunk) recoverAttempt() error {
	ck.outs, ck.final, ck.origs = ck.reexec(ck.p.front.prev.final, -1, ck.inputs, false, ck.outs, ck.origs)
	return nil
}

// scrap retires the states a faulted attempt materialized before it
// failed. States lost mid-phase (a snapshot, a half-built replica) are
// left to the garbage collector — correctness never depends on the pool.
func (ck *chunk) scrap() {
	ck.pool.Release(ck.spec)
	ck.releaseRun(ck.final, ck.origs)
	ck.clearResult()
}

// clearResult empties the record's result, keeping the buffers of its
// outputs and original states for the next run to fill, and retires a
// replica seed no boundary consumed.
func (ck *chunk) clearResult() {
	ck.spec, ck.outs, ck.final, ck.origs = nil, ck.outs[:0], nil, ck.origs[:0]
	ck.dropSeed()
}
