package engine

import "runtime"

// worker is one member of the speculative worker pool: it pulls dispatched
// chunks, executes them on NativeExec out of commit order, and delivers
// each to the frontier, applying the frontier itself when no other worker
// is (deliver). slotID identifies the pool slot for event attribution
// (Recorder maps it to a trace thread).
func (p *Pipeline) worker(slotID int) {
	for {
		ck, err := p.store.jobs.Pop(p.ctx.Done())
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
// fault and the copy, if one was published; the commit frontier degrades
// the chunk to sequential re-execution from the last committed state.
// With a sink attached, the run's events are held for the verdict.
//
// Unlike the batch worker, a streaming chunk never knows it is last, so
// it always takes the snapshot its replicas would replay from. In process
// the replicas stay a seed in the record until the successor's boundary
// misses the final state; a session's final chunk never builds them.
func (ck *chunk) speculate(slotID int) {
	p := ck.p
	ck.worker = slotID
	ck.held = ck.ev
	if p.cfg.Runner != nil {
		// Executor failures — a dead worker process, a reply that would
		// not parse — are SiteProc faults of the same discipline.
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
	reply, err := p.cfg.Runner.RunChunk(p.ctx, ChunkRequest{
		Chunk: ck.j, Attempt: ck.n, Window: ck.prevWindow, Inputs: ck.inputs})
	if err != nil {
		return err
	}
	ck.outs, ck.final, ck.origs = reply.Outs, reply.Final, reply.Origs
	ck.publish(reply.Spec)
	ck.speculated(len(ck.inputs))
	return nil
}

// localAttempt is one in-process speculative attempt. The speculative
// copy is published once: a retry regenerates the state the body runs
// from and leaves the copy, which is the frontier's by then, alone.
func (ck *chunk) localAttempt() error {
	ck.scrap() // whatever a faulted attempt left behind
	s, spec := ck.start(ck.initState, ck.prevWindow, ck.pub.Load() != int64(ck.j))
	ck.publish(spec)
	ck.outs, ck.final, ck.origs = ck.finish(s, ck.inputs, false, ck.outs, ck.origs)
	return nil
}

// publish hands the chunk's speculative copy, if it has one, to the
// frontier, and takes the role if it is free (deliver), to decide the
// boundary before the chunk at once if it is decidable: a body whose
// boundary missed then never starts.
func (ck *chunk) publish(spec State) {
	if spec == nil {
		return
	}
	ck.spec = spec
	ck.pub.Store(int64(ck.j))
	ck.p.deliver(nil)
}

// reportRun reports the chunk's speculative run at its verdict ok: the
// events its worker held — or, on an abort, one EvSquashed in their place,
// timed by the body's event — then the boundary's EvValidated.
func (ck *chunk) reportRun(ok bool) {
	h := ck.ev
	if h == nil {
		return
	}
	if ok {
		for _, e := range h.ev[:h.n] {
			ck.emit(e)
		}
	} else {
		sq := Event{Kind: EvSquashed, Chunk: ck.j, Worker: ck.worker, N: len(ck.inputs)}
		for _, e := range h.ev[:h.n] {
			if e.Kind == EvBody {
				sq.Ran, sq.Start, sq.Dur = e.N, e.Start, e.Dur
			}
		}
		ck.emit(sq)
	}
	if ck.verdict.Kind == EvValidated {
		ck.emit(ck.verdict)
	}
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
// failed, but not a published copy, which is the frontier's. States lost
// mid-phase (a snapshot, a half-built replica) are left to the garbage
// collector — correctness never depends on the pool.
func (ck *chunk) scrap() {
	ck.releaseRun(ck.final, ck.origs)
	ck.clearResult()
}

// clearResult empties the record's result, keeping the buffers of its
// outputs and original states for the next run to fill, and retires a
// replica seed no boundary consumed and the events of a run no verdict
// reported.
func (ck *chunk) clearResult() {
	ck.outs, ck.final, ck.origs = ck.outs[:0], nil, ck.origs[:0]
	if ck.ev != nil {
		ck.ev.n = 0
	}
	ck.dropSeed()
}
