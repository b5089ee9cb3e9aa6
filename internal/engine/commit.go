package engine

import "gostats/internal/ring"

// committed is the commit frontier's view of the last committed chunk:
// the lineage state the next chunk is validated against and, on
// mispeculation, recovered from. origFPs caches the original states'
// fingerprint lanes for the next boundary's comparison wave. run is the
// chunk run that produced the lineage, holding the seed of the replicas
// it deferred until a boundary or a capture needs them.
type committed struct {
	final   State
	origs   []State
	origFPs []uint64
	run     *chunkRun
}

// commit is the ordered commit stage: it reorders worker results into
// input order and applies the §II-B commit protocol chunk by chunk. It is
// the only stage that touches the true (committed) lineage, so it needs
// no locks — order is enforced structurally.
func (p *Pipeline) commit() {
	defer close(p.out)
	defer func() {
		if r := recover(); r != nil {
			p.fail(&FaultError{Fault: &ChunkFault{
				Chunk: -1, Site: SiteCommit, Panic: r, Stack: stack()}})
		}
	}()

	// The reorder buffer: a record that arrived ahead of its turn waits
	// at the index it lives at.
	pending := make([]*chunk, len(p.records))
	mask := len(pending) - 1
	next := 0
	var prev committed
	var prevInputs []Input // committed predecessor's chunk inputs
	if rs := p.resume; rs != nil {
		// Resume at the snapshot frontier: the decoded lineage stands in
		// for the last committed chunk's result, so the first boundary is
		// validated against the exact states the uninterrupted session
		// would have held. It is complete, so its run defers nothing.
		next = rs.next
		prev.run = &chunkRun{proto: &p.proto, ex: p.ex}
		if len(rs.lineage) > 0 {
			prev.final = rs.lineage[0]
			prev.origs = rs.lineage
			prev.origFPs = p.fingerprints(nil, rs.lineage)
		}
	}
	for {
		ck, err := p.results.Pop(p.ctx.Done())
		if err != nil {
			// ring.ErrClosed: workers are done and the ring is drained;
			// everything dispatched has been committed in order. On a
			// halted session that clean drain IS the migration point:
			// capture the frontier one last time.
			// ring.ErrCanceled: the run was abandoned or failed.
			if err == ring.ErrClosed && p.ckpt != nil && p.halted.Load() {
				p.ckpt.finalize(next, prevInputs, &prev)
			}
			return
		}
		pending[ck.j&mask] = ck
		for {
			at := next & mask
			r := pending[at]
			if r == nil {
				break
			}
			pending[at] = nil
			if !p.applyCommit(r, &prev) {
				return
			}
			prevInputs = r.inputs
			next++
		}
	}
}

// applyCommit validates, commits or recovers one chunk at the frontier
// and emits its outputs. The comparison wave runs here, on the side that
// commits (§II-B), with the fingerprint lanes the workers cached; the
// replicas the predecessor's worker deferred are built here if the wave
// misses its final state. A result whose worker exhausted its retry
// budget is degraded here: the chunk abandons its (dead) speculation and
// re-executes sequentially from the last committed state, exactly like a
// mispeculation abort. applyCommit returns false if the context was
// canceled or the session failed terminally.
func (p *Pipeline) applyCommit(r *chunk, prev *committed) bool {
	j := r.j
	ok := r.fault == nil
	if j > 0 {
		if r.fault == nil {
			v, fault := prev.run.validateLineage(p.ctx, &prev.origs, prev.origFPs, r.spec, r.specFP, r.fpOK)
			if fault != nil {
				p.fail(&FaultError{Fault: fault})
				return false
			}
			ok = v.ok
			p.emit(Event{Kind: EvValidated, Chunk: j, Worker: -1,
				N: v.n, Matched: v.ok, Start: v.start, Dur: v.dur})
		}
		// The boundary is resolved either way: the predecessor's replica
		// originals, built or not, and this chunk's published speculative
		// copy are dead. prev.origs[0] stays live — it is prev.final, the
		// recovery state. (A faulted result was scrapped worker-side; its
		// spec is nil.)
		prev.run.resolved(prev.origs)
		p.pool.Release(r.spec)
	}
	if !ok {
		p.aborts.Add(1)
		if r.fault != nil {
			p.degraded.Add(1)
			p.emit(Event{Kind: EvDegraded, Chunk: j, Worker: -1, N: r.fault.Attempt})
		}
		p.emit(Event{Kind: EvAborted, Chunk: j, Worker: -1})
		// The speculative run's states — its final (origs[0]) and its
		// replicas, built or a seed — are dead. (Faulted results carry
		// none.)
		r.releaseRun(r.final, r.origs)
		if fault := r.recoverChunk(prev.final); fault != nil {
			p.fail(&FaultError{Fault: fault})
			return false
		}
		// Refresh the fingerprint cache for the next boundary's wave: the
		// lanes the worker cached were the dead run's.
		r.origFPs = p.fingerprints(r.origFPs, r.origs)
	} else {
		p.commits.Add(1)
		p.emit(Event{Kind: EvCommitted, Chunk: j, Worker: -1})
	}
	// prev aliases the record's original-state and fingerprint buffers and
	// its run, whose seed the next boundary or a capture builds from; the
	// record outlives its turn as predecessor (newRecords). Whatever the
	// run reports from here on, the frontier does.
	oldFinal := prev.final
	prev.final, prev.origs, prev.origFPs, prev.run = r.final, r.origs, r.origFPs, &r.chunkRun
	r.worker = -1
	// The old frontier state has served as recovery base for the last
	// time; retire it. (nil at chunk 0 — Release is nil-tolerant.)
	p.pool.Release(oldFinal)

	t1 := p.now()
	for _, out := range r.outs {
		// A consumer that keeps up leaves room in the buffer: a plain
		// non-blocking send, no selectgo. Only a full buffer needs the
		// two-way wait.
		select {
		case p.out <- out:
		default:
			select {
			case <-p.ctx.Done():
				return false
			case p.out <- out:
			}
		}
		p.outputs.Add(1)
	}
	p.emit(Event{Kind: EvOutputs, Chunk: j, Worker: -1,
		N: len(r.outs), Start: t1, Dur: p.since(t1)})
	p.resolved++
	// Checkpoint bookkeeping sits after the outputs are downstream: a
	// snapshot must never cover outputs the consumer has not been offered.
	if p.ckpt != nil {
		p.ckpt.onCommit(j, r.inputs, r.outs, prev, ok)
	}

	// Feed the outcome window: this both opens one speculation slot for
	// the producer and, in commit order, drives adaptive chunk sizing. It
	// comes last, because it is also what lets the producer refill the
	// predecessor's record (newRecords). The ring's capacity exceeds the
	// window's maximum backlog, so this push parks only if the run is
	// being torn down.
	if err := p.outcomes.Push(p.ctx.Done(), ok); err != nil {
		return false
	}
	return true
}
