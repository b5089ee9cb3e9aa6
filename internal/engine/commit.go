package engine

import "sync"

// committed is the commit frontier's view of the last committed chunk:
// the lineage state the next chunk is validated against and, on
// mispeculation, recovered from. run is the chunk run that produced the
// lineage, holding the seed of the replicas it deferred until a boundary
// needs them; a capture encodes the seed.
type committed struct {
	final State
	origs []State
	run   *chunkRun
}

// frontier is the ordered commit frontier: a reorder buffer that puts
// worker results back into input order, and the committed lineage the
// §II-B commit protocol applies them against. It is a role, not a
// goroutine. A worker that delivers a record while no other worker holds
// the role takes it, applies every record that has arrived in order, and
// gives it back (deliver). One holder at a time is what orders the
// commits, so the lineage needs no lock of its own; mu only hands
// records and the role from one worker to the next.
type frontier struct {
	mu sync.Mutex
	// pending is the reorder buffer: a record that arrived ahead of its
	// turn waits at the index it lives at.
	pending []*chunk
	// held says a worker holds the role. A frontier that stopped keeps it
	// held for good, so no later deliverer applies anything.
	held bool

	// The holder's alone, and the reaper's once every worker has exited.
	next       int // the first chunk not yet applied
	prev       committed
	prevInputs []Input // the last applied chunk's inputs, or the snapshot's window
}

// init places the frontier before chunk 0, or at the snapshot frontier of
// a resumed session.
func (f *frontier) init(p *Pipeline) {
	f.pending = make([]*chunk, len(p.records))
	rs := p.resume
	if rs == nil || rs.next == 0 {
		return
	}
	// The decoded lineage stands in for the last committed chunk's result,
	// and its run is bound to that chunk and holds its replica seed, if
	// the snapshot carried one. So the first boundary is validated against
	// the exact states the uninterrupted session would have held, and
	// builds the replicas only on a miss, as that session would have. The
	// snapshot's window stands in for that chunk's inputs, so a halt before
	// anything new commits re-captures the resume point.
	f.next, f.prevInputs = rs.next, rs.prevWindow
	run := &chunkRun{}
	run.bind(&p.proto, p.ex, rs.next-1, -1)
	if rs.seed != nil {
		run.reseed(rs.seed, rs.prevWindow, rs.reorig)
	}
	f.prev = committed{final: rs.lineage[0], origs: rs.lineage, run: run}
}

// deliver hands a speculated record to the frontier. Under mu it parks
// the record in the reorder buffer, which is the hand-over from its
// worker to whoever applies it. If no worker holds the frontier role, the
// caller takes it and applies records in input order until the next one
// has not arrived; a record that arrives meanwhile is seen before the
// role is given back, because both happen under mu.
func (p *Pipeline) deliver(ck *chunk) {
	f := &p.front
	mask := len(f.pending) - 1
	f.mu.Lock()
	f.pending[ck.j&mask] = ck
	if f.held {
		f.mu.Unlock()
		return
	}
	f.held = true
	for {
		at := f.next & mask
		r := f.pending[at]
		if r == nil {
			f.held = false
			f.mu.Unlock()
			return
		}
		f.pending[at] = nil
		f.mu.Unlock()
		if !p.apply(r) {
			return
		}
		f.mu.Lock()
	}
}

// apply commits one record at the frontier and advances it. A panic
// there — in the protocol, a sink or a snapshot observer — fails the
// session at SiteCommit, and apply returns false like any other stop.
func (p *Pipeline) apply(r *chunk) (ok bool) {
	defer p.recoverCommit()
	f := &p.front
	if !p.applyCommit(r) {
		return false
	}
	f.prevInputs = r.inputs
	f.next++
	return true
}

// recoverCommit is the frontier's fault boundary: it turns a recovered
// panic into the session's terminal FaultError. Defer it directly.
func (p *Pipeline) recoverCommit() {
	if r := recover(); r != nil {
		p.fail(&ChunkFault{Chunk: -1, Site: SiteCommit, Panic: r, Stack: stack()})
	}
}

// haltSnapshot captures the frontier of a halted session that drained
// cleanly, one last time: that capture is its migration point. The reaper
// calls it after every worker, and with them the role, has gone.
func (p *Pipeline) haltSnapshot() {
	defer p.recoverCommit()
	f := &p.front
	p.ckpt.finalize(f.next, f.prevInputs, &f.prev)
}

// applyCommit decides one chunk at the frontier through the protocol's
// commit step (attempt.go): the committed predecessor's run validates its
// boundary, building the replicas it deferred if the comparison misses
// its final state, and the chunk commits or aborts and re-executes in
// place from the last committed state. A result whose worker exhausted
// its retry budget carries no speculative copy; it misses its boundary
// and is degraded the same way. Then the frontier emits the chunk's
// outputs. applyCommit returns false if the context was canceled or the
// session failed terminally.
func (p *Pipeline) applyCommit(r *chunk) bool {
	j, prev := r.j, &p.front.prev
	ok := r.fault == nil
	if j > 0 {
		var fault *ChunkFault
		if ok, fault = prev.run.boundary(p.ctx, &prev.origs, r.spec); fault != nil {
			p.fail(fault)
			return false
		}
	}
	// Whatever the run reports from here on, the frontier does. Recovery
	// re-executes the chunk on the worker holding the role, serializing the
	// pipeline for the chunk's length — exactly the mispeculation cost the
	// paper's loss decomposition charges.
	r.worker = -1
	if fault := r.settle(p.ctx, ok, r.fault, r.final, r.origs, r.recoverAttempt); fault != nil {
		p.fail(fault)
		return false
	}
	// prev aliases the record's original-state buffer and its run, whose
	// seed the next boundary builds from and a capture encodes; the record
	// outlives its turn as predecessor (newRecords).
	oldFinal := prev.final
	prev.final, prev.origs, prev.run = r.final, r.origs, &r.chunkRun
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
