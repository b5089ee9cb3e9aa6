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
// goroutine. A worker that delivers a record, or publishes a speculative
// copy, while no other worker holds the role takes it, applies every
// record that has arrived in order, decides a boundary that has become
// decidable, and gives it back (deliver). One holder at a time is what
// orders the commits, so the lineage needs no lock of its own; mu only
// hands records and the role from one worker to the next.
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
		run.seed = replicaSeed{snapshot: rs.seed, window: rs.prevWindow, reorig: rs.reorig}
	}
	f.prev = committed{final: rs.lineage[0], origs: rs.lineage, run: run}
}

// deliver hands a record to the frontier and takes the role if it is
// free. ck is a speculated record, which deliver parks in the reorder
// buffer under mu: the hand-over from its worker to whoever applies it.
// A worker that has just published its speculative copy delivers nil and
// parks nothing. If no worker holds the role, the caller takes it and
// applies records in input order until the next one has not arrived; a
// record that arrives meanwhile is seen before the role is given back,
// because both happen under mu. Before it gives the role back, the holder
// decides the next chunk's boundary if that chunk's copy is published
// (undecided). The publisher looks after it published, and the holder in
// the step that gives the role back, both under mu, so one of them sees
// the other's side: the boundary of a chunk whose copy is published after
// its predecessor was applied is decided before the chunk arrives.
func (p *Pipeline) deliver(ck *chunk) {
	f := &p.front
	mask := len(f.pending) - 1
	f.mu.Lock()
	if ck != nil {
		f.pending[ck.j&mask] = ck
	}
	if f.held {
		f.mu.Unlock()
		return
	}
	f.held = true
	for {
		at := f.next & mask
		r := f.pending[at]
		if r == nil {
			if d := p.undecided(); d != nil {
				f.mu.Unlock()
				if !p.decide(d) {
					return
				}
				f.mu.Lock()
				continue
			}
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

// undecided returns the record of the next chunk to apply if its boundary
// is decidable and not yet decided: the predecessor is applied, and the
// chunk's copy is published — in this lap of the record array, which pub
// tells apart from a copy a lap ago by its chunk index. The caller holds
// the role.
func (p *Pipeline) undecided() *chunk {
	j := p.front.next
	r := p.record(j)
	if j == 0 || r.pub.Load() != int64(j) || r.verdict.Chunk == j {
		return nil
	}
	return r
}

// decide decides the boundary before chunk r, whose predecessor is
// applied, on the worker holding the role (§II-B): r's published copy, or
// nothing if its worker never published one, against the committed
// lineage, whose run builds the replicas it deferred if the final state
// misses. The verdict, the EvValidated that reports it, stays in r for
// applyCommit to act on and report; on a miss, r's body is squashed if it still runs. The
// boundary is decided once a lap, either as soon as it is decidable or
// when r is applied, on the same states either way, so the verdict and
// what the lineage reports do not depend on when. A fault or a panic
// fails the session, and decide returns false like apply.
func (p *Pipeline) decide(r *chunk) (ok bool) {
	defer p.recoverCommit()
	var spec State
	if r.pub.Load() == int64(r.j) {
		spec, r.spec = r.spec, nil
	}
	prev := &p.front.prev
	v, fault := prev.run.boundary(p.ctx, &prev.origs, spec)
	if fault != nil {
		p.fail(fault)
		return false
	}
	r.verdict = v
	r.verdict.Chunk = r.j // a chunk that published no copy is decided too
	if !v.Matched {
		r.doomed.Store(true)
	}
	return true
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
// boundary, unless decide already has, building the replicas it deferred
// if the comparison misses its final state, and the chunk commits or
// aborts and re-executes in place from the last committed state. A result
// whose worker exhausted its retry budget aborts whatever its boundary
// says and is degraded the same way. Then the frontier emits the chunk's
// outputs. applyCommit returns false if the context was canceled or the
// session failed terminally.
func (p *Pipeline) applyCommit(r *chunk) bool {
	j, prev := r.j, &p.front.prev
	ok := r.fault == nil
	if j > 0 {
		if r.verdict.Chunk != j && !p.decide(r) {
			return false
		}
		ok = ok && r.verdict.Matched
	}
	// The speculative run is reported at its verdict, and whatever the run
	// reports from here on, the frontier does. Recovery re-executes the
	// chunk on the worker holding the role, serializing the pipeline for
	// the chunk's length — exactly the mispeculation cost the paper's loss
	// decomposition charges.
	r.reportRun(ok)
	r.worker, r.held = -1, nil
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
