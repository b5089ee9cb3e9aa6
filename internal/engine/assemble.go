package engine

import "gostats/internal/ring"

// assemble is the chunk-assembly stage: it groups ingested inputs into
// chunks, attaches the previous chunk's lookback window (what the next
// chunk's alternative producer will replay), and dispatches jobs to the
// worker pool. It is the single owner of the online chunk-size controller
// and of the outcome window that implements backpressure.
func (p *Pipeline) assemble() {
	defer p.stages.Done()
	defer p.jobs.Close()
	// A panic here (e.g. the program's Initial) has no chunk to charge it
	// to; it fails the session as a whole — structured error, not a crash.
	//statslint:allow hotalloc session-scoped panic guard: the closure is built once per stage, not per input
	defer func() {
		if r := recover(); r != nil {
			p.fail(&FaultError{Fault: &ChunkFault{ //statslint:allow hotalloc panic path: boxes the fault at most once per session
				Chunk: -1, Site: SiteAssemble, Panic: r, Stack: stack()}})
		}
	}()

	j := 0        // next chunk index
	consumed := 0 // commit outcomes consumed so far
	var prevWindow []Input
	if rs := p.resume; rs != nil {
		// Resume at the snapshot frontier: the first chunk to assemble is
		// the first uncommitted one, its window was decoded from the
		// snapshot, and the outcomes preloaded into the ring stand in for
		// the ones the interrupted assembler had not consumed yet.
		j = rs.next
		consumed = rs.next - len(rs.pending)
		prevWindow = rs.prevWindow
	}

	size, ok := p.sizeFor(j, &consumed)
	if !ok {
		return
	}
	buf := p.slabs.takeIn(size)
	for {
		// Fill the chunk: drain whatever the ingest ring already holds in
		// one batched cursor move, then park until the rest of it is
		// buffered — one wake-up per chunk, not one per input.
		buf = buf[:len(buf)+p.in.PopBatch(buf[len(buf):size])]
		if len(buf) < size {
			// Park on down, not the context alone: Halt stops assembly here
			// with ErrCanceled, deliberately NOT the ErrClosed path below —
			// a halted session must not flush a partial chunk, because the
			// resumed session will re-read those inputs and re-derive the
			// boundary itself.
			err := p.in.Await(p.down, size-len(buf))
			if err == nil {
				continue
			}
			if err == ring.ErrClosed {
				// End of stream: flush the final partial chunk — the ring
				// holds less than the chunk still wants, so one move takes
				// it all. No sizing decision is needed for it, so no
				// outcome wait either.
				buf = buf[:len(buf)+p.in.PopBatch(buf[len(buf):size])]
				if len(buf) > 0 {
					p.dispatch(j, buf, prevWindow)
				}
			}
			return
		}
		if !p.dispatch(j, buf, prevWindow) {
			return
		}
		prevWindow = p.window(buf)
		j++
		if size, ok = p.sizeFor(j, &consumed); !ok {
			return
		}
		// The dispatched job owns buf now (and prevWindow aliases its
		// tail); start the next chunk on a recycled slab.
		buf = p.slabs.takeIn(size)
	}
}

// sizeFor decides chunk j's size. Before deciding it consumes commit
// outcomes until exactly max(0, j-window) have been seen. That wait is
// the speculation window — at most window chunks run past the commit
// frontier — and it is also what makes adaptive sizing deterministic:
// the decision for chunk j reads a fixed, scheduling-independent prefix
// of the outcome sequence, never "whatever has committed by now".
func (p *Pipeline) sizeFor(j int, consumed *int) (int, bool) {
	need := j - p.cfg.window()
	for *consumed < need {
		committed, err := p.outcomes.Pop(p.down)
		if err != nil {
			return 0, false
		}
		*consumed++
		if p.ctl == nil {
			continue
		}
		p.ctl.Record(committed)
		n, _, _ := p.ctl.Resizes()
		if delta := int64(n) - p.resizes.Load(); delta > 0 {
			p.resizes.Store(int64(n))
			p.emit(Event{Kind: EvResize, Chunk: j, Worker: -1,
				N: p.ctl.ChunkSize(), M: int(delta)})
		}
	}
	if j < len(p.cfg.Plan) {
		return p.cfg.Plan[j], true
	}
	if p.ctl != nil {
		return p.ctl.ChunkSize(), true
	}
	return p.cfg.ChunkSize, true
}

// dispatch hands one assembled chunk to the worker pool. Chunk 0 carries
// the program's initial state (the state the original sequential code
// starts from); every later chunk starts from an alternative-produced
// speculative state instead.
func (p *Pipeline) dispatch(j int, inputs, prevWindow []Input) bool {
	// Chunk j's record is free: the window let the assembler get here only
	// after chunk j-len's successor was applied (frontier.go).
	ck := p.fr.chunk(j)
	ck.bind(&p.proto, p.ex, nil, j, -1)
	ck.inputs, ck.prevWindow, ck.initState, ck.fault = inputs, prevWindow, nil, nil
	ck.clearResult()
	if j == 0 {
		ck.initState = p.initial()
		p.countState()
	}
	// Announce the chunk before a worker can see it, so that each chunk's
	// events reach the sinks in one order — assembler, then worker, then
	// frontier — whatever the worker count. A chunk announced but dropped by
	// a teardown in the push below is reconciled with the other in-flight
	// chunks of an abandoned run (see NewStream's janitor).
	p.chunks.Add(1)
	p.emit(Event{Kind: EvChunk, Chunk: j, Worker: -1, N: len(inputs)})
	return p.jobs.Push(p.ctx.Done(), ck) == nil
}
