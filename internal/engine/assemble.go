package engine

import "context"

// This file is the producer side of the pipeline. There is no assembler
// stage: Push groups inputs into the chunk's record on its caller's
// goroutine, attaches the previous chunk's lookback window (what the
// chunk's alternative producer will replay), and dispatches the chunk to
// the worker pool on its last input. The producer is the single owner of
// the outcome window that implements backpressure and the only writer of
// the online chunk-size controller.

// producer is the chunk being filled. It belongs to the one goroutine
// that calls Push and Close.
type producer struct {
	j          int     // index of the chunk being filled
	consumed   int     // commit outcomes consumed so far
	buf        []Input // record j's inputs, as long as the chunk; nil until its first input
	n          int     // inputs written into buf
	prevWindow []Input // the lookback window chunk j-1 left behind
}

// Push ingests one input on the caller's goroutine. The first input of a
// chunk sizes it, which blocks while the speculation window is full —
// that wait is the pipeline's backpressure — and the last one dispatches
// it. ctx bounds this one call; a call it cuts short consumed nothing and
// may be repeated.
//
// A session that has ended — its context canceled, a terminal fault, or
// Halt — stops taking input: Push returns the session's terminal error
// (the context's error, the FaultError, or ErrClosed after Halt) no
// later than the next chunk boundary, and no chunk is announced after it.
// Inputs accepted into a chunk that is never announced are dropped.
//
// Push and Close form the producer side of the pipeline and must not be
// called concurrently with each other; Halt may be called from anywhere.
func (p *Pipeline) Push(ctx context.Context, in Input) error {
	if p.closed.Load() {
		return ErrClosed
	}
	a := &p.prod
	if a.buf == nil {
		// Size the chunk when its first input arrives, not when its
		// predecessor is dispatched: Close must never wait on the window.
		size, err := p.sizeFor(ctx, a.j)
		if err != nil {
			return err
		}
		// With outcome j-window-1 consumed, record j is the producer's
		// (newRecords): fill its inputs in place.
		ck := p.record(a.j)
		if cap(ck.inputs) < size {
			ck.inputs = make([]Input, size)
		}
		a.buf = ck.inputs[:size]
	}
	a.buf[a.n] = in
	a.n++
	p.inputs.Add(1)
	p.emit(Event{Kind: EvIngest, Chunk: -1, Worker: -1, N: 1})
	if a.n < len(a.buf) {
		return nil
	}
	return p.dispatch()
}

// Close ends the input stream: the final partial chunk is flushed and the
// pipeline drains. Push returns ErrClosed afterwards. Close is
// idempotent.
func (p *Pipeline) Close() {
	if !p.closed.CompareAndSwap(false, true) {
		return
	}
	if p.prod.n > 0 {
		// No sizing decision is needed for the tail, so no outcome wait
		// either. A session that is already dead announces nothing; Wait
		// reports why.
		_ = p.dispatch()
	}
	p.jobs.Close()
}

// sizeFor decides chunk j's size. Before deciding it consumes commit
// outcomes until exactly max(0, j-window) have been seen. That wait is
// the speculation window — at most window chunks run past the commit
// frontier — and it is also what makes adaptive sizing deterministic:
// the decision for chunk j reads a fixed, scheduling-independent prefix
// of the outcome sequence, never "whatever has committed by now".
func (p *Pipeline) sizeFor(ctx context.Context, j int) (int, error) {
	a := &p.prod
	for need := j - p.cfg.window(); a.consumed < need; a.consumed++ {
		committed, ok := p.outcomes.TryPop()
		if !ok {
			t0 := p.now()
			var err error
			if committed, err = p.outcomes.Pop(ctx.Done(), p.halt.Done()); err != nil {
				if ctx.Err() != nil {
					return 0, ctx.Err()
				}
				return 0, p.endErr()
			}
			p.emit(Event{Kind: EvIngestWait, Chunk: -1, Worker: -1, Start: t0, Dur: p.since(t0)})
		}
		if p.ctl == nil {
			continue
		}
		p.mu.Lock() // Wait and StatsSnapshot may be reading the controller
		resized := p.ctl.Record(committed)
		p.mu.Unlock()
		if resized {
			p.emit(Event{Kind: EvResize, Chunk: j, Worker: -1, N: p.ctl.ChunkSize(), M: 1})
		}
	}
	if j < len(p.cfg.Plan) {
		return p.cfg.Plan[j], nil
	}
	if p.ctl != nil {
		return p.ctl.ChunkSize(), nil
	}
	return p.cfg.ChunkSize, nil
}

// dispatch hands the chunk being filled to the worker pool and starts the
// next one. Chunk 0 carries the program's initial state (the state the
// original sequential code starts from); every later chunk starts from an
// alternative-produced speculative state instead. On a session that has
// ended it announces nothing, drops the chunk, and returns the terminal
// error.
func (p *Pipeline) dispatch() error {
	a := &p.prod
	j, inputs := a.j, a.buf[:a.n]
	a.buf, a.n = nil, 0
	ck := p.record(j)
	ck.bind(&p.proto, p.ex, j, -1)
	ck.inputs, ck.prevWindow, ck.initState, ck.fault = inputs, a.prevWindow, nil, nil
	ck.clearResult()
	if j == 0 {
		ck.initState = p.initialState()
	}
	// The boundary lock makes "announce + jobs push" one step against
	// Halt's jobs close: an announced chunk is never dropped. The halt
	// check comes first and under the lock because a jobs push with room
	// never looks at a done channel — after a cancel, a fault or a halt
	// the chunk must not be announced at all.
	p.mu.Lock()
	if p.halt.Err() != nil {
		p.mu.Unlock()
		return p.endErr()
	}
	// Announce the chunk before a worker can see it, so that each chunk's
	// events reach the sinks in one order — producer, then worker, then
	// frontier — whatever the worker count. The jobs ring has a slot for
	// every chunk the window admits, so the push never waits.
	p.chunks.Add(1)
	p.emit(Event{Kind: EvChunk, Chunk: j, Worker: -1, N: len(inputs)})
	err := p.jobs.Push(p.halt.Done(), ck)
	p.mu.Unlock()
	if err != nil {
		return p.endErr()
	}
	// prevWindow aliases the tail of the dispatched record's inputs.
	a.prevWindow = p.window(inputs)
	a.j++
	return nil
}
