package engine

import (
	"context"
	"sync/atomic"
	"time"

	"gostats/internal/rng"
	"gostats/internal/trace"
)

// This file is the one copy of the STATS chunk protocol (§II-B, Fig. 5):
// the speculative attempt (alternative producer → published speculative
// copy → chunk body → original states), the recovery attempt, the fault
// discipline around both, and the commit step — the boundary (the timed
// comparison, which builds the replicas a cost-free executor deferred
// when it needs them, and the retirement of what it leaves dead) and the
// settlement (commit, or abort and recovery), with the session's
// commit/abort tallies and its terminal-error latch. The simulated batch
// body (batch.go), the streaming pipeline (worker.go, commit.go) and the
// out-of-process worker (ChunkWorker) all run these; they differ only in
// how chunks map to threads and where results park.
//
// Determinism: every RNG substream is derived purely from (seed, program,
// chunk index) — root = New(seed).Derive("stats:"+name), per chunk
// root.DeriveN("worker", j), and labels off that — so an attempt's
// products are a pure function of (session, chunk index, window, inputs),
// whichever runtime, worker or process computes them and however many
// faulted attempts preceded it.

// proto is the session-scoped part of the protocol: what every chunk of
// one session shares. Both runtimes embed one.
type proto struct {
	prog Program
	root *rng.Stream
	pool *StatePool
	sink Sink     // nil: no events, and no clock reads
	inj  Injector // prog's fault injector, if it carries one

	lookback, extra int

	states, threads, faults, retries atomic.Int64
	commits, aborts, degraded        atomic.Int64

	// The terminal-error latch: the first fault fail records wins, and stop
	// — a pipeline's cancel, nil on the simulated machine — tears the
	// session's stages down. It is one word, not a sync.Once beside an
	// atomic.Value: a Pipeline embeds proto, and with 24 bytes more its
	// per-session allocation moves from the 768 B size class to 896 B.
	failure atomic.Pointer[FaultError]
	stop    func()
}

func (pr *proto) init(p Program, seed uint64, lookback, extra int, sink Sink) {
	pr.prog = p
	pr.root = rng.New(seed).Derive("stats:" + p.Name())
	pr.pool = NewStatePool(p)
	pr.sink = sink
	pr.inj, _ = p.(Injector)
	pr.lookback, pr.extra = lookback, extra
}

// emit delivers e to the attached sink, if any.
func (pr *proto) emit(e Event) {
	if pr.sink != nil {
		pr.sink.Event(e)
	}
}

// now reads the wall clock only when timing is being collected.
func (pr *proto) now() time.Time {
	if pr.sink == nil {
		return time.Time{}
	}
	//statslint:allow detpath instrumentation helper: value only feeds Event timing via since()
	return time.Now()
}

// since converts a phase start from now() into a duration.
func (pr *proto) since(t0 time.Time) time.Duration {
	if pr.sink == nil || t0.IsZero() {
		return 0
	}
	//statslint:allow detpath instrumentation helper: durations land in Event fields, never in outputs
	return time.Since(t0)
}

// fail records fault, which fault tolerance could not absorb, as the
// session's terminal error (the first one wins) and stops the session.
func (pr *proto) fail(fault *ChunkFault) {
	if pr.failure.CompareAndSwap(nil, &FaultError{Fault: fault}) && pr.stop != nil {
		pr.stop()
	}
}

// failErr returns the terminal error recorded by fail, or nil.
func (pr *proto) failErr() error {
	if e := pr.failure.Load(); e != nil {
		return e
	}
	return nil
}

// countState and countThread are the accounting hooks the chunk
// primitives report through.
func (pr *proto) countState()  { pr.states.Add(1) }
func (pr *proto) countThread() { pr.threads.Add(1) }

// initial builds the program's initial state — chunk 0's true start
// state. The derivation is pure, so a rebuilt state equals the dispatched
// one.
func (pr *proto) initial() State { return pr.prog.Initial(pr.root.Derive("init")) }

// window returns the last min(lookback, len) inputs of chunk: the inputs
// replayed both by the chunk's original-state replicas and by its
// successor's alternative producer.
func (pr *proto) window(chunk []Input) []Input {
	k := pr.lookback
	if k > len(chunk) {
		k = len(chunk)
	}
	return chunk[len(chunk)-k:]
}

// chunkRun is one chunk's view of the protocol: where it executes, the
// RNG substreams every attempt re-derives from, and the attempt in
// progress. Events it emits carry worker as their worker slot. The
// streams are embedded by value (rng.Sub), so a chunkRun that lives in
// storage its runtime already owns — the pipeline keeps one per chunk
// record — costs no allocation per chunk.
type chunkRun struct {
	*proto
	ex     Exec
	g      *gang // the chunk's original-TLP gang; nil unless ex charges cost
	j      int
	worker int
	// sub is the substream of the phase executing — "fresh", "altprod",
	// "body" or "reexec", then one "replica" after the other — derived
	// from the chunk's worker stream (stream). The phases of one attempt
	// run in sequence on the owning context, so one slot serves them all.
	sub rng.Stream

	// seed is what the replicas of the lineage this run produced are
	// built from, while a cost-free executor defers them (originalStates).
	// The boundary that validates against the lineage builds or drops it.
	seed replicaSeed

	// The attempt in progress (arm). opened holds its start, in the
	// Start of the event that closes it.
	n      int
	opened Event
	site   FaultSite // protocol phase executing, for fault attribution

	// doomed is set once the boundary before the chunk has missed while
	// its speculative body may still run: a cost-free body stops at its
	// next input (processChunk). held, when non-nil, keeps the speculative
	// run's events for the chunk's verdict instead of emitting them.
	doomed atomic.Bool
	held   *heldEvents
}

// heldEvents is what one speculative attempt reports — its body, snapshot,
// original states and the attempt as a whole — kept until the chunk's
// verdict in storage the runtime already owns.
type heldEvents struct {
	ev [4]Event
	n  int
}

// report emits e, or holds it for the chunk's verdict.
func (c *chunkRun) report(e Event) {
	if h := c.held; h != nil {
		if h.n < len(h.ev) {
			h.ev[h.n] = e
			h.n++
		}
		return
	}
	c.emit(e)
}

// bind points c at chunk j of pr's session, executing on ex as worker.
func (c *chunkRun) bind(pr *proto, ex Exec, j, worker int) {
	c.proto, c.ex, c.g, c.j, c.worker, c.held = pr, ex, nil, j, worker, nil
	c.doomed.Store(false)
}

// stream returns the chunk's worker stream, or with reorig its
// recovery's: the parents of every substream the chunk's phases draw
// from. Both are derived from, never drawn from, so the chunk re-derives
// them where it needs them instead of keeping them.
func (c *chunkRun) stream(reorig bool) rng.Stream {
	w := c.root.SubN("worker", c.j)
	if reorig {
		return w.Sub("reorig")
	}
	return w
}

// arm begins attempt n at site, with a fresh clock.
func (c *chunkRun) arm(n int, site FaultSite) {
	c.n, c.site = n, site
	c.opened = Event{Start: c.now()}
}

// retry is the engine's fault discipline: it runs fn as attempt 0, 1, …
// of the chunk under panic isolation until one completes, reporting each
// fault (a panic, or an error fn returns) as EvFault and re-attempting at
// once. It returns nil on success, or the last fault once MaxRetries
// re-attempts are spent or ctx ends — what to degrade to is the caller's
// decision.
func (c *chunkRun) retry(ctx context.Context, site FaultSite, fn func() error) *ChunkFault {
	for n := 0; ; n++ {
		c.arm(n, site)
		fault, err := runProtected(c.j, n, &c.site, fn)
		if fault == nil && err != nil {
			fault = &ChunkFault{Chunk: c.j, Site: c.site, Attempt: n, Panic: err}
		}
		if fault == nil || ctx.Err() != nil {
			// Done — or the run is being torn down, and there is nobody
			// left to report to or retry for.
			return fault
		}
		c.faults.Add(1)
		c.emit(Event{Kind: EvFault, Chunk: c.j, Worker: c.worker, N: n, M: int(fault.Site)})
		if n >= MaxRetries {
			return fault
		}
		c.retries.Add(1)
		c.emit(Event{Kind: EvRetry, Chunk: c.j, Worker: c.worker, N: n + 1})
	}
}

// start is the first half of a speculative attempt: it produces the
// state the chunk body will run from. Chunk 0 uses the dispatched initial
// state (rebuilt when absent, or consumed by a faulted attempt); every
// later chunk runs the alternative producer over the predecessor's
// lookback window (§III-B "Generating speculative states") and, with
// wantSpec, clones the result for the boundary validation. The caller
// parks the clone where its runtime validates — the simulated batch body
// publishes it at once, to be checked while the body runs — then calls
// finish.
func (c *chunkRun) start(initial State, prevWindow []Input, wantSpec bool) (s, spec State) {
	if c.j == 0 {
		injectAt(c.inj, SiteAltProducer, 0, c.n, nil)
		if initial == nil || c.n > 0 {
			initial = c.initial()
			c.countState()
		}
		return initial, nil
	}
	t0 := c.now()
	s = c.speculativeState(prevWindow)
	// The injector sees the produced state before it is cloned: a
	// corrupted speculative state poisons the published copy and the body
	// run together, so boundary validation catches it.
	s = injectAt(c.inj, SiteAltProducer, c.j, c.n, s)
	c.emit(Event{Kind: EvAltProduced, Chunk: c.j, Worker: c.worker,
		N: len(prevWindow), Start: t0, Dur: c.since(t0)})
	if wantSpec {
		t1 := c.now()
		spec = c.pool.Clone(s)
		c.countState()
		if !costFree(c.ex) {
			c.ex.Copy(c.prog.StateBytes(), c.ex.Loc(), c.prog.Name()+".spec")
		}
		c.emit(Event{Kind: EvSpecPublished, Chunk: c.j, Worker: c.worker, Start: t1, Dur: c.since(t1)})
	}
	return s, spec
}

// finish is the second half of a speculative attempt: the chunk body
// from s, then — unless the chunk is known to be the last of a bounded
// run — the original states its successor will be validated against
// (origs[0] is final; replicas a cost-free executor defers stay a seed in
// c). outBuf and origBuf, when they have the room, are the buffers the
// outputs and the original states are returned in. A body squashed by
// doomed returns fewer outputs than inputs, and origs is [final].
func (c *chunkRun) finish(s State, inputs []Input, last bool, outBuf []Output, origBuf []State) (outs []Output, final State, origs []State) {
	c.site = SiteBody
	s = injectAt(c.inj, SiteBody, c.j, c.n, s)
	t0 := c.now()
	outs, snapshot, final := c.process(s, inputs, last, false, outBuf)
	c.report(Event{Kind: EvBody, Chunk: c.j, Worker: c.worker, N: len(outs), Start: t0, Dur: c.since(t0)})
	if len(outs) < len(inputs) {
		// The boundary before the chunk missed while the body ran: nobody
		// will read this lineage. The snapshot goes, and the partial final
		// state alone stands in for the original states the abort retires.
		// The orig-states fault site is passed all the same, so which
		// planned faults fire does not depend on when the squash came.
		c.site = SiteOrigStates
		injectAt(c.inj, SiteOrigStates, c.j, c.n, nil)
		c.pool.Release(snapshot)
		return outs, final, append(origBuf[:0], final)
	}
	if !last {
		c.site = SiteOrigStates
		injectAt(c.inj, SiteOrigStates, c.j, c.n, nil)
		origs = c.origStates(inputs, snapshot, final, false, origBuf)
	}
	c.speculated(len(inputs))
	return outs, final, origs
}

// speculated reports the end of a successful worker-side attempt.
func (c *chunkRun) speculated(inputs int) {
	c.report(Event{Kind: EvSpeculated, Chunk: c.j, Worker: c.worker,
		N: inputs, Start: c.opened.Start, Dur: c.since(c.opened.Start)})
}

// reexec is a recovery attempt (§III-E): it re-runs the chunk from a
// copy of the true state the committed predecessor produced (nil for
// chunk 0, whose true start state is a rebuilt initial state) and
// regenerates the original states. srcLoc is the locality hint of the
// thread that owns trueFinal.
func (c *chunkRun) reexec(trueFinal State, srcLoc int, inputs []Input, last bool, outBuf []Output, origBuf []State) (outs []Output, final State, origs []State) {
	injectAt(c.inj, SiteReexec, c.j, c.n, nil)
	var s State
	if trueFinal != nil {
		s = c.pool.Clone(trueFinal)
	} else {
		s = c.initial()
	}
	c.countState()
	if !costFree(c.ex) {
		c.ex.Copy(c.prog.StateBytes(), srcLoc, c.prog.Name()+".recover")
	}
	outs, snapshot, final := c.process(s, inputs, last, true, outBuf)
	c.emit(Event{Kind: EvReexec, Chunk: c.j, Worker: c.worker, N: len(inputs), Start: c.opened.Start, Dur: c.since(c.opened.Start)})
	if !last {
		origs = c.origStates(inputs, snapshot, final, true, origBuf)
	}
	return outs, final, origs
}

// process runs the chunk's updates from s, snapshotting the state
// window-length inputs before the end (the base the original-state
// replicas replay from) unless the chunk is last.
func (c *chunkRun) process(s State, inputs []Input, last, recovery bool, outBuf []Output) (outs []Output, snapshot, final State) {
	snapAt := -1
	if !last {
		snapAt = len(inputs) - len(c.window(inputs))
	}
	label, cat, squash := "body", trace.CatChunkWork, &c.doomed
	if recovery {
		label, cat, squash = "reexec", trace.CatReexec, nil
	}
	return c.processChunk(inputs, snapAt, s, label, cat, outBuf, squash)
}

// origStates generates the boundary's original states from the snapshot
// process took — final plus the configured replicas, each replaying the
// chunk's window from snapshot with fresh nondeterminism drawn from the
// worker stream, or with reorig the recovery's (Fig. 5, cores 0–2) — or,
// on a cost-free executor, final and the seed the replicas are built from
// if the boundary needs them.
func (c *chunkRun) origStates(inputs []Input, snapshot, final State, reorig bool, origBuf []State) []State {
	if snapshot != nil {
		c.report(Event{Kind: EvSnapshot, Chunk: c.j, Worker: c.worker})
	}
	win := c.window(inputs)
	t0 := c.now()
	origs := c.originalStates(win, snapshot, final, reorig, origBuf)
	c.report(Event{Kind: EvOrigStates, Chunk: c.j, Worker: c.worker,
		N: len(origs) - 1, M: len(win), Start: t0, Dur: c.since(t0)})
	return origs
}

// buildReplicas builds the deferred replicas of the lineage c's run
// produced onto *origs (origs[0] is final) under the engine's fault
// discipline, as an attempt at SiteOrigStates on the context that needs
// them, and retires the seed. It returns the EvOrigStates reporting the
// attempt that succeeded, for the caller to emit where its timeline has
// room, or the fault that ended the last one: the lineage cannot be
// completed, and the session fails.
func (c *chunkRun) buildReplicas(ctx context.Context, origs *[]State) (Event, *ChunkFault) {
	m := len(c.seed.window)
	fault := c.retry(ctx, SiteOrigStates, func() error {
		*origs = c.replicas(*origs)
		return nil
	})
	c.dropSeed()
	return Event{Kind: EvOrigStates, Chunk: c.j, Worker: c.worker,
		N: len(*origs) - 1, M: m, Start: c.opened.Start, Dur: c.since(c.opened.Start)}, fault
}

// validate runs the comparison wave for the boundary after c's run on
// c's executor — the engine's one timed comparison, made by the side
// that commits — and returns the EvValidated that reports it. The
// verdict and inspected count are pure functions of the states; the wall
// time rides along in the event only.
func (c *chunkRun) validate(origs []State, spec State) Event {
	t0 := c.now()
	ok, n := matchAnyWave(c.ex, c.prog, origs, spec)
	return Event{Kind: EvValidated, Chunk: c.j + 1, Worker: c.worker,
		N: n, Matched: ok, Start: t0, Dur: c.since(t0)}
}

// validateLineage is the comparison wave for the boundary after c's run,
// against the lineage that run produced (§II-B): the final state first,
// and only if spec misses it, the replicas — built from the seed when
// they were deferred — from index 1 on. The returned EvValidated carries
// the single wave's verdict and inspected count over the whole set. The
// wave is reported as one interval and a build as the interval after it,
// together no longer than the two took.
func (c *chunkRun) validateLineage(ctx context.Context, origs *[]State, spec State) (Event, *ChunkFault) {
	v := c.validate(*origs, spec)
	if v.Matched || !c.deferred() {
		return v, nil
	}
	built, fault := c.buildReplicas(ctx, origs)
	if fault != nil {
		return v, fault
	}
	rest := c.validate((*origs)[1:], spec)
	v.Matched, v.N, v.Dur = rest.Matched, v.N+rest.N, v.Dur+rest.Dur
	built.Start = v.Start.Add(v.Dur)
	c.emit(built)
	return v, nil
}

// boundary decides the boundary after c's run (§II-B): the successor's
// published speculative copy spec against the lineage c's run produced.
// It returns the verdict as the EvValidated that reports it, for the
// caller to emit: at once, or with the successor's speculative events at
// its verdict. A successor that published nothing (spec nil: its retry
// budget ran out first) misses without a comparison, and the event is
// zero. Then the boundary is resolved either way: the replicas, built or
// a seed, and spec are dead; origs[0], c's final state, lives on as the
// successor's recovery state. A fault means the replicas could not be
// built, and the session fails.
func (c *chunkRun) boundary(ctx context.Context, origs *[]State, spec State) (v Event, fault *ChunkFault) {
	if spec != nil {
		if v, fault = c.validateLineage(ctx, origs, spec); fault != nil {
			return v, fault
		}
	}
	c.resolved(*origs)
	c.pool.Release(spec)
	return v, nil
}

// settle commits chunk c on its boundary's verdict ok, or aborts it
// (§III-E): the speculative run's states — final and origs, or none when
// fault, the spent retry budget that degraded the chunk, scrapped them —
// are retired, and recovery re-executes the chunk from the true state
// under the engine's fault discipline. A returned fault means every
// recovery attempt faulted too, and the session must fail.
func (c *chunkRun) settle(ctx context.Context, ok bool, fault *ChunkFault, final State, origs []State, recovery func() error) *ChunkFault {
	if ok {
		c.commits.Add(1)
		c.emit(Event{Kind: EvCommitted, Chunk: c.j, Worker: c.worker})
		return nil
	}
	c.aborts.Add(1)
	if fault != nil {
		c.degraded.Add(1)
		c.emit(Event{Kind: EvDegraded, Chunk: c.j, Worker: c.worker, N: fault.Attempt})
	}
	c.emit(Event{Kind: EvAborted, Chunk: c.j, Worker: c.worker})
	c.releaseRun(final, origs)
	return c.retry(ctx, SiteReexec, recovery)
}

// releaseRun retires everything a dead chunk run produced: its original
// states, of which origs[0] is the final state — or, when the run
// generated none (the last chunk of a bounded run), final alone — and the
// seed of replicas it never built.
func (c *chunkRun) releaseRun(final State, origs []State) {
	if origs == nil {
		c.pool.Release(final)
	}
	for _, o := range origs {
		c.pool.Release(o)
	}
	c.dropSeed()
}

// resolved retires what a resolved boundary leaves dead of the lineage
// c's run produced: the replicas, built or still a seed. origs[0] is the
// run's final state and follows the committed lineage instead.
func (c *chunkRun) resolved(origs []State) {
	c.pool.ReleaseReplicas(origs)
	c.dropSeed()
}
