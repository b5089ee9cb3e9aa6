package engine

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"gostats/internal/checkpoint"
	"gostats/internal/freelist"
	"gostats/internal/ring"
)

// This file is the streaming side of the engine: the STATS speculation
// protocol over an unbounded input stream instead of a fixed slice.
//
// The simulated batch body (SimScheduler) partitions a complete input slice into
// chunks and spawns one thread per chunk. The workloads the paper parallelizes —
// video frames, point blocks, sample batches — are really streams, so the
// pipeline rebuilds the protocol as stages:
//
//		Push (fills the chunk's record) → [jobs] → worker pool → deliver
//		  ▲                                                        │
//		  └─────────── outcome window (backpressure) ──────────────┤
//		                                                           ▼
//		   frontier role (one worker at a time): ordered commit /
//		   abort+re-exec → Outputs
//
//	  - Push groups inputs into fixed-size chunks on its caller's
//	    goroutine and dispatches each with the previous chunk's lookback
//	    window (assemble.go). There is no ingest queue and no
//	    assembler stage between the caller and the worker pool.
//	  - Workers execute the chunk's speculative attempt (attempt.go) on
//	    NativeExec: the alternative producer replays the predecessor's
//	    window from a cold state, and the chunk body runs from that state,
//	    snapshotting it where the original-state replicas would replay
//	    from. The replicas themselves are deferred: the record keeps the
//	    snapshot as their seed.
//	  - The commit frontier (commit.go) is a role a worker takes, not a
//	    goroutine: the worker that delivers a chunk while no other holds
//	    the role applies, in input order, every chunk that has arrived. It
//	    validates each chunk's speculative start state against the
//	    committed predecessor's original states (matchAnyWave) — its final
//	    state first, and the replicas, built from the seed, only if that
//	    misses — and on mispeculation re-executes the chunk in place from
//	    the true predecessor state — exactly the §II-B protocol, so outputs
//	    are committed in input order with batch-identical semantics. A
//	    boundary is decided as soon as it is decidable: once the
//	    predecessor is applied and the chunk's worker has published its
//	    speculative copy, whichever of the two comes second decides it
//	    (commit.go, decide). On a miss the chunk's body, if it still runs,
//	    stops at its next input and the record comes back to the frontier
//	    to be re-executed.
//
// Backpressure: the producer may run at most a window of chunks — two a
// worker — ahead of the commit frontier; when the window is full, the
// Push that would start the next chunk blocks until the frontier moves.
// Chunk boundaries are a function of the producer's own input sequence,
// which makes them — and therefore the whole committed output sequence —
// a pure function of (seed, input sequence), independent of goroutine
// scheduling. Same seed, same inputs: byte-identical committed outputs,
// even under -race.
//
// Every protocol action is reported on the engine event stream, to
// StreamConfig.Sink: the same events a batch run emits, so /metrics,
// overhead counters and trace synthesis need no pipeline-private
// aggregation. With no sink attached nothing is emitted and no clock is
// read; StreamStats comes from the protocol's and the pipeline's own
// atomics either way.
//
// Lifecycle: Close ends the input stream and drains the pipeline; cancel
// the context to abandon it. A session runs Workers+1 goroutines — the
// pool, which also applies the frontier, and a reaper — and Wait blocks
// until every one has exited, so no run can leak. Outputs closes once the
// last worker has exited.

// StreamConfig parameterizes a streaming pipeline.
type StreamConfig struct {
	// ChunkSize is the number of inputs per chunk.
	ChunkSize int
	// Lookback is k, the alternative-producer replay length (§II-B).
	Lookback int
	// ExtraStates is the number of additional original states a chunk
	// boundary compares against once the final state has missed. They are
	// built then, at the commit frontier, from the snapshot the chunk's
	// worker kept; a checkpoint capture encodes that snapshot instead.
	ExtraStates int
	// Workers is the number of goroutines doing protocol work: each runs
	// whole chunks — alternative producer and body — and, one at a time,
	// applies the commit frontier to the chunks that have arrived. It also
	// sets the speculation window: at most 2*Workers chunks are in flight
	// past the commit frontier. Default DefaultWorkers.
	Workers int
	// Seed selects one nondeterministic execution, exactly as in Config.
	Seed uint64
	// Plan, when non-empty, fixes the sizes of the first len(Plan) chunks
	// explicitly, overriding ChunkSize for those indices (later chunks
	// fall back to it). StreamScheduler uses it to reproduce Partition's
	// boundaries exactly, which is what makes a streamed bounded slice
	// byte-identical to a simulated batch run. Backpressure is unaffected.
	Plan []int
	// Sink, when non-nil, receives the pipeline's engine events: a Metrics
	// collector (pipelines may share one), a Counters aggregate, a Recorder
	// synthesizing a trace for critical-path analysis, or several through
	// Tee. Leaving it nil skips all event timing on the hot path.
	Sink Sink
	// Checkpoint enables periodic commit-frontier snapshots (checkpoint.go).
	Checkpoint CheckpointConfig
	// Resume, when non-nil, restores this pipeline from a snapshot instead
	// of starting fresh; the snapshot's session shape overrides the fields
	// above (checkpoint.go).
	Resume *ResumeConfig
	// Runner, when non-nil, executes chunks through an external executor
	// (e.g. a pool of statsworker processes) instead of the in-process
	// worker path; executor failures are retried as SiteProc faults and
	// degrade back to the in-process path (checkpoint.go, worker.go).
	Runner ChunkRunner
}

// DefaultWorkers is the worker count a StreamConfig with Workers == 0
// runs. Whatever reports or scales by a session's core count before the
// pipeline exists reads it here.
const DefaultWorkers = 4

func (c StreamConfig) withDefaults() StreamConfig {
	if c.Workers == 0 {
		c.Workers = DefaultWorkers
	}
	return c
}

// WithShape returns c with the session shape snap carries: the fields a
// pipeline resumed from snap adopts in place of its own.
func (c StreamConfig) WithShape(snap *checkpoint.Snapshot) StreamConfig {
	c.ChunkSize, c.Lookback, c.ExtraStates = snap.ChunkSize, snap.Lookback, snap.ExtraStates
	c.Workers, c.Seed = snap.Workers, snap.Seed
	return c
}

// window is the speculation window: the most chunks dispatched past the
// commit frontier, two a worker — one executing, one queued behind it, so
// a worker that finishes never waits for the frontier to open its next
// slot. Everything sized by chunks in flight — the outcome wait in
// sizeFor, the jobs and outcomes rings, the record array and the reorder
// buffer — reads it. Chunk sizes and snapshots do not.
func (c StreamConfig) window() int { return 2 * c.Workers }

// Validate reports configuration errors.
func (c StreamConfig) Validate() error {
	if c.ChunkSize < 1 {
		return fmt.Errorf("stream: ChunkSize must be >= 1, got %d", c.ChunkSize)
	}
	if c.Lookback < 1 {
		return fmt.Errorf("stream: Lookback must be >= 1, got %d", c.Lookback)
	}
	if c.ExtraStates < 0 {
		return fmt.Errorf("stream: ExtraStates must be >= 0, got %d", c.ExtraStates)
	}
	if c.Workers < 0 {
		return fmt.Errorf("stream: Workers must be >= 0, got %d", c.Workers)
	}
	for i, n := range c.Plan {
		if n < 1 {
			return fmt.Errorf("stream: Plan[%d] must be >= 1, got %d", i, n)
		}
	}
	if c.Checkpoint.EveryCommits < 0 {
		return fmt.Errorf("stream: negative Checkpoint.EveryCommits")
	}
	if c.Checkpoint.EveryCommits > 0 && c.Checkpoint.Codec == nil {
		return fmt.Errorf("stream: Checkpoint.EveryCommits needs a Checkpoint.Codec")
	}
	return nil
}

// StreamStats summarizes one pipeline run.
type StreamStats struct {
	Inputs  int64 // inputs ingested
	Outputs int64 // outputs committed
	Chunks  int64 // chunks dispatched
	Commits int64 // speculations committed
	Aborts  int64 // speculations aborted and re-executed
	States  int64 // computational states materialized
	Reused  int64 // state clones served from retired buffers (StatePool)

	Faults   int64 // chunk faults isolated (panics, dead worker processes)
	Retries  int64 // faulted attempts re-attempted
	Degraded int64 // chunks degraded down the executor ladder (remote→local, speculative→sequential)

	Checkpoints int64 // commit-frontier snapshots emitted
}

// ErrClosed is returned by Push after Close or Halt.
var ErrClosed = errors.New("stream: pipeline closed")

// chunk is one in-flight chunk of a pipeline: the job Push hands to the
// worker pool, the worker's speculative result, and the protocol view
// (chunkRun) that executes both. The records are not allocated per chunk:
// chunk j lives in Pipeline.records[j&mask], lap after lap, and travels
// through the jobs ring and the frontier's reorder buffer by pointer.
//
// A record has one owner at a time. The producer fills the job half —
// Push writes inputs in place — and binds the run, until the jobs push;
// the worker that pops it fills the result half, until deliver parks it
// in the reorder buffer under the frontier's lock; the frontier — whichever
// worker holds the role when its turn comes — validates it, commits it or
// recovers it in place, and emits its outputs. The ring and the lock are
// the hand-overs. Nothing is shared in between but what is already
// immutable: the successor's alternative producer replays the tail of
// inputs (prevWindow), which nobody writes between the record's dispatch
// and its next lap. The record stays the frontier's while the committed
// lineage aliases its origs and run, that is until its successor has been
// applied: by then the boundary has built the replicas from the run's
// seed, or retired the seed unread.
//
// One thing changes hands early: the speculative copy. The worker
// publishes spec by storing the chunk's index in pub, and from then on
// the copy is the frontier's — no retry of the worker releases or
// replaces it — so the boundary before the chunk can be decided while the
// body runs (commit.go, decide). The frontier writes the verdict into the
// record's verdict, which the worker never touches, and on a miss
// sets the run's doomed flag, which the body reads between inputs; the
// record itself comes back to the frontier through deliver as always.
// pub holds a chunk index, not a flag the next lap's dispatch resets, so
// a copy published a lap ago is never taken for this lap's.
//
// The buffers — inputs, outs, origs — are the record's own: each lap
// re-slices them, and they grow once to the largest chunk seen. They
// outlive the session too: the record array is part of the storage a
// session that has ended hands to the next one (sessionStore), and a
// record arrives there as a fresh one that keeps only its buffers.
type chunk struct {
	chunkRun // run.j is the session-monotonic chunk index
	p        *Pipeline

	// The job.
	inputs     []Input // the chunk's inputs
	prevWindow []Input // last k inputs of the previous chunk; nil for chunk 0
	initState  State   // chunk 0 only: the program's initial state

	// The result. The snapshot the worker took rides in the run's replica
	// seed, and origs holds the final state alone until a boundary builds
	// the replicas (a remote reply carries them built). A
	// result whose worker exhausted its retry budget carries only the
	// fault and, if it got that far, the published copy; the frontier
	// degrades it to an in-place sequential re-execution.
	spec  State // speculative start state (clone), the frontier's once published
	pub   atomic.Int64
	outs  []Output
	final State
	origs []State
	fault *ChunkFault // retries exhausted; all other result fields are dead

	// verdict is the verdict on the boundary before the chunk, as the
	// EvValidated that reports it (a zero Kind when the chunk published
	// no copy: a miss with no comparison), and its Chunk is the chunk it
	// was reached for: a verdict a lap ago names another. The frontier
	// role's alone.
	verdict Event

	// ev holds the speculative run's events for the chunk's verdict; nil
	// without a sink. A session with a sink allocates one for each record,
	// once.
	ev *heldEvents
}

// recordsFor returns the length of the record array for a speculation
// window: a power of two (chunk j lives at j&mask) of at least window+2
// records. Push reaches record j only after sizeFor(j) has consumed
// outcome j-window-1. The chunk the record held a lap ago is j-len <=
// j-window-2, so its successor has been applied to the end — the outcome
// push is applyCommit's last act — and that was the last read of anything
// in it: of its inputs by the successor's alternative producer and by the
// checkpoint tracker, of its origs and replica seed through the committed
// lineage (the tracker encodes the seed). The same holds for the storage
// an input points to: PushFrom hands the input a slot held a lap ago to
// the build that refills the slot, which may decode the next line into it
// (bench.ReusingCodec), so no program may keep an input past Update
// (StateDependence.Update). Nothing but that arithmetic guards the reuse;
// the race detector over TestRecordReuseStress, which ingests wire lines
// decoded into those spares, is its net.
func recordsFor(window int) int {
	n := 2
	for n < window+2 {
		n <<= 1
	}
	return n
}

// sessionStore is the storage a session's skeleton runs on: the record
// array with the buffers each record grew, the held-event storage, the
// frontier's reorder buffer and the jobs and outcomes rings. NewStream
// takes one from stores, or allocates one when none of the session's
// window is there; a session that has fully ended hands its store back
// (Pipeline.end) with every record a fresh one but for its buffers,
// both rings empty and open, and nothing of the session referenced.
//
// The hops between goroutines are lock-free rings (internal/ring), not
// channels: the outcome window is single-producer single-consumer, jobs
// is multi-consumer on the worker-pool side. A worker hands its result
// to the frontier under the frontier's lock instead (commit.go). See the
// package doc in internal/ring for the memory-model and parking
// discipline.
type sessionStore struct {
	window   int
	records  []chunk      // chunk j in records[j&mask]; see recordsFor
	evs      []heldEvents // one a record; nil until a session with a sink takes the store
	pending  []*chunk     // the frontier's reorder buffer
	jobs     *ring.MPMC[*chunk]
	outcomes *ring.SPSC[bool]
}

// stores holds the session stores no session runs on, keyed by window.
// A store is as large as its window and the largest chunks its records
// met, so only those of a window up to keptWindow are put back, with the
// buffers of a record that met chunks larger than keptChunk dropped.
var stores freelist.List[sessionStore]

const (
	keptWindow = 32
	keptChunk  = 256
)

// takeStore returns a store for a speculation window of window chunks and
// binds its records to p, their event storage included when p has a sink.
func takeStore(p *Pipeline, window int) *sessionStore {
	s := stores.Get(window)
	if s == nil {
		n := recordsFor(window)
		s = &sessionStore{
			window:  window,
			records: make([]chunk, n),
			pending: make([]*chunk, n),
			// jobs holds one slot per in-flight chunk: chunks in flight are
			// bounded by the outcome window, so the producer never spins or
			// parks on this hop.
			jobs: ring.NewMPMC[*chunk](window + 1),
			// outcomes is the speculation window: the producer consumes
			// exactly max(0, j-window) outcomes before sizing chunk j, which
			// both bounds chunks in flight and keeps sizing deterministic.
			// Capacity window+2 exceeds the maximum unconsumed backlog, so
			// the frontier never parks here.
			outcomes: ring.NewSPSC[bool](window + 2),
		}
	}
	if p.sink != nil && s.evs == nil {
		s.evs = make([]heldEvents, len(s.records))
	}
	for i := range s.records {
		s.records[i].p = p
		if p.sink != nil {
			s.records[i].ev = &s.evs[i]
		}
	}
	return s
}

// putStore resets s, which no goroutine of its last session touches any
// more, and hands it to the next session of its window.
func putStore(s *sessionStore) {
	if s.window > keptWindow {
		return
	}
	for i := range s.records {
		s.records[i].reset()
	}
	clear(s.evs)
	clear(s.pending)
	s.jobs.Reset()
	s.outcomes.Reset()
	stores.Put(s.window, s)
}

// reset restores every field of the record to a fresh record's value but
// its buffers, which it empties: no lap identity — the published copy's
// chunk index in pub, the verdict's Chunk, doomed, the replica seed —
// and no input, output or state of the session that used it. The next
// session numbers its chunks from 0 again, so a pub or a verdict left
// over would be taken for its own chunk j's, and an input left in a slot
// would be handed to its PushFrom as a spare that may still be the last
// caller's.
func (ck *chunk) reset() {
	*ck = chunk{inputs: kept(ck.inputs), outs: kept(ck.outs), origs: kept(ck.origs)}
}

// kept returns buf emptied, for a record of the next session to grow
// from, or nil if buf has grown past keptChunk.
func kept[T any](buf []T) []T {
	if cap(buf) > keptChunk {
		return nil
	}
	clear(buf[:cap(buf)])
	return buf[:0]
}

// record returns the record chunk j lives in.
func (p *Pipeline) record(j int) *chunk {
	recs := p.store.records
	return &recs[j&(len(recs)-1)]
}

// Pipeline is a running streaming STATS execution. Create with NewStream,
// feed with Push, finish with Close, consume Outputs until closed, then
// Wait. StreamScheduler drives a Pipeline over a bounded slice through
// the Scheduler interface.
type Pipeline struct {
	proto  // the protocol this pipeline schedules (attempt.go)
	cfg    StreamConfig
	ex     Exec
	ctx    context.Context // derived: canceled by the caller, a fault, or teardown
	outer  context.Context // the caller's context, for abandonment reporting
	cancel context.CancelFunc
	// halt is a child of ctx that Halt cancels too: done means "dispatch
	// nothing more", whichever of the two ended the session. The producer
	// parks on it; workers, the frontier among them, park on ctx, because a
	// halted session still drains what it announced.
	halt       context.Context
	haltCancel context.CancelFunc

	// store holds the rings, the records and the reorder buffer until
	// the session has ended at both its ends, the producer's Close and the
	// reaper (end). Only the public output stream is a channel.
	store *sessionStore
	out   chan Output
	front frontier // the commit frontier, applied by one worker at a time

	// mu is the boundary lock, taken at chunk boundaries and at the
	// session's two ends only. It makes the producer's "announce + jobs
	// push" one step against Halt's jobs close, and that close one step
	// against the store's hand-back (end), and it guards ended.
	mu     sync.Mutex
	prod   producer // the chunk being filled (assemble.go)
	ended  uint8    // the ends of the session done with its storage (end)
	closed atomic.Bool
	done   chan struct{} // closed by the reaper, after every other goroutine exited

	// Checkpointed-session machinery (checkpoint.go).
	halted atomic.Bool
	resume *resumeState
	ckpt   *ckptTracker

	inputs      atomic.Int64
	outputs     atomic.Int64
	checkpoints atomic.Int64

	chunks   atomic.Int64
	resolved int64 // chunks whose EvOutputs went out: the frontier's, then the reaper's
}

// NewStream starts a pipeline for prog. The context governs the whole
// run: cancel it to abandon the stream (Push fails, stages exit, Outputs
// closes). All protocol execution happens on NativeExec.
func NewStream(ctx context.Context, prog Program, cfg StreamConfig) (*Pipeline, error) {
	if cfg.Resume != nil && cfg.Resume.Snap != nil {
		// The snapshot's session shape wins wholesale: resuming under
		// different parameters would move chunk boundaries and break the
		// byte-identity the resume contract promises.
		cfg = cfg.WithShape(cfg.Resume.Snap)
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	var rs *resumeState
	if cfg.Resume != nil {
		var err error
		if rs, err = buildResume(prog, cfg); err != nil {
			return nil, err
		}
	}
	if ctx == nil {
		ctx = context.Background()
	}
	// The pipeline owns a derived context so a terminal fault can tear the
	// stages down itself, not only the caller.
	outer := ctx
	ctx, cancel := context.WithCancel(outer)

	p := &Pipeline{
		cfg:    cfg,
		ex:     NewNativeExec(),
		ctx:    ctx,
		outer:  outer,
		cancel: cancel,
		// Two chunks of committed outputs may wait for the consumer before
		// the frontier does.
		out:  make(chan Output, 2*cfg.ChunkSize),
		done: make(chan struct{}),
	}
	p.halt, p.haltCancel = context.WithCancel(ctx)
	p.init(prog, cfg.Seed, cfg.Lookback, cfg.ExtraStates, cfg.Sink)
	p.stop = cancel // a terminal fault tears every stage down promptly
	p.store = takeStore(p, cfg.window())
	p.resume = rs
	p.front.init(p)
	if rs != nil {
		// Resume at the snapshot frontier: the first chunk to fill is the
		// first uncommitted one and its window was decoded from the
		// snapshot. Every chunk before it has committed, so none of its
		// outcomes is still to come: the window is empty.
		p.prod = producer{j: rs.next, consumed: rs.next, prevWindow: rs.prevWindow}
	}
	if cfg.Checkpoint.enabled() {
		p.ckpt = &ckptTracker{p: p, cfg: cfg.Checkpoint}
		if rs != nil {
			p.ckpt.inputs = rs.inputs
		}
	}
	p.emit(Event{Kind: EvSessionStart, Chunk: -1, Worker: -1})

	var workers sync.WaitGroup
	workers.Add(cfg.Workers)
	for w := 0; w < cfg.Workers; w++ {
		w := w
		go func() {
			defer workers.Done()
			p.worker(w)
		}()
	}

	// The reaper waits out the last worker, and with it the last holder of
	// the frontier role. A halted session that drained — no fault, no
	// cancel, so the frontier applied every announced chunk — captures the
	// frontier one last time: that is its migration point. Then Outputs
	// closes, and the session ends on the event stream. An abandoned run
	// drops its in-flight chunks without resolving them; EvSessionEnd
	// carries their count, or each would leave a shared collector's
	// in-flight gauge drifted upward for good. The boundary lock waits out
	// a dispatch that passed its halt check before the session ended: no
	// chunk is announced after this read. Then the reaper is done with
	// the session's storage.
	go func() {
		defer close(p.done)
		defer p.cancel() // every stage has exited; release the context
		workers.Wait()
		if p.ckpt != nil && p.halted.Load() && p.ctx.Err() == nil {
			p.haltSnapshot()
		}
		close(p.out)
		p.mu.Lock()
		dropped := p.chunks.Load() - p.resolved
		p.mu.Unlock()
		p.emit(Event{Kind: EvSessionEnd, Chunk: -1, Worker: -1, N: int(dropped)})
		p.end(reaperEnded)
	}()
	return p, nil
}

// The two ends of a session, as bits of Pipeline.ended.
const (
	producerEnded uint8 = 1 << iota // Close has run: no Push touches the storage again
	reaperEnded                     // every worker has exited, and the reaper is done
)

// end records that one end of the session is done with its storage; once
// both are, it hands the storage to the next session of its shape. A
// session whose producer never calls Close keeps it, for the collector.
//
// Nothing of the session reads the storage by then: the workers, and with
// them the frontier role, have exited; the reaper has captured the
// frontier and emitted its last event; the producer has closed, and a
// Push after Close returns ErrClosed before it looks at a record. Halt
// closes the jobs ring under the boundary lock, under which the handle
// drops its references here: the handle outlives the session — Halted,
// CheckpointErr and the stats are read after Wait — and must not reach
// into storage another session runs on.
func (p *Pipeline) end(side uint8) {
	p.mu.Lock()
	s := p.store
	if p.ended |= side; p.ended != producerEnded|reaperEnded {
		s = nil
	} else {
		p.store = nil
		p.front.pending, p.front.prev, p.front.prevInputs = nil, committed{}, nil
		p.prod = producer{}
	}
	p.mu.Unlock()
	if s != nil {
		putStore(s)
	}
}

// endErr is why a session that stopped taking input did.
func (p *Pipeline) endErr() error {
	if err := p.failErr(); err != nil {
		return err
	}
	if p.halted.Load() {
		return ErrClosed
	}
	return p.ctx.Err()
}

// initialState builds chunk 0's start state — the only code of the
// program the producer side runs. A panic there has no worker to isolate
// it and no chunk to charge it to: it fails the session as a whole, with
// a structured error, instead of crashing the Push caller.
func (p *Pipeline) initialState() State {
	defer func() {
		if r := recover(); r != nil {
			p.fail(&ChunkFault{Chunk: -1, Site: SiteAssemble, Panic: r, Stack: stack()})
		}
	}()
	s := p.initial()
	p.countState()
	return s
}

// Outputs returns the committed outputs in input order. The channel
// closes when the stream has fully drained (after Close) or the context
// is canceled.
func (p *Pipeline) Outputs() <-chan Output { return p.out }

// Wait blocks until every pipeline goroutine has exited and returns the
// run's statistics, plus the terminal error if the run failed (a
// FaultError after fault tolerance exhausted) or the context's error if
// it was abandoned rather than drained.
func (p *Pipeline) Wait() (StreamStats, error) {
	<-p.done
	st := p.StatsSnapshot()
	if err := p.failErr(); err != nil {
		return st, err
	}
	// The reaper cancels the derived context even on clean drains; only
	// the caller's context says whether the run was abandoned.
	return st, p.outer.Err()
}

// StatsSnapshot returns the pipeline's counters at this instant; it may
// be called while the pipeline runs, from an event sink too.
func (p *Pipeline) StatsSnapshot() StreamStats {
	return StreamStats{
		Inputs:  p.inputs.Load(),
		Outputs: p.outputs.Load(),
		Chunks:  p.chunks.Load(),
		Commits: p.commits.Load(),
		Aborts:  p.aborts.Load(),
		States:  p.states.Load(),
		Reused:  p.pool.Stats().Reused,

		Faults:   p.faults.Load(),
		Retries:  p.retries.Load(),
		Degraded: p.degraded.Load(),

		Checkpoints: p.checkpoints.Load(),
	}
}
