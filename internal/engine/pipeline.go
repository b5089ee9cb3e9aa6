package engine

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"gostats/internal/autotune"
	"gostats/internal/checkpoint"
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
//	  - Push groups inputs into chunks on its caller's goroutine (fixed
//	    size, or retuned online from commit/abort feedback via
//	    autotune.Online) and dispatches each with the previous chunk's
//	    lookback window (assemble.go). There is no ingest queue and no
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
// Chunk-size decisions read only outcomes behind the frontier, and chunk
// boundaries are a function of the producer's own input sequence, which
// makes them — and therefore the whole committed output sequence — a
// pure function of (seed, input sequence), independent of goroutine
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
	// ChunkSize is the number of inputs per chunk (the initial size when
	// Adapt is enabled).
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
	// Adapt enables online chunk-size retuning from commit/abort feedback,
	// within a quarter to four times ChunkSize (autotune.Online).
	Adapt bool
	// Plan, when non-empty, fixes the sizes of the first len(Plan) chunks
	// explicitly, overriding ChunkSize and the adaptive controller for
	// those indices (later chunks fall back to them). StreamScheduler uses
	// it to reproduce Partition's boundaries exactly, which is what makes
	// a streamed bounded slice byte-identical to a simulated batch run. Backpressure and outcome consumption are unaffected.
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
	c.Workers, c.Seed, c.Adapt = snap.Workers, snap.Seed, snap.Adapt
	return c
}

// LargestChunk is the most inputs one chunk of a pipeline under c can
// hold: ChunkSize, every Plan entry and, with Adapt, the controller's
// ceiling of four times ChunkSize.
func (c StreamConfig) LargestChunk() int {
	n := c.ChunkSize
	for _, k := range c.Plan {
		n = max(n, k)
	}
	if c.Adapt {
		n = max(n, 4*c.ChunkSize)
	}
	return n
}

// window is the speculation window: the most chunks dispatched past the
// commit frontier. Everything sized by chunks in flight — the outcome
// wait in sizeFor, the jobs and outcomes rings, the record array and the
// reorder buffer, a snapshot's pending outcomes — reads it.
func (c StreamConfig) window() int { return checkpoint.Window(c.Workers) }

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
	Resizes int64 // online chunk-size changes
	States  int64 // computational states materialized
	Reused  int64 // state clones served from retired buffers (StatePool)

	Faults   int64 // chunk faults isolated (panics, dead worker processes)
	Retries  int64 // faulted attempts re-attempted
	Degraded int64 // chunks degraded down the executor ladder (remote→local, speculative→sequential)

	Checkpoints int64 // commit-frontier snapshots emitted

	// Trajectory is the online controller's chunk-size history (initial
	// size plus one point per resize), present only on adaptive sessions
	// after the pipeline drained. It flows into the serving trailer, so
	// load generators can record how autotune responded to the workload.
	Trajectory []autotune.SizeChange `json:"Trajectory,omitempty"`
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
// re-slices them, and they grow once to the largest chunk seen.
//
// A record is 504 bytes, and newRecords allocates them all at once. Eight
// more, and with its malloc header the array of a two-worker session no
// longer fits the 4096-byte size class: 1280 bytes more a session, 10
// an input over a 128-input session. So the run re-derives its worker
// stream (chunkRun.stream) instead of keeping it, and the verdict's Chunk
// says which lap it belongs to.
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

// newRecords returns the record array for a speculation window: a power
// of two (chunk j lives at j&mask) of at least window+2 records. Push
// reaches record j only after sizeFor(j) has consumed outcome j-window-1.
// The chunk the record held a lap ago is j-len <= j-window-2, so its
// successor has been applied to the end — the outcome push is applyCommit's
// last act — and that was the last read of anything in it: of its inputs
// by the successor's alternative producer and by the checkpoint tracker,
// of its origs and replica seed through the committed lineage
// (the tracker encodes the seed). The same holds for the storage an input
// points to: PushFrom hands the input a slot held a lap ago to the build
// that refills the slot, which may decode the next line into it
// (bench.ReusingCodec), so no program may keep an input past Update
// (StateDependence.Update). Nothing but that arithmetic guards the reuse;
// the race detector over TestRecordReuseStress, which ingests wire lines
// decoded into those spares, is its net.
func newRecords(p *Pipeline, window int) []chunk {
	n := 2
	for n < window+2 {
		n <<= 1
	}
	recs := make([]chunk, n)
	var evs []heldEvents
	if p.sink != nil {
		evs = make([]heldEvents, n)
	}
	for i := range recs {
		recs[i].p = p
		if evs != nil {
			recs[i].ev = &evs[i]
		}
	}
	return recs
}

// record returns the record chunk j lives in.
func (p *Pipeline) record(j int) *chunk { return &p.records[j&(len(p.records)-1)] }

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

	// The hops between goroutines are lock-free rings (internal/ring), not
	// channels: the outcome window is single-producer single-consumer,
	// jobs is multi-consumer on the worker-pool side. A worker hands its
	// result to the frontier under the frontier's lock instead (commit.go).
	// Only the public output stream stays a channel. See the package doc
	// in internal/ring for the memory-model and parking discipline.
	jobs     *ring.MPMC[*chunk]
	outcomes *ring.SPSC[bool]
	out      chan Output
	records  []chunk  // chunk j in records[j&mask]; see newRecords
	front    frontier // the commit frontier, applied by one worker at a time

	// mu is the boundary lock, taken at chunk boundaries only. It makes
	// the producer's "announce + jobs push" one step against Halt's jobs
	// close, and it guards ctl, which the producer writes and Wait and
	// StatsSnapshot read.
	mu     sync.Mutex
	prod   producer // the chunk being filled (assemble.go)
	ctl    *autotune.Online
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

	var ctl *autotune.Online
	if cfg.Adapt {
		var st *autotune.OnlineState
		if rs != nil {
			st = rs.ctl
		}
		var err error
		ctl, err = autotune.RestoreOnline(cfg.ChunkSize, st)
		if err != nil {
			cancel()
			return nil, err
		}
	}

	p := &Pipeline{
		cfg:    cfg,
		ex:     NewNativeExec(),
		ctx:    ctx,
		outer:  outer,
		cancel: cancel,
		// jobs holds one slot per in-flight chunk: chunks in flight are
		// bounded by the outcome window below, so the producer never spins
		// or parks on this hop.
		jobs: ring.NewMPMC[*chunk](cfg.window() + 1),
		// outcomes is the speculation window: the producer consumes
		// exactly max(0, j-window) outcomes before sizing chunk j, which
		// both bounds chunks in flight and keeps sizing deterministic.
		// Capacity window+2 exceeds the maximum unconsumed backlog, so
		// the frontier never parks here.
		outcomes: ring.NewSPSC[bool](cfg.window() + 2),
		// Two chunks of committed outputs may wait for the consumer before
		// the frontier does.
		out:  make(chan Output, 2*cfg.ChunkSize),
		ctl:  ctl,
		done: make(chan struct{}),
	}
	p.halt, p.haltCancel = context.WithCancel(ctx)
	p.init(prog, cfg.Seed, cfg.Lookback, cfg.ExtraStates, cfg.Sink)
	p.stop = cancel // a terminal fault tears every stage down promptly
	p.records = newRecords(p, cfg.window())
	p.resume = rs
	p.front.init(p)
	if rs != nil {
		// Resume at the snapshot frontier: the first chunk to fill is the
		// first uncommitted one and its window was decoded from the
		// snapshot. Preload the outcome window with the snapshot's pending
		// outcomes: the restored producer consumes them at exactly the
		// decision points the uninterrupted one would have. At most window
		// entries (snapshot-validated), so TryPush on a window+2 ring
		// cannot fail.
		p.prod = producer{j: rs.next, consumed: rs.next - len(rs.pending), prevWindow: rs.prevWindow}
		for _, ok := range rs.pending {
			p.outcomes.TryPush(ok)
		}
	}
	if cfg.Checkpoint.enabled() {
		t, err := newCkptTracker(p, rs)
		if err != nil {
			cancel()
			return nil, err
		}
		p.ckpt = t
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
	// chunk is announced after this read.
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
	}()
	return p, nil
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
	if p.ctl != nil {
		// The controller's writer is the producer, and nothing here waited
		// for it: an abandoned session's caller drains and waits while its
		// pusher may still be inside Push.
		p.mu.Lock()
		st.Trajectory = p.ctl.History()
		p.mu.Unlock()
	}
	if err := p.failErr(); err != nil {
		return st, err
	}
	// The reaper cancels the derived context even on clean drains; only
	// the caller's context says whether the run was abandoned.
	return st, p.outer.Err()
}

// StatsSnapshot returns the pipeline's counters at this instant; it may
// be called while the pipeline runs, but not from an event sink: on an
// adaptive session it takes the boundary lock, which the producer holds
// while it emits EvChunk.
func (p *Pipeline) StatsSnapshot() StreamStats {
	st := StreamStats{
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
	if p.ctl != nil {
		p.mu.Lock() // the producer writes the controller
		st.Resizes = int64(p.ctl.Resizes())
		p.mu.Unlock()
	}
	return st
}
