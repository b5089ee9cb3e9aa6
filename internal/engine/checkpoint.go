package engine

import (
	"context"
	"encoding/json"
	"fmt"

	"gostats/internal/checkpoint"
)

// This file is the engine half of checkpointed sessions (DESIGN.md §12):
// emitting commit-frontier snapshots while a pipeline runs, halting a
// pipeline at a chunk boundary without disturbing its committed prefix,
// and restoring a snapshot into a fresh pipeline that produces
// byte-identical remaining outputs.
//
// The one structural fact that makes this small: at a commit boundary the
// session's entire future is determined by (seed, session shape, frontier
// lineage, previous window). Worker rng streams are derived per chunk
// index — never advanced across chunks — so no stream positions exist to
// capture; in-flight speculative work is discarded and re-derived
// identically on resume. A restored frontier is a frontier like any other:
// every snapshot, the one a halt takes before anything new has committed
// included, is captured from it, never copied from the bytes it was
// restored from.

// SessionCodec serializes one benchmark's inputs, outputs, and states for
// checkpoints and the out-of-process chunk protocol. Each encoding is one
// JSON document in encoding/json's compact form: both embed it in their
// own JSON as a value. bench.WireCodec satisfies it; the engine keeps
// only the interface so it never depends on benchmark packages.
type SessionCodec interface {
	DecodeInput(data []byte) (Input, error)
	EncodeInput(in Input) ([]byte, error)
	EncodeOutput(out Output) ([]byte, error)
	EncodeState(s State) ([]byte, error)
	DecodeState(data []byte) (State, error)
}

// CheckpointConfig enables periodic commit-frontier snapshots.
type CheckpointConfig struct {
	// Codec serializes window inputs and lineage states into snapshots.
	// Required when checkpointing is enabled.
	Codec SessionCodec
	// EveryCommits emits a snapshot each time this many chunks have
	// committed since the last one. 0 emits none but the halt snapshot.
	EveryCommits int
	// OnSnapshot observes every emitted snapshot, synchronously on the
	// worker holding the commit frontier (the halt snapshot on the
	// session's reaper, after the workers exited). It must not block for
	// long — that worker and the commit frontier are both stalled while it
	// runs — and must not retain the snapshot's slices past its return
	// unless it treats them as immutable (they are never reused by the
	// engine). A panic in it fails the session at SiteCommit.
	OnSnapshot func(*checkpoint.Snapshot)
}

func (c CheckpointConfig) enabled() bool {
	return c.EveryCommits > 0 || c.OnSnapshot != nil
}

// ResumeConfig restores a pipeline from a snapshot. The pipeline adopts
// the snapshot's session shape (chunk size, lookback, workers, seed, …)
// wholesale — resuming under different parameters would move chunk
// boundaries and break byte-identity — and starts at its commit frontier:
// the caller feeds the input stream from snapshot index Inputs onward.
type ResumeConfig struct {
	Snap *checkpoint.Snapshot
	// Codec decodes the snapshot's states and window inputs.
	Codec SessionCodec
}

// ChunkRequest asks an executor to run one chunk's worker-side protocol.
type ChunkRequest struct {
	// Chunk is the session-monotonic chunk index; every rng derivation
	// the executor needs is keyed by it.
	Chunk int
	// Attempt counts fault retries; attempts re-derive the same streams,
	// so any successful attempt returns identical bytes.
	Attempt int
	// Window is the predecessor chunk's lookback window (nil for chunk
	// 0); Inputs is the chunk body.
	Window []Input
	Inputs []Input
}

// ChunkReply carries the worker-side protocol's products: the published
// speculative start state (nil for chunk 0), the speculative outputs, the
// final state, and the original-state replicas for the successor's
// boundary validation (Origs[0] is Final).
type ChunkReply struct {
	Spec  State
	Outs  []Output
	Final State
	Origs []State
}

// ChunkRunner executes chunks somewhere other than the calling
// goroutine — out of process (procexec.Pool), potentially off-host. A
// runner's reply must be byte-identical to in-process execution of the
// same request; the cross-executor equivalence matrix enforces this for
// procexec. Errors are surfaced as retryable SiteProc chunk faults; after
// the retry budget the chunk degrades to the in-process path.
type ChunkRunner interface {
	RunChunk(ctx context.Context, req ChunkRequest) (*ChunkReply, error)
}

// ChunkWorker runs the worker side of the chunk protocol for one session
// outside any pipeline — the body of an out-of-process executor
// (internal/procexec serves it over a pipe). Its replies are the ones
// ChunkRunner promises: byte-identical to what a pool worker of a
// pipeline with the same seed and shape produces for the same request.
type ChunkWorker struct{ proto }

// NewChunkWorker binds p to a session's seed and shape.
func NewChunkWorker(p Program, seed uint64, lookback, extraStates int) *ChunkWorker {
	w := &ChunkWorker{}
	w.init(p, seed, lookback, extraStates, nil)
	return w
}

// Run executes one speculative attempt of the requested chunk. A panic in
// the program propagates; the caller owns the fault boundary. The reply
// crosses a process boundary, where no seed can follow it, so it carries
// the replicas built.
func (w *ChunkWorker) Run(req ChunkRequest) *ChunkReply {
	var c chunkRun
	c.bind(&w.proto, NewNativeExec(), req.Chunk, -1)
	c.arm(req.Attempt, SiteAltProducer)
	s, spec := c.start(nil, req.Window, true)
	outs, final, origs := c.finish(s, req.Inputs, false, nil, nil)
	if c.deferred() {
		origs = c.replicas(origs)
		c.dropSeed()
	}
	return &ChunkReply{Spec: spec, Outs: outs, Final: final, Origs: origs}
}

// Release retires a reply's states into the worker's pool once the
// caller is done with them.
func (w *ChunkWorker) Release(r *ChunkReply) {
	w.pool.Release(r.Spec)
	for _, o := range r.Origs {
		w.pool.Release(o)
	}
}

// Halt stops the pipeline at the commit frontier: dispatch stops without
// flushing the partial chunk (the inputs it holds are deliberately
// dropped — a resumed session re-reads them from the source, and flushing
// them would move the boundary it will re-derive), the chunks already
// announced drain and commit normally, and — when checkpointing is
// configured — the frontier is captured one final time before Outputs
// closes. Push returns ErrClosed afterwards. Halt may be called from any
// goroutine, concurrently with Push. Halt after Close is a no-op: the
// stream is already ending normally, boundaries included.
func (p *Pipeline) Halt() {
	if !p.closed.CompareAndSwap(false, true) {
		return
	}
	p.halted.Store(true)
	// Under the boundary lock: a chunk the producer has announced is in
	// the jobs ring before the ring closes (assemble.go). A session that
	// a cancel or a fault ended meanwhile may have handed its storage
	// back already (end): then there is no ring of its own to close.
	p.mu.Lock()
	p.haltCancel() // releases a producer parked on the window
	if p.store != nil {
		p.store.jobs.Close()
	}
	p.mu.Unlock()
}

// Halted reports whether Halt stopped this pipeline (as opposed to a
// normal Close or an abandonment). Meaningful once Outputs has closed.
func (p *Pipeline) Halted() bool { return p.halted.Load() }

// resumeState is the decoded, engine-typed form of a snapshot, built once
// in NewStream and consumed by the producer and the frontier at start.
type resumeState struct {
	next       int   // first chunk to fill and commit
	inputs     int64 // committed inputs so far (absolute)
	prevWindow []Input
	lineage    []State // [0] is the frontier final state
	seed       State   // the lineage's replica seed; nil when it is built
	reorig     bool    // the seed's replicas derive from the recovery stream
}

// buildResume validates and decodes a snapshot against prog and the
// (already defaulted) config.
func buildResume(prog Program, cfg StreamConfig) (*resumeState, error) {
	snap := cfg.Resume.Snap
	codec := cfg.Resume.Codec
	if snap == nil {
		return nil, fmt.Errorf("stream: Resume.Snap is nil")
	}
	if err := snap.Validate(); err != nil {
		return nil, err
	}
	if snap.Benchmark != prog.Name() {
		return nil, fmt.Errorf("stream: snapshot is for %q, pipeline runs %q", snap.Benchmark, prog.Name())
	}
	if codec == nil {
		return nil, fmt.Errorf("stream: Resume needs a SessionCodec to decode the snapshot")
	}
	rs := &resumeState{next: snap.NextChunk, inputs: snap.Inputs, reorig: snap.Reorig}
	for i, raw := range snap.PrevWindow {
		in, err := codec.DecodeInput(raw)
		if err != nil {
			return nil, fmt.Errorf("stream: snapshot window input %d: %w", i, err)
		}
		rs.prevWindow = append(rs.prevWindow, in)
	}
	for i, raw := range snap.Lineage {
		s, err := codec.DecodeState(raw)
		if err != nil {
			return nil, fmt.Errorf("stream: snapshot lineage state %d: %w", i, err)
		}
		rs.lineage = append(rs.lineage, s)
	}
	if len(snap.ReplicaSeed) > 0 {
		s, err := codec.DecodeState(snap.ReplicaSeed)
		if err != nil {
			return nil, fmt.Errorf("stream: snapshot replica seed: %w", err)
		}
		rs.seed = s
	}
	if rs.next > 0 && len(rs.prevWindow) == 0 {
		return nil, fmt.Errorf("stream: snapshot at chunk %d has no lookback window", rs.next)
	}
	return rs, nil
}

// ckptTracker belongs to the commit frontier — whichever worker holds the
// role, then the reaper — and decides when to capture.
type ckptTracker struct {
	p          *Pipeline
	cfg        CheckpointConfig
	inputs     int64 // committed inputs, absolute across resumes
	commitsAcc int   // commits since the last capture
	err        error // first encode failure; checkpointing disabled after
}

// onCommit observes one applied chunk at the frontier (commit or
// recovered abort — either way its outputs are now committed) and
// captures a snapshot when an interval is due. Called with the chunk's
// job inputs and the just-updated lineage still live.
func (t *ckptTracker) onCommit(j int, jobInputs []Input, outs []Output, prev *committed) {
	t.inputs += int64(len(outs))
	t.commitsAcc++
	if t.err != nil || t.cfg.EveryCommits == 0 || t.commitsAcc < t.cfg.EveryCommits {
		return
	}
	if snap := t.capture(j, jobInputs, prev); snap != nil {
		t.deliver(snap)
	}
}

// finalize emits the halt snapshot: the frontier exactly as the drain
// left it. Called by the reaper once a halted pipeline has drained
// cleanly; next is the first uncommitted chunk index, prevInputs the last
// committed chunk's inputs. A session that committed nothing emits an
// empty chunk-0 snapshot; one resumed that committed nothing since is
// captured like any other, from the frontier the snapshot restored, and
// re-emits its resume point.
func (t *ckptTracker) finalize(next int, prevInputs []Input, prev *committed) {
	if t.err != nil {
		return
	}
	var snap *checkpoint.Snapshot
	if next == 0 {
		snap = t.skeleton()
	} else {
		snap = t.capture(next-1, prevInputs, prev)
	}
	if snap != nil {
		t.deliver(snap)
	}
}

// capture serializes the frontier after chunk j committed. A lineage
// whose replicas were never built is written as its final state and the
// replica seed, which a resumed frontier builds them from on a miss, as
// the uninterrupted session would; a built lineage is written whole.
func (t *ckptTracker) capture(j int, jobInputs []Input, prev *committed) *checkpoint.Snapshot {
	snap := t.skeleton()
	snap.NextChunk = j + 1
	window := t.p.window(jobInputs)
	snap.PrevWindow = make([]json.RawMessage, 0, len(window))
	for i, in := range window {
		b, err := t.cfg.Codec.EncodeInput(in)
		if err != nil {
			t.disable(fmt.Errorf("checkpoint: encode window input %d: %w", i, err))
			return nil
		}
		snap.PrevWindow = append(snap.PrevWindow, b)
	}
	for i, s := range prev.origs {
		b, err := t.cfg.Codec.EncodeState(s)
		if err != nil {
			t.disable(fmt.Errorf("checkpoint: encode lineage state %d: %w", i, err))
			return nil
		}
		snap.Lineage = append(snap.Lineage, b)
	}
	if run := prev.run; run.deferred() {
		b, err := t.cfg.Codec.EncodeState(run.seed.snapshot)
		if err != nil {
			t.disable(fmt.Errorf("checkpoint: encode replica seed: %w", err))
			return nil
		}
		snap.ReplicaSeed, snap.Reorig = b, run.seed.reorig
	}
	return snap
}

// skeleton fills the session-shape fields common to every snapshot of
// this pipeline, and the committed input count.
func (t *ckptTracker) skeleton() *checkpoint.Snapshot {
	cfg := t.p.cfg
	return &checkpoint.Snapshot{
		Benchmark:   t.p.prog.Name(),
		Seed:        cfg.Seed,
		ChunkSize:   cfg.ChunkSize,
		Lookback:    cfg.Lookback,
		ExtraStates: cfg.ExtraStates,
		Workers:     cfg.Workers,
		Inputs:      t.inputs,
	}
}

// deliver hands a snapshot to the session's observer and counts it.
func (t *ckptTracker) deliver(snap *checkpoint.Snapshot) {
	t.commitsAcc = 0
	t.p.checkpoints.Add(1)
	if t.cfg.OnSnapshot != nil {
		t.cfg.OnSnapshot(snap)
	}
}

// disable records the first serialization failure and stops checkpointing
// for the session. The session itself keeps running: checkpointing is a
// robustness layer and must never corrupt a healthy stream; the error is
// surfaced through CheckpointErr after drain.
func (t *ckptTracker) disable(err error) {
	if t.err == nil {
		t.err = err
	}
}

// CheckpointErr reports the error that disabled checkpointing, if any.
// Meaningful once the pipeline has drained.
func (p *Pipeline) CheckpointErr() error {
	if p.ckpt == nil {
		return nil
	}
	return p.ckpt.err
}
