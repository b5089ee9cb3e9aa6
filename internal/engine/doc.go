// Package engine owns the STATS speculation protocol (§II of the paper):
// chunking, alternative-producer speculative states, multiple original
// states, validation by one deep Match, ordered commit/abort with in-place
// re-execution, and state recycling.
//
// The protocol exists once (attempt.go: the speculative attempt, the
// recovery attempt, the fault/retry discipline and the timed boundary
// comparison, over the primitives in protocol.go) and is driven through
// a pluggable Scheduler, which decides only how chunks map to threads.
// There is one native runtime, the bounded-queue streaming pipeline
// (Pipeline) on NativeExec, and one simulated one, the batch body (Run)
// on SimExec; Exec itself is only cost accounting:
//
//   - BatchScheduler: the pipeline with one worker per chunk over a
//     bounded input slice; it spawns no per-chunk goroutine.
//   - StreamScheduler: the pipeline with a worker pool of any size,
//     backpressure, reused chunk records and optional adaptive chunk
//     sizing.
//   - SimScheduler: the batch body, one thread per chunk, on the
//     deterministic discrete-event machine (internal/machine), producing
//     cycle-accurate traces — the independent reference the pipeline's
//     outputs are checked against.
//
// All three run that one attempt with the same RNG derivations keyed by
// chunk index, as does ChunkWorker, the body of an out-of-process
// executor (internal/procexec); so committed outputs are a pure function
// of (seed, inputs, chunk boundaries) — byte-identical across schedulers
// when the boundaries coincide, regardless of goroutine scheduling, worker
// count, or which process ran a chunk.
//
// The engine emits one canonical event stream (Event) to whatever Sink
// the caller attached, and to nothing when it attached none: an
// unobserved session delivers no events and reads no clock. The
// consumers in this package are sinks like any other — Counters
// aggregates protocol-level overhead totals for cross-scheduler
// comparison, Metrics is Counters plus the gauges and binned stage
// latencies served at statsserved /metrics, and Recorder synthesizes a
// trace.Trace from a native streaming session so internal/critpath can
// attribute the gap to linear speedup to the paper's six overhead
// categories for streaming sessions too, not just simulated runs — and
// Tee joins several.
package engine
