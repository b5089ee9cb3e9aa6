package engine

import (
	"sync/atomic"
	"time"
)

// The engine emits one canonical event stream describing every protocol
// action a scheduler performs. All consumers — the cross-scheduler
// protocol-work totals (Counters), the collector behind statsserved
// /metrics that adds gauges and binned stage latencies to them (Metrics),
// and the trace synthesis for critical-path analysis of native streaming
// sessions (Recorder) — read this stream, attached as a session's Sink
// (several through Tee); no scheduler keeps private aggregation, and none
// attaches a consumer of its own.
//
// Events are small value structs delivered synchronously on the emitting
// goroutine; sinks must be goroutine-safe and fast (the reference sinks
// use only atomic adds on the hot path). Wall-clock fields (Start, Dur,
// Ran) are populated only by the native schedulers and only when a sink
// is attached; on the simulated substrate timing lives in the machine
// trace instead.
//
// A chunk's speculative events are reported at its verdict. On the
// pipeline the boundary before a chunk can be decided while the chunk's
// body still runs, and a miss squashes the body where it stands, so how
// much of it ran is timing. The worker therefore holds the events of its
// speculative run (EvBody, EvSnapshot, EvOrigStates, EvSpeculated) in the
// chunk's record, and the record keeps the boundary's verdict, which is
// the EvValidated that reports it (chunkRun.boundary returns it); the
// commit frontier reports them when it applies the chunk. A committed
// chunk reports them as they happened, then EvValidated; an aborted one
// reports one EvSquashed in their place, then EvValidated. So each
// chunk's untimed event sequence is a function of its verdict alone,
// whatever the schedule. Holding allocates nothing per chunk: a session
// with a sink allocates the storage once, beside its chunk records, and a
// session with no sink holds nothing. The simulated batch body squashes
// nothing and emits every event as it happens, the EvValidated its
// boundary returns included.

// Kind identifies a protocol event.
type Kind uint8

const (
	// EvSessionStart and EvSessionEnd bracket one scheduler run (a simulated
	// batch run or a streaming session). EvSessionEnd's N is the number of
	// chunks the run announced with EvChunk and never resolved with
	// EvOutputs: what an abandoned or failed streaming session dropped,
	// 0 otherwise.
	EvSessionStart Kind = iota
	EvSessionEnd
	// EvIngest records N inputs accepted into the protocol.
	EvIngest
	// EvIngestWait records time a producer spent blocked on backpressure.
	EvIngestWait
	// EvChunk records chunk Chunk entering execution with N inputs.
	EvChunk
	// EvAltProduced records an alternative producer replaying N lookback
	// inputs from a cold state (§III-B "Generating speculative states").
	EvAltProduced
	// EvSpecPublished records the speculative start state being cloned
	// and published for the predecessor's validation (one state copy).
	EvSpecPublished
	// EvBody records a chunk body processing N inputs speculatively.
	EvBody
	// EvSnapshot records the pre-boundary state snapshot (one state copy).
	EvSnapshot
	// EvOrigStates records generation of N replica original states, each
	// replaying M window inputs (§III-B "Multiple original states"). A
	// native worker defers them and reports N = 0; the boundary that builds
	// them reports a second EvOrigStates for the chunk.
	EvOrigStates
	// EvSpeculated records the whole worker-side phase for a chunk:
	// alternative production, body, original states. Its Dur is what the
	// "speculate" stage histogram bins.
	EvSpeculated
	// EvValidated records a boundary validation: N state comparisons
	// charged, Matched reporting whether the speculation survived.
	EvValidated
	// EvCommitted and EvAborted record the chunk's commit decision.
	EvCommitted
	EvAborted
	// EvReexec records mispeculation recovery: the chunk re-ran N inputs
	// from the true predecessor state (one recovery state copy implied).
	EvReexec
	// EvOutputs records N committed outputs emitted in input order.
	EvOutputs
	// EvFault records a fault isolated on chunk Chunk: a panic (or an
	// executor's error) at protocol site M (a FaultSite) during attempt N.
	EvFault
	// EvRetry records a faulted chunk being re-attempted at once: N is the
	// next attempt index.
	EvRetry
	// EvDegraded records a chunk whose retries exhausted on one rung being
	// degraded to the next — remote to in-process, or speculative to
	// sequential re-execution from the last committed state. N is the
	// index of the rung's last faulted attempt, MaxRetries; the next rung
	// starts again at attempt 0.
	EvDegraded
	// EvSquashed records an aborted chunk's speculative run, reported at
	// its verdict in place of the run's EvBody, EvSnapshot, EvOrigStates
	// and EvSpeculated. N is the chunk's inputs. How far the body got
	// before the frontier squashed it is timing: Ran inputs, in the body's
	// Start and Dur (zero when the attempt never reached the body).
	EvSquashed

	numKinds
)

var kindNames = [numKinds]string{
	EvSessionStart:  "session-start",
	EvSessionEnd:    "session-end",
	EvIngest:        "ingest",
	EvIngestWait:    "ingest-wait",
	EvChunk:         "chunk",
	EvAltProduced:   "alt-produced",
	EvSpecPublished: "spec-published",
	EvBody:          "body",
	EvSnapshot:      "snapshot",
	EvOrigStates:    "orig-states",
	EvSpeculated:    "speculated",
	EvValidated:     "validated",
	EvCommitted:     "committed",
	EvAborted:       "aborted",
	EvReexec:        "reexec",
	EvOutputs:       "outputs",
	EvFault:         "fault",
	EvRetry:         "retry",
	EvDegraded:      "degraded",
	EvSquashed:      "squashed",
}

// String returns the kind's event-stream name.
func (k Kind) String() string {
	if k >= numKinds {
		return "unknown"
	}
	return kindNames[k]
}

// Event is one protocol action. Which fields are meaningful depends on
// Kind (see the Kind constants).
type Event struct {
	Kind Kind
	// Matched is EvValidated's verdict. It sits beside Kind, where it
	// costs no word of its own: a chunk record holds two Events.
	Matched bool
	// Chunk is the protocol chunk index, or -1 for session-scoped events.
	Chunk int
	// Worker is the executing worker slot for worker-side events (the
	// streaming pool index, or the chunk index for the simulated batch body);
	// -1 for frontier/session events.
	Worker int
	// N and M are kind-specific counts.
	N, M int
	// Start and Dur delimit the phase in wall-clock time; zero on the
	// simulated substrate or when timing was not collected. Ran is
	// timing too: the inputs an EvSquashed run's body processed.
	Start time.Time
	Dur   time.Duration
	Ran   int
}

// Sink consumes the engine's event stream. Implementations must be safe
// for concurrent use: schedulers emit from every worker goroutine.
type Sink interface {
	Event(Event)
}

// tee fans one event stream out to several sinks.
type tee []Sink

func (t tee) Event(e Event) {
	for _, s := range t {
		s.Event(e)
	}
}

// Tee returns a sink delivering every event to each non-nil argument, in
// argument order: nil if none remain — a session given that sink is an
// unobserved one — and the sink itself if one does.
func Tee(sinks ...Sink) Sink {
	var t tee
	for _, s := range sinks {
		if s != nil {
			t = append(t, s)
		}
	}
	switch len(t) {
	case 0:
		return nil
	case 1:
		return t[0]
	}
	return t
}

// Counters aggregates the event stream into protocol-activity totals.
// Because every scheduler emits the same events for the same protocol
// decisions, two runs with identical seeds and chunk boundaries produce
// identical snapshots regardless of scheduler — the cross-executor
// equivalence test relies on this. All methods are goroutine-safe.
type Counters struct {
	sessions, ingested, emitted         atomic.Int64
	chunks, commits, aborts             atomic.Int64
	altUpdates, bodyUpdates             atomic.Int64
	origReplicas, origUpdates           atomic.Int64
	specCopies, snapshots               atomic.Int64
	compares, reexecRuns, reexecUpdates atomic.Int64
	faults, retries, degraded           atomic.Int64
}

// Event implements Sink.
func (c *Counters) Event(e Event) {
	switch e.Kind {
	case EvSessionStart:
		c.sessions.Add(1)
	case EvIngest:
		c.ingested.Add(int64(e.N))
	case EvChunk:
		c.chunks.Add(1)
	case EvAltProduced:
		c.altUpdates.Add(int64(e.N))
	case EvSpecPublished:
		c.specCopies.Add(1)
	case EvBody:
		c.bodyUpdates.Add(int64(e.N))
	case EvSquashed:
		// The body and snapshot the run was dispatched to do: how much of
		// it ran is timing, which no total reads.
		c.bodyUpdates.Add(int64(e.N))
		c.snapshots.Add(1)
	case EvSnapshot:
		c.snapshots.Add(1)
	case EvOrigStates:
		c.origReplicas.Add(int64(e.N))
		c.origUpdates.Add(int64(e.N * e.M))
	case EvValidated:
		c.compares.Add(int64(e.N))
	case EvCommitted:
		c.commits.Add(1)
	case EvAborted:
		c.aborts.Add(1)
	case EvReexec:
		c.reexecRuns.Add(1)
		c.reexecUpdates.Add(int64(e.N))
	case EvOutputs:
		c.emitted.Add(int64(e.N))
	case EvFault:
		c.faults.Add(1)
	case EvRetry:
		c.retries.Add(1)
	case EvDegraded:
		c.degraded.Add(1)
	}
}

// CounterSnapshot is a point-in-time copy of Counters, comparable with ==.
type CounterSnapshot struct {
	Sessions int64 // scheduler runs observed
	Ingested int64 // inputs accepted
	Emitted  int64 // committed outputs emitted
	Chunks   int64 // chunks executed
	Commits  int64 // speculations committed
	Aborts   int64 // speculations aborted

	AltUpdates    int64 // inputs replayed by alternative producers
	BodyUpdates   int64 // inputs dispatched to speculative chunk bodies (a squashed one counts whole)
	OrigReplicas  int64 // replica original states generated
	OrigUpdates   int64 // inputs replayed by original-state replicas
	SpecCopies    int64 // speculative start states published (state copies)
	Snapshots     int64 // pre-boundary snapshots taken (state copies; a squashed run counts its one)
	Compares      int64 // state comparisons charged
	ReexecRuns    int64 // mispeculation recoveries (each one recovery copy)
	ReexecUpdates int64 // inputs re-executed during recovery

	Faults   int64 // chunk faults isolated (panics, dead worker processes)
	Retries  int64 // faulted attempts re-attempted
	Degraded int64 // chunks degraded down the executor ladder (remote→local, speculative→sequential)
}

// Snapshot returns the totals at this instant.
func (c *Counters) Snapshot() CounterSnapshot {
	return CounterSnapshot{
		Sessions:      c.sessions.Load(),
		Ingested:      c.ingested.Load(),
		Emitted:       c.emitted.Load(),
		Chunks:        c.chunks.Load(),
		Commits:       c.commits.Load(),
		Aborts:        c.aborts.Load(),
		AltUpdates:    c.altUpdates.Load(),
		BodyUpdates:   c.bodyUpdates.Load(),
		OrigReplicas:  c.origReplicas.Load(),
		OrigUpdates:   c.origUpdates.Load(),
		SpecCopies:    c.specCopies.Load(),
		Snapshots:     c.snapshots.Load(),
		Compares:      c.compares.Load(),
		ReexecRuns:    c.reexecRuns.Load(),
		ReexecUpdates: c.reexecUpdates.Load(),
		Faults:        c.faults.Load(),
		Retries:       c.retries.Load(),
		Degraded:      c.degraded.Load(),
	}
}

// OverheadTotals maps the protocol-activity totals onto the paper's six
// loss categories (§III), in units of protocol work counts (updates,
// copies, comparisons) rather than cycles. Synchronization, imbalance and
// unreachable parallelism are timing phenomena, not countable protocol
// actions, so their entries are zero here; critpath.Decompose measures
// them from a trace (simulated, or synthesized by Recorder for a native
// streaming session). The countable categories are what the equivalence
// test asserts identical across schedulers.
type OverheadTotals struct {
	ExtraComputation int64 // §III-B: alt producers + replica replays + comparisons
	StateCopies      int64 // §III-B: spec publishes + snapshots + recovery copies
	Sync             int64 // §III-C: not countable, measured from traces
	SeqCode          int64 // §III-D: not countable, measured from traces
	Imbalance        int64 // §III-A: not countable, measured from traces
	Mispeculation    int64 // §III-E: re-executed updates
}

// Overheads derives the countable six-category view of a snapshot.
func (s CounterSnapshot) Overheads() OverheadTotals {
	return OverheadTotals{
		ExtraComputation: s.AltUpdates + s.OrigUpdates + s.Compares,
		StateCopies:      s.SpecCopies + s.Snapshots + s.ReexecRuns,
		Mispeculation:    s.ReexecUpdates,
	}
}
