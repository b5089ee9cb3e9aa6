package engine

import (
	"sync"
	"time"

	"gostats/internal/critpath"
	"gostats/internal/trace"
)

// Recorder folds the engine's canonical event stream into a trace.Trace,
// giving native (wall-clock) sessions the same post-mortem critical-path
// analysis the simulator's cycle-exact traces get. Thread 0 is the commit
// frontier (events with Worker == -1); worker pool slot w maps to thread
// w+1 — an event is filed on the thread that spent the time. Interval
// categories follow the paper's overhead taxonomy: the alternative
// producer, published state copies, chunk bodies, original-state
// generation, validation comparisons, recovery re-execution and output
// emission each land in their §III category.
//
// A Recorder is an opt-in Sink: attach it via StreamConfig.Sink (or a
// scheduler's Sink) only when attribution is wanted — it takes a mutex per
// event, unlike the atomic-only Counters and Metrics sinks.
type Recorder struct {
	mu sync.Mutex
	// t0 is the trace's time origin: provisionally the start of the first
	// event to arrive, which need not be the earliest — workers deliver
	// events out of start order — so Trace rebases it.
	t0    time.Time
	tr    *trace.Trace
	seqNs int64
	// done maps a chunk index to the worker-side end of its speculation,
	// pending the commit-dependence edge to the frontier.
	done map[int]recPoint
}

// recPoint is one (thread, time) trace coordinate, kept in wall time so
// it survives a rebase of the trace's origin.
type recPoint struct {
	thread int
	at     time.Time
}

// NewRecorder returns an empty recorder ready to use as a Sink.
func NewRecorder() *Recorder {
	return &Recorder{tr: trace.New(), done: make(map[int]recPoint)}
}

// recThread maps an event's worker slot to a trace thread.
func recThread(worker int) int { return worker + 1 }

// Event implements Sink.
func (r *Recorder) Event(e Event) {
	if e.Start.IsZero() {
		// Untimed protocol events (chunk dispatch, commit/abort verdicts,
		// snapshots, session markers) carry no interval.
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.t0.IsZero() {
		r.t0 = e.Start
	}
	start := e.Start.Sub(r.t0).Nanoseconds()
	end := start + e.Dur.Nanoseconds()
	if end < start {
		end = start
	}
	th := recThread(e.Worker)

	switch e.Kind {
	case EvAltProduced:
		r.tr.Record(th, trace.CatAltProducer, start, end, "")
	case EvSpecPublished:
		r.tr.Record(th, trace.CatStateCopy, start, end, "")
	case EvBody:
		r.tr.Record(th, trace.CatChunkWork, start, end, "")
		r.seqNs += end - start
	case EvSquashed:
		// An aborted chunk's body, as far as it ran: the time is the
		// worker's, the work is lost, and the frontier waited for the
		// record to come back.
		r.tr.Record(th, trace.CatChunkWork, start, end, "")
		r.done[e.Chunk] = recPoint{thread: th, at: e.Start.Add(e.Dur)}
	case EvOrigStates:
		r.tr.Record(th, trace.CatOrigStates, start, end, "")
	case EvSpeculated:
		// The speculation span overlaps the fine-grained worker intervals
		// above; it contributes no interval of its own, only the source
		// point of the chunk's commit-dependence edge.
		r.done[e.Chunk] = recPoint{thread: th, at: e.Start.Add(e.Dur)}
	case EvValidated:
		r.tr.Record(th, trace.CatCompare, start, end, "")
		r.edge(e.Chunk, th, start, false)
	case EvReexec:
		r.tr.Record(th, trace.CatReexec, start, end, "")
		r.seqNs += end - start
		r.edge(e.Chunk, th, start, false)
	case EvOutputs:
		r.tr.Record(th, trace.CatSyncWait, start, end, "")
		r.edge(e.Chunk, th, start, true)
	}
}

// edge adds the pending commit-dependence edge for a chunk, if any: the
// worker finished speculating before the frontier could act on the result.
// Only frontier-side events consume it; simulated batch runs (no frontier thread)
// leave the map to be discarded with the Recorder. A boundary decided
// early is timed before the speculation it decides has ended, so an event
// that starts before that end leaves the edge to a later one, unless it
// is the chunk's last, its EvOutputs.
func (r *Recorder) edge(chunk, toThread int, toTime int64, last bool) {
	if toThread != recThread(-1) {
		return
	}
	d, ok := r.done[chunk]
	if !ok {
		return
	}
	from := d.at.Sub(r.t0).Nanoseconds()
	if from > toTime && !last {
		return
	}
	delete(r.done, chunk)
	// Clock readings from different goroutines; clamp to keep the edge
	// well-formed.
	r.tr.AddEdge(trace.EdgeCommit, d.thread, min(from, toTime), toThread, toTime)
}

// Trace returns the trace accumulated so far, with its earliest point at
// time zero. Call it only after the session has drained (Wait returned,
// or the batch run finished): the returned value aliases the recorder's
// internal state.
func (r *Recorder) Trace() *trace.Trace {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.rebase()
	return r.tr
}

// rebase moves the time origin back to the earliest recorded point, so no
// interval or edge precedes it.
func (r *Recorder) rebase() {
	var lo int64
	for _, iv := range r.tr.Intervals {
		lo = min(lo, iv.Start)
	}
	for _, e := range r.tr.Edges {
		lo = min(lo, e.FromTime)
	}
	if lo == 0 {
		return
	}
	for i := range r.tr.Intervals {
		r.tr.Intervals[i].Start -= lo
		r.tr.Intervals[i].End -= lo
	}
	for i := range r.tr.Edges {
		r.tr.Edges[i].FromTime -= lo
		r.tr.Edges[i].ToTime -= lo
	}
	r.tr.Span -= lo
	r.t0 = r.t0.Add(time.Duration(lo))
}

// SeqEstimateNs estimates the sequential execution time in nanoseconds as
// the sum of the work that produced the committed outputs — each input
// counted once, in the body of the chunk that committed it (EvBody) or
// the re-execution of the chunk that aborted (EvReexec), with no
// speculation machinery around it. An aborted chunk's speculative body
// (EvSquashed) is not counted. It is the seqCycles input the critical-path
// decomposition needs for a native session, where no separate sequential
// run exists.
func (r *Recorder) SeqEstimateNs() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.seqNs
}

// Breakdown runs the paper's six-category critical-path loss decomposition
// over the recorded session against an ideal of linear speedup on the
// given core count. Native sessions have no overhead-free oracle
// simulations, so both oracle speedups are taken as ideal: the
// "unreachable" category is zero and structural limits fold into
// imbalance. Call only after the session has drained.
func (r *Recorder) Breakdown(cores int) (critpath.Breakdown, error) {
	tr := r.Trace()
	if err := tr.Validate(); err != nil {
		return critpath.Breakdown{}, err
	}
	a, err := critpath.New(tr)
	if err != nil {
		return critpath.Breakdown{}, err
	}
	ideal := float64(cores)
	oracle := critpath.Oracle{CleanTuned: ideal, CleanMax: ideal}
	return critpath.Decompose(a, r.SeqEstimateNs(), cores, oracle), nil
}
