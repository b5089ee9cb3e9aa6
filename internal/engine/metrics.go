package engine

import (
	"math/bits"
	"strconv"
	"sync/atomic"
	"time"
)

// Binned wall-clock metrics in the style of flow-go's binstat: a fixed,
// small number of power-of-two latency bins per pipeline stage, updated
// with two atomic adds per observation. That keeps the hot path free of
// locks, allocation, and formatting regardless of how many inputs flow
// through, while still exposing the latency *shape* of every stage (a
// mean hides exactly the bimodality that distinguishes a healthy
// speculative pipeline from one stalling on aborts). Put hands every
// value over by name; the caller renders them (statsserved through
// cluster.WriteMetrics).
//
// Metrics is a Sink like any other: attach it as a session's
// StreamConfig.Sink (or a scheduler's Sink; beside other sinks through
// Tee) and it renders the engine's canonical event stream, so the same
// collector serves a streaming session, a batch run, or both at once.
// Nothing attaches one by default. A Metrics value may be shared by any
// number of pipelines (statsserved aggregates all sessions into one); all
// methods are goroutine-safe.

// Stage identifies an instrumented pipeline stage.
type Stage int

const (
	// StageIngestWait is time Push spent blocked on backpressure: the
	// speculation window was full when the input that starts a chunk
	// arrived.
	StageIngestWait Stage = iota
	// StageSpeculate is per-chunk speculative work on a pipeline worker:
	// alternative production, chunk body, original-state generation.
	StageSpeculate
	// StageValidate is per-chunk commit validation (state comparisons).
	StageValidate
	// StageCommit is per-chunk ordered output emission.
	StageCommit
	// StageReexec is per-aborted-chunk recovery re-execution.
	StageReexec

	numStages
)

var stageNames = [numStages]string{
	StageIngestWait: "ingest-wait",
	StageSpeculate:  "speculate",
	StageValidate:   "validate",
	StageCommit:     "commit",
	StageReexec:     "abort-reexec",
}

// String returns the stage's metrics name.
func (s Stage) String() string {
	if s < 0 || s >= numStages {
		return "stage-" + strconv.Itoa(int(s))
	}
	return stageNames[s]
}

// numBins covers sub-microsecond through >17-minute observations in
// power-of-two microsecond steps.
const numBins = 31

// binFor maps a duration to its bin: bin 0 is <1µs, bin i covers
// [2^(i-1), 2^i) µs, the last bin is open-ended.
func binFor(d time.Duration) int {
	us := uint64(d / time.Microsecond)
	b := bits.Len64(us)
	if b >= numBins {
		b = numBins - 1
	}
	return b
}

// binLabel renders a bin's half-open range.
func binLabel(b int) string {
	hi := "inf"
	if b < numBins-1 {
		hi = (time.Duration(1<<b) * time.Microsecond).String()
	}
	return "[" + binLo(b).String() + "," + hi + ")"
}

// stageBins is one stage's histogram.
type stageBins struct {
	count   [numBins]atomic.Int64
	totalNs [numBins]atomic.Int64
}

// Metrics is Counters plus what a live service also wants: two gauges and
// the binned stage latencies. The embedded Counters folds the totals
// (read them through Snapshot); Metrics adds only what is not a running
// total. The zero value is ready to use.
type Metrics struct {
	Counters
	stages [numStages]stageBins

	// Gauges, across every scheduler run sharing this Metrics.
	Active   atomic.Int64 // scheduler runs currently executing
	InFlight atomic.Int64 // chunks announced and not yet resolved
}

// NewMetrics returns an empty collector.
func NewMetrics() *Metrics { return &Metrics{} }

// Event implements Sink: the embedded Counters folds the totals, and the
// gauges and stage histograms follow the same event. EvSessionEnd settles
// both gauges at once: the run is no longer active, and the chunks it
// announced and dropped (N) are no longer in flight.
func (m *Metrics) Event(e Event) {
	m.Counters.Event(e)
	switch e.Kind {
	case EvSessionStart:
		m.Active.Add(1)
	case EvSessionEnd:
		m.Active.Add(-1)
		m.InFlight.Add(-int64(e.N))
	case EvIngestWait:
		m.Observe(StageIngestWait, e.Dur)
	case EvChunk:
		m.InFlight.Add(1)
	case EvSpeculated:
		m.Observe(StageSpeculate, e.Dur)
	case EvValidated:
		m.Observe(StageValidate, e.Dur)
	case EvReexec:
		m.Observe(StageReexec, e.Dur)
	case EvOutputs:
		m.Observe(StageCommit, e.Dur)
		m.InFlight.Add(-1)
	}
}

// Observe records one duration for a stage.
func (m *Metrics) Observe(s Stage, d time.Duration) {
	if d < 0 {
		d = 0
	}
	b := binFor(d)
	m.stages[s].count[b].Add(1)
	m.stages[s].totalNs[b].Add(int64(d))
}

// StageCount returns the total observations recorded for a stage.
func (m *Metrics) StageCount(s Stage) int64 {
	var n int64
	for b := 0; b < numBins; b++ {
		n += m.stages[s].count[b].Load()
	}
	return n
}

// binLo returns a bin's inclusive lower bound.
func binLo(b int) time.Duration {
	if b == 0 {
		return 0
	}
	return time.Duration(1<<(b-1)) * time.Microsecond
}

// Percentile estimates the q-quantile (q in [0,1]) of a stage's latency
// distribution from its power-of-two bins, interpolating linearly within
// the bin the quantile lands in. The open-ended last bin interpolates
// toward its recorded mean instead (the only shape information the bin
// retains). With no observations it returns 0. The estimate's error is
// bounded by the bin width — good enough for the p50/p95/p99 values
// Put hands over, which is who reads it.
func (m *Metrics) Percentile(s Stage, q float64) time.Duration {
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	total := m.StageCount(s)
	if total == 0 {
		return 0
	}
	rank := float64(q * float64(total))
	var cum float64
	for b := 0; b < numBins; b++ {
		c := float64(m.stages[s].count[b].Load())
		if c == 0 {
			continue
		}
		if cum+c >= rank {
			lo := binLo(b)
			var hi time.Duration
			if b == numBins-1 {
				// Open-ended: the mean is the best in-bin anchor we have.
				hi = time.Duration(m.stages[s].totalNs[b].Load() / int64(c))
				if hi < lo {
					hi = lo
				}
			} else {
				hi = time.Duration(1<<b) * time.Microsecond
			}
			frac := (rank - cum) / c
			return lo + time.Duration(frac*float64(hi-lo))
		}
		cum += c
	}
	// rank == total with rounding slack: the maximum observed bin's top.
	for b := numBins - 1; b >= 0; b-- {
		if m.stages[s].count[b].Load() > 0 {
			if b == numBins-1 {
				return time.Duration(m.stages[s].totalNs[b].Load() / m.stages[s].count[b].Load())
			}
			return time.Duration(1<<b) * time.Microsecond
		}
	}
	return 0
}

// Put adds every value the collector holds to page, keyed by /metrics
// name: the protocol totals as stream/counter[…], the session and
// chunk-size gauges as stream/gauge[…], and per stage each non-empty
// bin's observation count and total nanoseconds, then the p50, p95 and
// p99 estimates in nanoseconds. InFlight is left to the caller: serve
// reports it as its window occupancy.
func (m *Metrics) Put(page map[string]int64) {
	c := m.Snapshot()
	for name, v := range map[string]int64{
		"aborts": c.Aborts, "alt_updates": c.AltUpdates,
		"body_updates": c.BodyUpdates, "chunks": c.Chunks,
		"commits": c.Commits, "compares": c.Compares,
		"degraded_chunks": c.Degraded, "faults": c.Faults,
		"inputs": c.Ingested, "orig_replicas": c.OrigReplicas,
		"orig_updates": c.OrigUpdates, "outputs": c.Emitted,
		"reexec_runs": c.ReexecRuns, "reexec_updates": c.ReexecUpdates,
		"retries": c.Retries, "sessions": c.Sessions,
		"snapshots": c.Snapshots, "spec_copies": c.SpecCopies,
	} {
		page["stream/counter["+name+"]"] = v
	}
	page["stream/gauge[active_sessions]"] = m.Active.Load()
	for s := Stage(0); s < numStages; s++ {
		stage := "stream/stage[" + stageNames[s] + "]/"
		for b := 0; b < numBins; b++ {
			if n := m.stages[s].count[b].Load(); n > 0 {
				bin := stage + "time" + binLabel(b) + "/"
				page[bin+"count"] = n
				page[bin+"total_ns"] = m.stages[s].totalNs[b].Load()
			}
		}
		if m.StageCount(s) > 0 {
			page[stage+"p50_ns"] = int64(m.Percentile(s, 0.50))
			page[stage+"p95_ns"] = int64(m.Percentile(s, 0.95))
			page[stage+"p99_ns"] = int64(m.Percentile(s, 0.99))
		}
	}
}
