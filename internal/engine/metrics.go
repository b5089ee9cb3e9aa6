package engine

import (
	"fmt"
	"io"
	"math/bits"
	"sort"
	"sync/atomic"
	"time"
)

// Binned wall-clock metrics in the style of flow-go's binstat: a fixed,
// small number of power-of-two latency bins per pipeline stage, updated
// with two atomic adds per observation. That keeps the hot path free of
// locks, allocation, and formatting regardless of how many inputs flow
// through, while still exposing the latency *shape* of every stage (a
// mean hides exactly the bimodality that distinguishes a healthy
// speculative pipeline from one stalling on aborts).
//
// Metrics is a Sink: it renders the engine's canonical event stream, so
// the same collector serves a streaming session, a batch run with a
// BatchScheduler sink, or both at once. A Metrics value may be shared by
// any number of pipelines (statsserved aggregates all sessions into one);
// all methods are goroutine-safe.

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
		return fmt.Sprintf("stage-%d", int(s))
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
	if b == 0 {
		return "[0,1us)"
	}
	lo := time.Duration(1<<(b-1)) * time.Microsecond
	if b == numBins-1 {
		return fmt.Sprintf("[%s,inf)", lo)
	}
	return fmt.Sprintf("[%s,%s)", lo, time.Duration(1<<b)*time.Microsecond)
}

// stageBins is one stage's histogram.
type stageBins struct {
	count   [numBins]atomic.Int64
	totalNs [numBins]atomic.Int64
}

// Metrics collects binned stage latencies and pipeline counters from the
// engine event stream. The zero value is NOT usable; call NewMetrics.
type Metrics struct {
	stages [numStages]stageBins

	// Counters, aggregated across every scheduler run sharing this
	// Metrics.
	Inputs    atomic.Int64 // inputs ingested
	Outputs   atomic.Int64 // outputs committed and emitted
	Chunks    atomic.Int64 // chunks dispatched to workers
	Commits   atomic.Int64 // chunks whose speculation committed
	Aborts    atomic.Int64 // chunks that mispeculated and re-executed
	Resizes   atomic.Int64 // online chunk-size changes
	Sessions  atomic.Int64 // scheduler runs ever attached
	Active    atomic.Int64 // scheduler runs currently executing
	InFlight  atomic.Int64 // chunks currently speculating
	ChunkSize atomic.Int64 // most recent chunk size chosen
	Faults    atomic.Int64 // chunk faults isolated (panics, missed deadlines)
	Retries   atomic.Int64 // faulted attempts retried after backoff
	Degraded  atomic.Int64 // chunks degraded to sequential re-execution
}

// NewMetrics returns an empty collector.
func NewMetrics() *Metrics { return &Metrics{} }

// Event implements Sink: it folds one engine event into the counters and
// stage histograms. This is the only aggregation path — schedulers keep
// no private metric state.
func (m *Metrics) Event(e Event) {
	switch e.Kind {
	case EvSessionStart:
		m.Sessions.Add(1)
		m.Active.Add(1)
		if e.N > 0 {
			m.ChunkSize.Store(int64(e.N))
		}
	case EvSessionEnd:
		m.Active.Add(-1)
	case EvIngest:
		m.Inputs.Add(int64(e.N))
	case EvIngestWait:
		m.Observe(StageIngestWait, e.Dur)
	case EvChunk:
		m.Chunks.Add(1)
		m.InFlight.Add(1)
	case EvResize:
		m.Resizes.Add(int64(e.M))
		m.ChunkSize.Store(int64(e.N))
	case EvSpeculated:
		m.Observe(StageSpeculate, e.Dur)
	case EvValidated:
		m.Observe(StageValidate, e.Dur)
	case EvCommitted:
		m.Commits.Add(1)
	case EvAborted:
		m.Aborts.Add(1)
	case EvReexec:
		m.Observe(StageReexec, e.Dur)
	case EvOutputs:
		m.Outputs.Add(int64(e.N))
		m.Observe(StageCommit, e.Dur)
		m.InFlight.Add(-1)
	case EvFault:
		m.Faults.Add(1)
	case EvRetry:
		m.Retries.Add(1)
	case EvDegraded:
		m.Degraded.Add(1)
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
// bounded by the bin width — good enough to track tail movement across
// runs, which is what the perf harness gates on.
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
	rank := q * float64(total)
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

// StageLatency is a stage's summarized latency distribution.
type StageLatency struct {
	Count         int64
	P50, P95, P99 time.Duration
}

// Latency summarizes a stage: observation count and interpolated
// p50/p95/p99.
func (m *Metrics) Latency(s Stage) StageLatency {
	return StageLatency{
		Count: m.StageCount(s),
		P50:   m.Percentile(s, 0.50),
		P95:   m.Percentile(s, 0.95),
		P99:   m.Percentile(s, 0.99),
	}
}

// WriteText renders the collector in a stable, grep-friendly text format
// (one line per non-empty bin plus one line per counter), the format
// statsserved serves at /metrics.
func (m *Metrics) WriteText(w io.Writer) error {
	counters := []struct {
		name string
		v    *atomic.Int64
	}{
		{"inputs", &m.Inputs}, {"outputs", &m.Outputs},
		{"chunks", &m.Chunks}, {"commits", &m.Commits},
		{"aborts", &m.Aborts}, {"resizes", &m.Resizes},
		{"sessions", &m.Sessions}, {"active_sessions", &m.Active},
		{"inflight_chunks", &m.InFlight}, {"chunk_size", &m.ChunkSize},
		{"faults", &m.Faults}, {"retries", &m.Retries},
		{"degraded_chunks", &m.Degraded},
	}
	sort.SliceStable(counters, func(i, j int) bool { return counters[i].name < counters[j].name })
	for _, c := range counters {
		if _, err := fmt.Fprintf(w, "stream/counter[%s]=%d\n", c.name, c.v.Load()); err != nil {
			return err
		}
	}
	for s := Stage(0); s < numStages; s++ {
		for b := 0; b < numBins; b++ {
			n := m.stages[s].count[b].Load()
			if n == 0 {
				continue
			}
			tot := time.Duration(m.stages[s].totalNs[b].Load())
			if _, err := fmt.Fprintf(w, "stream/stage[%s]/time%s=%d %.6f\n",
				stageNames[s], binLabel(b), n, tot.Seconds()); err != nil {
				return err
			}
		}
		if m.StageCount(s) == 0 {
			continue
		}
		for _, pq := range []struct {
			label string
			q     float64
		}{{"p50", 0.50}, {"p95", 0.95}, {"p99", 0.99}} {
			if _, err := fmt.Fprintf(w, "stream/stage[%s]/%s=%.6f\n",
				stageNames[s], pq.label, m.Percentile(s, pq.q).Seconds()); err != nil {
				return err
			}
		}
	}
	return nil
}
