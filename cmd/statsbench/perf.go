package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"

	"gostats/internal/bench"
	"gostats/internal/engine"
	"gostats/internal/rng"
)

// The -perf mode benchmarks the repo's own hot path — not the simulated
// machine, the real one: batch (engine.Run) and streaming (engine.Pipeline)
// executions on engine.NativeExec, measured in wall time and allocator
// traffic per input. Results land in BENCH_streaming.json so the perf
// trajectory is tracked in-repo and regressions show up in review.

// prePRBaseline records BenchmarkStreamPipeline (facetrack, 400 inputs,
// chunk 16, lookback 4, extra 1, seed 3) measured at commit c68759b,
// before the zero-copy state lifecycle landed — the comparison point the
// perf harness carries forward.
var prePRBaseline = map[string]perfRow{
	"stream/facetrack/workers=1": {Mode: "stream", Benchmark: "facetrack", Workers: 1, Inputs: 400,
		NsPerOp: 27728, BytesPerOp: 23925, AllocsPerOp: 17.6},
	"stream/facetrack/workers=4": {Mode: "stream", Benchmark: "facetrack", Workers: 4, Inputs: 400,
		NsPerOp: 28898, BytesPerOp: 23925, AllocsPerOp: 17.6},
}

// perfRow is one measured configuration. Per-op quantities are per input
// processed, matching the convention of the root BenchmarkStreamPipeline.
type perfRow struct {
	Mode        string  `json:"mode"` // "batch", "batch-events", "stream" or "adaptive"
	Benchmark   string  `json:"benchmark"`
	Workers     int     `json:"workers"` // stream: pool size; batch: chunk count
	Inputs      int     `json:"inputs"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	Commits     int64   `json:"commits"`
	Aborts      int64   `json:"aborts"`
	CommitRate  float64 `json:"commit_rate"`
	StatesReuse int64   `json:"states_reused,omitempty"`
	Resizes     int64   `json:"resizes,omitempty"`
	// Fault-tolerance counters from the engine event stream: faults
	// isolated, attempts retried, chunks degraded to sequential
	// re-execution. All zero on a healthy run — nonzero values in a perf
	// report mean the measurement absorbed recoveries and its figures
	// include recovery work.
	Faults   int64 `json:"faults,omitempty"`
	Retries  int64 `json:"retries,omitempty"`
	Degraded int64 `json:"degraded,omitempty"`
	// Overheads carries the engine event stream's countable overhead
	// totals for rows measured with a Counters sink attached.
	Overheads *engine.OverheadTotals `json:"overheads,omitempty"`
}

// goBenchRow is one committed `go test -bench` budget; CI's bench-guard
// step (cmd/benchguard) fails when a run exceeds it by more than its
// tolerance. NsPerOp, when nonzero, is gated too (with its own, looser
// tolerance — wall clock is noisier than allocator traffic).
type goBenchRow struct {
	AllocsPerOp float64 `json:"allocs_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
	NsPerOp     float64 `json:"ns_per_op,omitempty"`
}

// stageLatency is one pipeline stage's latency summary: observation
// count and p50/p95/p99 interpolated from the engine's power-of-two
// bins (engine.Metrics.Percentile).
type stageLatency struct {
	Count int64   `json:"count"`
	P50NS float64 `json:"p50_ns"`
	P95NS float64 `json:"p95_ns"`
	P99NS float64 `json:"p99_ns"`
}

// perfReport is the BENCH_streaming.json schema.
type perfReport struct {
	Note     string             `json:"note"`
	Go       string             `json:"go"`
	MaxProcs int                `json:"gomaxprocs"`
	Baseline map[string]perfRow `json:"pre_pr_baseline"`
	// GoBench is the committed benchmark baseline for cmd/benchguard. It
	// is carried forward verbatim when the report is regenerated; update
	// it deliberately when a PR moves the allocator budget.
	GoBench map[string]goBenchRow `json:"go_bench_baseline,omitempty"`
	Rows    map[string]perfRow    `json:"rows"`
	// Latency holds per-stage latency percentiles for the streaming rows,
	// keyed like Rows. cmd/benchguard gates the p99s against a freshly
	// measured report.
	Latency map[string]map[string]stageLatency `json:"latency,omitempty"`
	// Gateway is the statsgate cluster-simulation block; it is owned by
	// `statsgate -sim -json` and carried forward verbatim here.
	Gateway json.RawMessage `json:"gateway,omitempty"`
	// Workload is the spec-driven streaming block; it is owned by
	// `statsbench -workload` (see workload.go) and carried forward here.
	Workload json.RawMessage `json:"workload,omitempty"`
}

// runPerf measures every requested benchmark in batch mode (with and
// without the engine event stream attached) and in streaming mode at 1, 4,
// and GOMAXPROCS workers — plus, with autotune, the batch workloads under
// online adaptive chunk sizing — and writes the report.
func runPerf(names []string, nInputs int, seed, inputSeed uint64, outPath string, autotune bool, repeat int) error {
	report := perfReport{
		Note:     "per-op figures are per input processed on engine.NativeExec; regenerate with: go run ./cmd/statsbench -perf",
		Go:       runtime.Version(),
		MaxProcs: runtime.GOMAXPROCS(0),
		Baseline: prePRBaseline,
		Rows:     map[string]perfRow{},
		Latency:  map[string]map[string]stageLatency{},
	}
	// The go-bench budget and the gateway simulation block are committed
	// references owned by other tools, not measurements of this run: carry
	// them forward from the existing report.
	if old, err := os.ReadFile(outPath); err == nil {
		var prev perfReport
		if json.Unmarshal(old, &prev) == nil {
			report.GoBench = prev.GoBench
			report.Gateway = prev.Gateway
			report.Workload = prev.Workload
		}
	}
	if repeat < 1 {
		repeat = 1
	}
	workerCounts := dedupInts([]int{1, 4, runtime.GOMAXPROCS(0)})
	for _, name := range names {
		b, err := bench.New(name)
		if err != nil {
			return err
		}
		inputs := b.Inputs(rng.New(inputSeed))
		if nInputs > 0 && nInputs < len(inputs) {
			inputs = inputs[:nInputs]
		}

		row, err := perfBatch(b, inputs, seed, repeat)
		if err != nil {
			return err
		}
		report.Rows[fmt.Sprintf("batch/%s", name)] = row
		fmt.Printf("batch  %-18s            %10.0f ns/op %10.0f B/op %8.1f allocs/op\n",
			name, row.NsPerOp, row.BytesPerOp, row.AllocsPerOp)

		// The same batch run with the engine event stream attached: the
		// perf trajectory of the instrumented scheduler path, including
		// its countable overhead totals.
		row, err = perfBatchEvents(b, inputs, seed, repeat)
		if err != nil {
			return err
		}
		report.Rows[fmt.Sprintf("batch-events/%s", name)] = row
		fmt.Printf("batch+ %-18s            %10.0f ns/op %10.0f B/op %8.1f allocs/op\n",
			name, row.NsPerOp, row.BytesPerOp, row.AllocsPerOp)

		for _, w := range workerCounts {
			key := fmt.Sprintf("stream/%s/workers=%d", name, w)
			row, lat, err := perfStream(b, inputs, w, seed, repeat)
			if err != nil {
				return err
			}
			report.Rows[key] = row
			report.Latency[key] = lat
			faultNote := ""
			if row.Faults > 0 {
				faultNote = fmt.Sprintf("  faults %d retries %d degraded %d",
					row.Faults, row.Retries, row.Degraded)
			}
			fmt.Printf("stream %-18s workers=%-2d %10.0f ns/op %10.0f B/op %8.1f allocs/op  commit %.2f%s\n",
				name, w, row.NsPerOp, row.BytesPerOp, row.AllocsPerOp, row.CommitRate, faultNote)
			for _, st := range []string{"speculate", "validate", "commit"} {
				if l, ok := lat[st]; ok {
					fmt.Printf("       %-18s   %-12s p50 %s  p95 %s  p99 %s\n",
						"", st, time.Duration(l.P50NS), time.Duration(l.P95NS), time.Duration(l.P99NS))
				}
			}
		}

		if autotune {
			row, err := perfAdaptive(b, inputs, seed)
			if err != nil {
				return err
			}
			report.Rows[fmt.Sprintf("adaptive/%s", name)] = row
			fmt.Printf("adapt  %-18s workers=%-2d %10.0f ns/op %10.0f B/op %8.1f allocs/op  commit %.2f  resizes %d\n",
				name, row.Workers, row.NsPerOp, row.BytesPerOp, row.AllocsPerOp, row.CommitRate, row.Resizes)
		}
	}
	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	return os.WriteFile(outPath, data, 0o644)
}

// measure runs fn, returning wall time and allocator deltas. A GC fence
// on both sides keeps previously retired garbage out of the delta.
func measure(fn func() error) (time.Duration, uint64, uint64, error) {
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	err := fn()
	el := time.Since(t0)
	runtime.ReadMemStats(&m1)
	return el, m1.Mallocs - m0.Mallocs, m1.TotalAlloc - m0.TotalAlloc, err
}

func perfBatch(b bench.Benchmark, inputs []engine.Input, seed uint64, repeat int) (perfRow, error) {
	// Match the streaming shape: one chunk per 16 inputs.
	chunks := max(1, len(inputs)/16)
	cfg := engine.Config{Chunks: chunks, Lookback: 4, ExtraStates: 1, InnerWidth: 1, Seed: seed}
	var rep *engine.Report
	el, mallocs, bytes, err := measure(func() error {
		for it := 0; it < repeat; it++ {
			var err error
			rep, err = engine.Run(engine.NewNativeExec(), b, inputs, cfg)
			if err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return perfRow{}, err
	}
	n := float64(len(inputs) * repeat)
	commits, aborts := int64(rep.Commits), int64(rep.Aborts)
	return perfRow{
		Mode: "batch", Benchmark: b.Name(), Workers: chunks, Inputs: len(inputs),
		NsPerOp: float64(el.Nanoseconds()) / n, BytesPerOp: float64(bytes) / n,
		AllocsPerOp: float64(mallocs) / n,
		Commits:     commits, Aborts: aborts,
		CommitRate: float64(commits) / float64(max(1, int(commits+aborts))),
	}, nil
}

// perfBatchEvents measures the batch scheduler with the engine event
// stream attached (a Counters sink): the instrumented engine path. Commit,
// abort and overhead figures are rendered from the event stream, not from
// scheduler-private state.
func perfBatchEvents(b bench.Benchmark, inputs []engine.Input, seed uint64, repeat int) (perfRow, error) {
	chunks := max(1, len(inputs)/16)
	cfg := engine.Config{Chunks: chunks, Lookback: 4, ExtraStates: 1, InnerWidth: 1, Seed: seed}
	var snap engine.CounterSnapshot
	el, mallocs, bytes, err := measure(func() error {
		for it := 0; it < repeat; it++ {
			var ctr engine.Counters
			sched := &engine.BatchScheduler{Sink: &ctr}
			if _, err := sched.RunSlice(b, inputs, cfg); err != nil {
				return err
			}
			snap = ctr.Snapshot()
		}
		return nil
	})
	if err != nil {
		return perfRow{}, err
	}
	row := counterRow("batch-events", b.Name(), chunks, len(inputs), el, mallocs, bytes, snap, 0)
	return scalePerOp(row, repeat), nil
}

// scalePerOp divides a row's per-op figures by the repeat count: the
// measured totals covered repeat runs of the same Inputs-long workload.
func scalePerOp(row perfRow, repeat int) perfRow {
	if repeat > 1 {
		row.NsPerOp /= float64(repeat)
		row.BytesPerOp /= float64(repeat)
		row.AllocsPerOp /= float64(repeat)
	}
	return row
}

// perfAdaptive measures the batch workload under online adaptive chunk
// sizing (engine.RunAdaptive): same inputs, but the chunking emerges from
// commit/abort feedback instead of being fixed up front.
func perfAdaptive(b bench.Benchmark, inputs []engine.Input, seed uint64) (perfRow, error) {
	const workers = 4
	cfg := engine.Config{Chunks: max(1, len(inputs)/16), Lookback: 4, ExtraStates: 1, InnerWidth: 1, Seed: seed}
	var ctr engine.Counters
	el, mallocs, bytes, err := measure(func() error {
		_, err := engine.RunAdaptive(context.Background(), b, inputs, cfg, workers, &ctr)
		return err
	})
	if err != nil {
		return perfRow{}, err
	}
	return counterRow("adaptive", b.Name(), workers, len(inputs), el, mallocs, bytes, ctr.Snapshot(), 0), nil
}

// teeSink fans the event stream to the counters and the latency
// collector in one pass.
type teeSink struct{ a, b engine.Sink }

func (t teeSink) Event(e engine.Event) { t.a.Event(e); t.b.Event(e) }

// perfStream measures the streaming pipeline and summarizes its
// per-stage latency distribution (percentiles pooled across repeats).
func perfStream(b bench.Benchmark, inputs []engine.Input, workers int, seed uint64, repeat int) (perfRow, map[string]stageLatency, error) {
	var snap engine.CounterSnapshot
	var reused int64
	met := engine.NewMetrics()
	el, mallocs, bytes, err := measure(func() error {
		for it := 0; it < repeat; it++ {
			var ctr engine.Counters
			p, err := engine.NewStream(context.Background(), b, engine.StreamConfig{
				ChunkSize:   16,
				Lookback:    4,
				ExtraStates: 1,
				Workers:     workers,
				Seed:        seed,
				Sink:        teeSink{&ctr, met},
			})
			if err != nil {
				return err
			}
			done := make(chan struct{})
			go func() {
				defer close(done)
				for range p.Outputs() {
				}
			}()
			for _, in := range inputs {
				if err := p.Push(context.Background(), in); err != nil {
					return err
				}
			}
			p.Close()
			<-done
			stats, err := p.Wait()
			if err != nil {
				return err
			}
			snap, reused = ctr.Snapshot(), stats.Reused
		}
		return nil
	})
	if err != nil {
		return perfRow{}, nil, err
	}
	row := counterRow("stream", b.Name(), workers, len(inputs), el, mallocs, bytes, snap, reused)
	lat := map[string]stageLatency{}
	for _, s := range []engine.Stage{engine.StageIngestWait, engine.StageSpeculate,
		engine.StageValidate, engine.StageCommit, engine.StageReexec} {
		l := met.Latency(s)
		if l.Count == 0 {
			continue
		}
		lat[s.String()] = stageLatency{
			Count: l.Count,
			P50NS: float64(l.P50.Nanoseconds()),
			P95NS: float64(l.P95.Nanoseconds()),
			P99NS: float64(l.P99.Nanoseconds()),
		}
	}
	return scalePerOp(row, repeat), lat, nil
}

// counterRow folds one measured run and its engine counter snapshot into a
// report row. All protocol figures come from the canonical event stream.
func counterRow(mode, name string, workers, inputs int, el time.Duration, mallocs, bytes uint64, snap engine.CounterSnapshot, reused int64) perfRow {
	n := float64(inputs)
	ov := snap.Overheads()
	return perfRow{
		Mode: mode, Benchmark: name, Workers: workers, Inputs: inputs,
		NsPerOp: float64(el.Nanoseconds()) / n, BytesPerOp: float64(bytes) / n,
		AllocsPerOp: float64(mallocs) / n,
		Commits:     snap.Commits, Aborts: snap.Aborts,
		CommitRate:  float64(snap.Commits) / float64(max(1, int(snap.Commits+snap.Aborts))),
		StatesReuse: reused,
		Resizes:     snap.Resizes,
		Faults:      snap.Faults,
		Retries:     snap.Retries,
		Degraded:    snap.Degraded,
		Overheads:   &ov,
	}
}

// runAutotune runs each batch workload through the engine with online
// adaptive chunk sizing and prints how the chunking evolved: the autotuned
// counterpart of a fixed-chunk batch run, fed by the same commit/abort
// feedback loop the streaming pipeline uses.
func runAutotune(names []string, nInputs int, seed, inputSeed uint64) error {
	for _, name := range names {
		b, err := bench.New(name)
		if err != nil {
			return err
		}
		inputs := b.Inputs(rng.New(inputSeed))
		if nInputs > 0 && nInputs < len(inputs) {
			inputs = inputs[:nInputs]
		}
		row, err := perfAdaptive(b, inputs, seed)
		if err != nil {
			return err
		}
		fmt.Printf("%-18s inputs %-5d commits %-4d aborts %-3d commit-rate %.2f resizes %d\n",
			name, row.Inputs, row.Commits, row.Aborts, row.CommitRate, row.Resizes)
		ov := row.Overheads
		fmt.Printf("%-18s overhead: extra-computation %d  state-copies %d  mispeculation %d\n",
			"", ov.ExtraComputation, ov.StateCopies, ov.Mispeculation)
	}
	return nil
}

func dedupInts(xs []int) []int {
	seen := map[int]bool{}
	out := xs[:0]
	for _, x := range xs {
		if !seen[x] {
			seen[x] = true
			out = append(out, x)
		}
	}
	return out
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
