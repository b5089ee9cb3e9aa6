package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"time"

	"gostats/internal/bench"
	"gostats/internal/engine"
	"gostats/internal/workload"
)

// The -workload mode replays a workload spec (internal/workload) through
// real streaming pipelines: the spec's trace names every session
// (benchmark, length, seed, arrival time), each session runs on its own
// adaptive pipeline, and the report records what the protocol did under
// that load — commit/abort rates, the autotune chunk-size trajectory,
// and per-op cost — aggregated per benchmark and binned by arrival
// phase so nonstationary specs (modulators) show their shape. Results
// land in BENCH_streaming.json's "workload" block, gated by
// cmd/benchguard alongside the perf rows.

// workloadRow aggregates every session of one benchmark under one spec.
// Keys in the report are "workload/<spec>/<benchmark>".
type workloadRow struct {
	Benchmark   string  `json:"benchmark"`
	Sessions    int     `json:"sessions"`
	Inputs      int     `json:"inputs"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	Commits     int64   `json:"commits"`
	Aborts      int64   `json:"aborts"`
	CommitRate  float64 `json:"commit_rate"`
	Resizes     int64   `json:"resizes"`
	// Chunk-size trajectory envelope across the benchmark's sessions:
	// the smallest and largest size autotune ever chose, and the size
	// the last session ended on. Deterministic for a fixed spec.
	ChunkMin   int `json:"chunk_min"`
	ChunkMax   int `json:"chunk_max"`
	ChunkFinal int `json:"chunk_final"`
}

// workloadPhase is one arrival-time bin of the trace: the sessions whose
// At falls inside [FromNS, ToNS). Nonstationary specs (diurnal, on/off
// modulators) show up as phase-to-phase swings in session density and
// commit rate.
type workloadPhase struct {
	Phase      int     `json:"phase"`
	FromNS     int64   `json:"from_ns"`
	ToNS       int64   `json:"to_ns"`
	Sessions   int     `json:"sessions"`
	Inputs     int     `json:"inputs"`
	CommitRate float64 `json:"commit_rate"`
	Resizes    int64   `json:"resizes"`
}

// workloadReport is the "workload" block of BENCH_streaming.json.
type workloadReport struct {
	Note     string                 `json:"note"`
	Spec     string                 `json:"spec"`
	Seed     uint64                 `json:"seed"`
	Sessions int                    `json:"sessions"`
	Rows     map[string]workloadRow `json:"rows"`
	Phases   []workloadPhase        `json:"phases"`
}

// workloadPhases is how many arrival-time bins the report carries.
const workloadPhases = 4

// runWorkload generates the spec's trace, runs every session on a fresh
// adaptive streaming pipeline, and writes the aggregated block into the
// report at outPath (other blocks carried forward verbatim).
func runWorkload(specPath, outPath string, repeat int) error {
	spec, err := workload.Load(specPath)
	if err != nil {
		return err
	}
	trace, err := workload.Generate(spec)
	if err != nil {
		return err
	}
	if repeat < 1 {
		repeat = 1
	}

	wr := workloadReport{
		Note: "adaptive streaming pipelines driven by the spec's trace; regenerate with: go run ./cmd/statsbench -workload " + specPath,
		Spec: spec.Name, Seed: spec.Seed, Sessions: len(trace.Sessions),
		Rows: map[string]workloadRow{},
	}

	span := trace.Sessions[len(trace.Sessions)-1].At + 1
	phases := make([]workloadPhase, workloadPhases)
	phaseCommits := make([]int64, workloadPhases)
	phaseAborts := make([]int64, workloadPhases)
	for i := range phases {
		phases[i] = workloadPhase{
			Phase:  i,
			FromNS: int64(i) * span / workloadPhases,
			ToNS:   int64(i+1) * span / workloadPhases,
		}
	}

	rows := map[string]*workloadRow{}
	var totalNS int64
	var totalMallocs, totalBytes uint64
	rowNS := map[string]int64{}
	rowMallocs := map[string]uint64{}
	rowBytes := map[string]uint64{}
	for _, s := range trace.Sessions {
		stats, el, mallocs, bytes, err := runWorkloadSession(s, repeat)
		if err != nil {
			return fmt.Errorf("session %d (%s): %w", s.Seq, s.Benchmark, err)
		}
		r := rows[s.Benchmark]
		if r == nil {
			r = &workloadRow{Benchmark: s.Benchmark}
			rows[s.Benchmark] = r
		}
		r.Sessions++
		r.Inputs += int(stats.Inputs)
		r.Commits += stats.Commits
		r.Aborts += stats.Aborts
		r.Resizes += stats.Resizes
		for _, pt := range stats.Trajectory {
			if r.ChunkMin == 0 || pt.Size < r.ChunkMin {
				r.ChunkMin = pt.Size
			}
			if pt.Size > r.ChunkMax {
				r.ChunkMax = pt.Size
			}
			r.ChunkFinal = pt.Size
		}
		rowNS[s.Benchmark] += el.Nanoseconds()
		rowMallocs[s.Benchmark] += mallocs
		rowBytes[s.Benchmark] += bytes
		totalNS += el.Nanoseconds()
		totalMallocs += mallocs
		totalBytes += bytes

		bin := int(s.At * workloadPhases / span)
		if bin >= workloadPhases {
			bin = workloadPhases - 1
		}
		phases[bin].Sessions++
		phases[bin].Inputs += int(stats.Inputs)
		phases[bin].Resizes += stats.Resizes
		phaseCommits[bin] += stats.Commits
		phaseAborts[bin] += stats.Aborts
	}

	names := make([]string, 0, len(rows))
	for name := range rows {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		r := rows[name]
		n := float64(r.Inputs * repeat)
		r.NsPerOp = float64(rowNS[name]) / n
		r.BytesPerOp = float64(rowBytes[name]) / n
		r.AllocsPerOp = float64(rowMallocs[name]) / n
		r.CommitRate = float64(r.Commits) / float64(maxI64(1, r.Commits+r.Aborts))
		wr.Rows[fmt.Sprintf("workload/%s/%s", spec.Name, name)] = *r
		fmt.Printf("workload %-18s sessions=%-3d inputs=%-6d %10.0f ns/op %8.1f allocs/op  commit %.2f  chunks [%d..%d] final %d\n",
			name, r.Sessions, r.Inputs, r.NsPerOp, r.AllocsPerOp, r.CommitRate, r.ChunkMin, r.ChunkMax, r.ChunkFinal)
	}
	for i := range phases {
		phases[i].CommitRate = float64(phaseCommits[i]) / float64(maxI64(1, phaseCommits[i]+phaseAborts[i]))
		fmt.Printf("phase %d  [%8s..%8s)  sessions=%-3d inputs=%-6d commit %.2f  resizes %d\n",
			i, time.Duration(phases[i].FromNS), time.Duration(phases[i].ToNS),
			phases[i].Sessions, phases[i].Inputs, phases[i].CommitRate, phases[i].Resizes)
	}
	wr.Phases = phases

	return writeWorkloadBlock(outPath, wr)
}

// runWorkloadSession runs one trace session on a fresh adaptive pipeline
// and returns its drained stats plus the measured wall/allocator cost.
// The protocol counters come from the last repeat (identical each pass —
// same seed, same inputs); the cost totals cover all repeats.
func runWorkloadSession(s workload.Session, repeat int) (engine.StreamStats, time.Duration, uint64, uint64, error) {
	b, err := bench.New(s.Benchmark)
	if err != nil {
		return engine.StreamStats{}, 0, 0, 0, err
	}
	inputs := workload.SessionInputs(b, s.Inputs, s.Seed)
	var stats engine.StreamStats
	el, mallocs, bytes, err := measure(func() error {
		for it := 0; it < repeat; it++ {
			p, err := engine.NewStream(context.Background(), b, engine.StreamConfig{
				ChunkSize:   16,
				Lookback:    4,
				ExtraStates: 1,
				Workers:     4,
				Adapt:       true,
				Seed:        s.Seed,
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
			stats, err = p.Wait()
			if err != nil {
				return err
			}
		}
		return nil
	})
	return stats, el, mallocs, bytes, err
}

// writeWorkloadBlock installs the block into the report at outPath,
// carrying every other block forward verbatim (runPerf owns them).
func writeWorkloadBlock(outPath string, wr workloadReport) error {
	var report perfReport
	if old, err := os.ReadFile(outPath); err == nil {
		if err := json.Unmarshal(old, &report); err != nil {
			return fmt.Errorf("parsing existing %s: %w", outPath, err)
		}
	} else {
		report.Note = "regenerate with: go run ./cmd/statsbench -perf"
	}
	blob, err := json.Marshal(wr)
	if err != nil {
		return err
	}
	report.Workload = blob
	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	return os.WriteFile(outPath, data, 0o644)
}

func maxI64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
