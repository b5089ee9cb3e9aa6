package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"

	"gostats/internal/bench"
	"gostats/internal/engine"
	"gostats/internal/workload"
)

// The -workload mode replays a workload spec (internal/workload) through
// real streaming pipelines: the spec's trace names every session
// (benchmark, length, seed, arrival time), each session runs on its own
// adaptive pipeline, and the report records what the protocol did under
// that load — commits, aborts and the autotune chunk-size trajectory —
// aggregated per benchmark and binned by arrival phase so nonstationary
// specs (modulators) show their shape. Every field is a function of the
// spec alone, whatever the schedule: the report carries no time, no
// allocation figure and no pool-reuse count, which is what lets
// TestWorkloadGolden hold it to the byte. What a session costs is the
// repository benchmark's question (BENCHMARK.json), asked as a ratio.

// workloadRow aggregates every session of one benchmark under one spec.
type workloadRow struct {
	Sessions   int     `json:"sessions"`
	Inputs     int     `json:"inputs"`
	Commits    int64   `json:"commits"`
	Aborts     int64   `json:"aborts"`
	CommitRate float64 `json:"commit_rate"`
	Resizes    int64   `json:"resizes"`
	// Chunk-size trajectory envelope across the benchmark's sessions:
	// the smallest and largest size autotune ever chose, and the size
	// the last session ended on.
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
	Commits    int64   `json:"commits"`
	Aborts     int64   `json:"aborts"`
	CommitRate float64 `json:"commit_rate"`
	Resizes    int64   `json:"resizes"`
}

// workloadReport is what -workload prints; Rows is keyed by benchmark.
type workloadReport struct {
	Spec     string                  `json:"spec"`
	Seed     uint64                  `json:"seed"`
	Sessions int                     `json:"sessions"`
	Rows     map[string]*workloadRow `json:"rows"`
	Phases   []workloadPhase         `json:"phases"`
}

// workloadPhases is how many arrival-time bins the report carries.
const workloadPhases = 4

// runWorkload generates the spec's trace, runs every session on a fresh
// adaptive streaming pipeline, and writes the aggregated report to w as
// indented JSON.
func runWorkload(specPath string, w io.Writer) error {
	spec, err := workload.Load(specPath)
	if err != nil {
		return err
	}
	trace, err := workload.Generate(spec)
	if err != nil {
		return err
	}
	rep := workloadReport{
		Spec: spec.Name, Seed: spec.Seed, Sessions: len(trace.Sessions),
		Rows:   map[string]*workloadRow{},
		Phases: make([]workloadPhase, workloadPhases),
	}
	span := trace.Sessions[len(trace.Sessions)-1].At + 1
	for i := range rep.Phases {
		rep.Phases[i] = workloadPhase{
			Phase:  i,
			FromNS: int64(i) * span / workloadPhases,
			ToNS:   int64(i+1) * span / workloadPhases,
		}
	}

	for _, s := range trace.Sessions {
		stats, err := runWorkloadSession(s)
		if err != nil {
			return fmt.Errorf("session %d (%s): %w", s.Seq, s.Benchmark, err)
		}
		r := rep.Rows[s.Benchmark]
		if r == nil {
			r = &workloadRow{}
			rep.Rows[s.Benchmark] = r
		}
		r.Sessions++
		r.Inputs += int(stats.Inputs)
		r.Commits += stats.Commits
		r.Aborts += stats.Aborts
		r.Resizes += stats.Resizes
		r.CommitRate = commitRate(r.Commits, r.Aborts)
		for _, pt := range stats.Trajectory {
			if r.ChunkMin == 0 || pt.Size < r.ChunkMin {
				r.ChunkMin = pt.Size
			}
			r.ChunkMax = max(r.ChunkMax, pt.Size)
			r.ChunkFinal = pt.Size
		}

		ph := &rep.Phases[min(int(s.At*workloadPhases/span), workloadPhases-1)]
		ph.Sessions++
		ph.Inputs += int(stats.Inputs)
		ph.Commits += stats.Commits
		ph.Aborts += stats.Aborts
		ph.Resizes += stats.Resizes
		ph.CommitRate = commitRate(ph.Commits, ph.Aborts)
	}

	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}

// commitRate is the share of chunks that committed, 0 when there were none.
func commitRate(commits, aborts int64) float64 {
	return float64(commits) / float64(max(1, commits+aborts))
}

// runWorkloadSession runs one trace session on a fresh adaptive pipeline
// and returns its drained stats.
func runWorkloadSession(s workload.Session) (engine.StreamStats, error) {
	b, err := bench.New(s.Benchmark)
	if err != nil {
		return engine.StreamStats{}, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	p, err := engine.NewStream(ctx, b, engine.StreamConfig{
		ChunkSize:   16,
		Lookback:    4,
		ExtraStates: 1,
		Workers:     4,
		Adapt:       true,
		Seed:        s.Seed,
	})
	if err != nil {
		return engine.StreamStats{}, err
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for range p.Outputs() {
		}
	}()
	for _, in := range workload.SessionInputs(b, s.Inputs, s.Seed) {
		if err := p.Push(ctx, in); err != nil {
			return engine.StreamStats{}, err
		}
	}
	p.Close()
	<-done
	return p.Wait()
}
