package gostats

// Benchmark harness: one testing.B entry point per paper artifact, plus
// micro-benchmarks of the core subsystems.
//
// The artifact benchmarks run reduced sessions (two benchmarks, small
// simulated machines) so `go test -bench=.` completes in minutes; the
// full-scale reproduction of every table and figure is
// `go run ./cmd/statsbench` (see EXPERIMENTS.md for recorded results).

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"testing"

	"gostats/internal/bench"
	_ "gostats/internal/bench/all"
	"gostats/internal/bench/facetrack"
	"gostats/internal/bench/trackutil"
	"gostats/internal/critpath"
	"gostats/internal/engine"
	"gostats/internal/experiments"
	"gostats/internal/machine"
	"gostats/internal/memsim"
	"gostats/internal/rng"
	"gostats/internal/trace"
	"gostats/internal/workload"
)

// artifactSession builds a reduced session for artifact benchmarks.
func artifactSession(b *testing.B) *experiments.Session {
	b.Helper()
	s, err := experiments.NewSession(experiments.Options{
		Benchmarks:  []string{"facedet-and-track", "facetrack"},
		Cores:       []int{4, 8},
		QualityRuns: 3,
	})
	if err != nil {
		b.Fatal(err)
	}
	return s
}

func runArtifact(b *testing.B, id string) {
	b.Helper()
	a, ok := experiments.ArtifactByID(id)
	if !ok {
		b.Fatalf("unknown artifact %q", id)
	}
	for i := 0; i < b.N; i++ {
		s := artifactSession(b)
		if err := a.Run(s, io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable1 regenerates Table I (threads and states).
func BenchmarkTable1(b *testing.B) { runArtifact(b, "table1") }

// BenchmarkFig9 regenerates Fig. 9 (speedups by TLP source).
func BenchmarkFig9(b *testing.B) { runArtifact(b, "fig9") }

// BenchmarkFig10 regenerates Fig. 10 (loss breakdown, combined TLP).
func BenchmarkFig10(b *testing.B) { runArtifact(b, "fig10") }

// BenchmarkFig11 regenerates Fig. 11 (extra-computation breakdown).
func BenchmarkFig11(b *testing.B) { runArtifact(b, "fig11") }

// BenchmarkFig12 regenerates Fig. 12 (loss breakdown, STATS TLP only).
func BenchmarkFig12(b *testing.B) { runArtifact(b, "fig12") }

// BenchmarkFig13 regenerates Fig. 13 (extra-computation breakdown,
// STATS TLP only).
func BenchmarkFig13(b *testing.B) { runArtifact(b, "fig13") }

// BenchmarkFig14 regenerates Figs. 14/15 (extra instructions).
func BenchmarkFig14(b *testing.B) { runArtifact(b, "fig14") }

// BenchmarkTable2 regenerates Table II (cache and branch behaviour).
func BenchmarkTable2(b *testing.B) { runArtifact(b, "table2") }

// BenchmarkFig16 regenerates Fig. 16 (output-quality distributions).
func BenchmarkFig16(b *testing.B) { runArtifact(b, "fig16") }

// ---------------------------------------------------------------------------
// Micro-benchmarks of the substrates

// BenchmarkMachineComputeEvents measures discrete-event throughput:
// spawn/compute/join cycles per simulated thread.
func BenchmarkMachineComputeEvents(b *testing.B) {
	for i := 0; i < b.N; i++ {
		m := machine.New(machine.DefaultConfig(8))
		err := m.Run("root", func(th *machine.Thread) {
			var kids []*machine.Thread
			for j := 0; j < 32; j++ {
				kids = append(kids, th.Spawn("w", func(w *machine.Thread) {
					for k := 0; k < 50; k++ {
						w.Compute(machine.Work{Instr: 100_000})
					}
				}))
			}
			for _, k := range kids {
				th.Join(k)
			}
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMachineMutexHandoff measures contended lock transfer cost.
func BenchmarkMachineMutexHandoff(b *testing.B) {
	for i := 0; i < b.N; i++ {
		m := machine.New(machine.DefaultConfig(4))
		mu := m.NewMutex()
		err := m.Run("root", func(th *machine.Thread) {
			var kids []*machine.Thread
			for j := 0; j < 4; j++ {
				kids = append(kids, th.Spawn("w", func(w *machine.Thread) {
					for k := 0; k < 100; k++ {
						mu.Lock(w)
						w.Compute(machine.Work{Instr: 500})
						mu.Unlock(w)
					}
				}))
			}
			for _, k := range kids {
				th.Join(k)
			}
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMemsimProcess measures the sampling cache/branch simulator.
func BenchmarkMemsimProcess(b *testing.B) {
	s := memsim.MustNewSystem(memsim.DefaultConfig(4, 2))
	p := memsim.AccessProfile{
		Name:    "bench",
		MemFrac: 0.4,
		Regions: []memsim.RegionRef{
			{Name: "hot", Bytes: 32 << 10, Frac: 0.6},
			{Name: "cold", Bytes: 64 << 20, Frac: 0.4, Stride: 8},
		},
		BranchFrac:  0.15,
		BranchBias:  0.9,
		BranchSites: 16,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Process(i%4, 10_000_000, p)
	}
}

// BenchmarkParticleFilterStep measures one tracker update (the real
// computation behind the tracking benchmarks).
func BenchmarkParticleFilterStep(b *testing.B) {
	r := rng.New(1)
	c := trackutil.NewCloud(200, 5, nil, 0.05, r)
	fr := trackutil.Frame{Obs: make([]float64, 5), True: make([]float64, 5), Quality: 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Step(fr, 0.03, 0.06, r)
	}
}

// BenchmarkSTATSRuntimeFacetrack measures a full STATS execution of the
// facetrack kernel on the simulated machine.
func BenchmarkSTATSRuntimeFacetrack(b *testing.B) {
	p := facetrack.Default()
	p.Frames = 150
	ft := facetrack.NewWithParams(p)
	ins := ft.Inputs(rng.New(1))
	cfg := engine.Config{Chunks: 8, Lookback: 6, ExtraStates: 1, InnerWidth: 1, Seed: 3}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := (&engine.SimScheduler{Config: machine.DefaultConfig(8)}).RunSlice(ft, ins, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCritpathWhatIf measures the what-if analysis on a real trace.
func BenchmarkCritpathWhatIf(b *testing.B) {
	p := facetrack.Default()
	p.Frames = 150
	ft := facetrack.NewWithParams(p)
	ins := ft.Inputs(rng.New(1))
	tr := trace.New()
	sim := &engine.SimScheduler{Config: machine.DefaultConfig(8), Options: []machine.Option{machine.WithTrace(tr)}}
	if _, err := sim.RunSlice(ft, ins,
		engine.Config{Chunks: 8, Lookback: 6, ExtraStates: 1, InnerWidth: 1, Seed: 3}); err != nil {
		b.Fatal(err)
	}
	an, err := critpath.New(tr)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		an.Makespan(critpath.WhatIf{Removed: critpath.ExtraComputationSet, RemoveWakeLatency: true})
	}
}

// BenchmarkStreamPipeline measures the streaming STATS pipeline
// (engine.Pipeline, the engine behind statsserved) end to end on
// facetrack at several worker-pool widths, reporting committed inputs
// per second alongside ns/op.
func BenchmarkStreamPipeline(b *testing.B) {
	p := facetrack.Default()
	p.Frames = 400
	ft := facetrack.NewWithParams(p)
	ins := ft.Inputs(rng.New(1))

	for _, workers := range []int{1, 4, runtime.GOMAXPROCS(0)} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			streamSessions(b, ft, ins, engine.StreamConfig{
				ChunkSize: 16, Lookback: 4, ExtraStates: 1,
				Workers: workers, Seed: 3,
			})
		})
	}
}

// BenchmarkStreamclusterSession runs one session of the repository
// benchmark's native-overhead shape per iteration: 2800 streamcluster
// inputs, chunk 16, lookback 4, one extra state, Workers 2. Under -trace
// it is EXPERIMENTS.md's scheduler-latency probe:
//
//	go test -run '^$' -bench StreamclusterSession -benchtime 60x -trace sched.trace .
//	go tool trace -pprof=sched sched.trace > sched.pprof
func BenchmarkStreamclusterSession(b *testing.B) {
	prog := bench.MustNew("streamcluster")
	streamSessions(b, prog, workload.SessionInputs(prog, 2800, 1), engine.StreamConfig{
		ChunkSize: 16, Lookback: 4, ExtraStates: 1, Workers: 2, Seed: 3,
	})
}

// streamSessions runs b.N streaming sessions of prog over ins, a producer
// goroutine pushing while the benchmark goroutine drains Outputs, and
// reports committed inputs per second.
func streamSessions(b *testing.B, prog engine.Program, ins []engine.Input, cfg engine.StreamConfig) {
	ctx := context.Background()
	for i := 0; i < b.N; i++ {
		pl, err := engine.NewStream(ctx, prog, cfg)
		if err != nil {
			b.Fatal(err)
		}
		go func() {
			defer pl.Close()
			for _, in := range ins {
				if pl.Push(ctx, in) != nil {
					return
				}
			}
		}()
		n := 0
		for range pl.Outputs() {
			n++
		}
		if _, err := pl.Wait(); err != nil {
			b.Fatal(err)
		}
		if n != len(ins) {
			b.Fatalf("committed %d of %d inputs", n, len(ins))
		}
	}
	b.ReportMetric(float64(len(ins)*b.N)/b.Elapsed().Seconds(), "inputs/sec")
}

// BenchmarkNativeRuntime measures the native runtime, the streaming
// pipeline with a worker per chunk, on a short facetrack sequence.
func BenchmarkNativeRuntime(b *testing.B) {
	p := facetrack.Default()
	p.Frames = 100
	ft := facetrack.NewWithParams(p)
	ins := ft.Inputs(rng.New(1))
	cfg := engine.Config{Chunks: 4, Lookback: 6, ExtraStates: 1, InnerWidth: 1, Seed: 3}
	batch := &engine.BatchScheduler{}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := batch.RunSlice(ft, ins, cfg); err != nil {
			b.Fatal(err)
		}
	}
}
