package engine

import (
	"context"
	"fmt"

	"gostats/internal/machine"
)

// Scheduler runs the full STATS protocol — chunking, alternative
// producers, multiple original states, deep-Match validation,
// commit/abort with in-place re-execution, state recycling — over a
// bounded input slice. The protocol itself lives in this package's
// primitives; a Scheduler only decides how chunks are mapped onto
// execution resources. There is one native runtime, the streaming
// pipeline, and one simulated one, the batch body:
//
//   - BatchScheduler: the pipeline with one worker per chunk.
//   - StreamScheduler: the pipeline with a worker pool of any size,
//     bounded queues and reused chunk records.
//   - SimScheduler: one thread per chunk on the cycle-accurate simulated
//     machine, the independent reference the pipeline is checked
//     against.
//
// Every scheduler emits the same canonical event stream for the same
// protocol decisions, and — for matching chunk boundaries and seed —
// produces byte-identical committed outputs.
type Scheduler interface {
	// Name identifies the scheduler in reports and test output.
	Name() string
	// RunSlice executes the protocol over inputs and returns the ordered
	// outputs plus resource statistics.
	RunSlice(p Program, inputs []Input, cfg Config) (*Report, error)
}

// BatchScheduler runs the protocol with one worker per chunk, the
// paper's original execution shape (§II-B, Fig. 5): it is the streaming
// pipeline with min(Chunks, len(inputs)) workers, so it spawns no
// per-chunk goroutine and reports no threads.
type BatchScheduler struct {
	// Sink, when non-nil, receives the run's engine events. Leaving it nil
	// skips all event timing on the hot path.
	Sink Sink
}

// Name implements Scheduler.
func (s *BatchScheduler) Name() string { return "batch" }

// RunSlice implements Scheduler.
func (s *BatchScheduler) RunSlice(p Program, inputs []Input, cfg Config) (*Report, error) {
	return (&StreamScheduler{Workers: min(cfg.Chunks, len(inputs)), Sink: s.Sink}).RunSlice(p, inputs, cfg)
}

// StreamScheduler runs the protocol by feeding the bounded slice through
// the streaming pipeline: a fixed worker pool, bounded queues with
// backpressure, ordered commit at the frontier, record and state reuse.
// It plans the pipeline's chunk sizes from Partition, so for the same
// (seed, inputs, cfg) its committed outputs are byte-identical to
// SimScheduler's, and to BatchScheduler's at any worker count. The
// pipeline runs on NativeExec, which runs no gang, so cfg's inner width
// does not reach it.
type StreamScheduler struct {
	// Ctx bounds the run; nil uses context.Background().
	Ctx context.Context
	// Workers is the worker-pool size; 0 uses the pipeline default (4).
	Workers int
	// Sink, when non-nil, receives the run's engine events. Leaving it nil
	// skips all event timing on the hot path.
	Sink Sink
}

// Name implements Scheduler.
func (s *StreamScheduler) Name() string { return "stream" }

// RunSlice implements Scheduler.
func (s *StreamScheduler) RunSlice(p Program, inputs []Input, cfg Config) (*Report, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(inputs) == 0 {
		return nil, fmt.Errorf("engine: empty input stream")
	}
	bounds := Partition(len(inputs), cfg.Chunks)
	scfg := StreamConfig{
		Plan:        make([]int, len(bounds)),
		Lookback:    cfg.Lookback,
		ExtraStates: cfg.ExtraStates,
		Workers:     s.Workers,
		Seed:        cfg.Seed,
		Sink:        s.Sink,
	}
	for i, b := range bounds {
		scfg.Plan[i] = b[1] - b[0]
	}
	scfg.ChunkSize = scfg.Plan[0] // Partition puts the largest chunks first
	return runStream(s.Ctx, p, inputs, scfg)
}

// SimScheduler runs the batch body — one machine thread per chunk, commit
// decisions passed down a mutex/cond chain (§II-B, Fig. 5) — on the
// cycle-accurate simulated machine (package machine); it is the body's one
// entry point. It is not goroutine-safe: each RunSlice builds a fresh
// machine, kept accessible through Cycles, Accounting and Machine until
// the next run.
type SimScheduler struct {
	// Config is the simulated platform; zero-value Cores is rejected, use
	// machine.DefaultConfig.
	Config machine.Config
	// Options attach a trace recorder or memory-system simulator.
	Options []machine.Option
	// Sink, when non-nil, receives the run's engine events. Event
	// timestamps are wall-clock (host) times; cycle-exact attribution
	// comes from the machine trace instead.
	Sink Sink

	m *machine.Machine
}

// Name implements Scheduler.
func (s *SimScheduler) Name() string { return "sim" }

// RunSlice implements Scheduler.
func (s *SimScheduler) RunSlice(p Program, inputs []Input, cfg Config) (*Report, error) {
	s.m = machine.New(s.Config, s.Options...)
	var rep *Report
	var runErr error
	err := s.m.Run("main", func(th *machine.Thread) {
		rep, runErr = runBatch(NewSimExec(th), p, inputs, cfg, s.Sink)
	})
	if err != nil {
		return nil, err
	}
	return rep, runErr
}

// Cycles returns the simulated makespan of the last RunSlice.
func (s *SimScheduler) Cycles() int64 {
	if s.m == nil {
		return 0
	}
	return s.m.Now()
}

// Accounting returns the per-category cycle accounting of the last
// RunSlice.
func (s *SimScheduler) Accounting() machine.Accounting {
	if s.m == nil {
		return machine.Accounting{}
	}
	return s.m.Accounting()
}

// Machine returns the simulated machine of the last RunSlice (nil before
// the first).
func (s *SimScheduler) Machine() *machine.Machine { return s.m }

// runStream drives one pipeline session over a bounded slice and folds
// the result into a batch-shaped Report.
func runStream(ctx context.Context, p Program, inputs []Input, scfg StreamConfig) (*Report, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	pl, err := NewStream(ctx, p, scfg)
	if err != nil {
		return nil, err
	}
	outs := make([]Output, 0, len(inputs))
	done := make(chan struct{})
	go func() {
		defer close(done)
		for out := range pl.Outputs() {
			outs = append(outs, out)
		}
	}()
	var pushErr error
	for _, in := range inputs {
		if pushErr = pl.Push(ctx, in); pushErr != nil {
			break
		}
	}
	pl.Close()
	<-done
	stats, waitErr := pl.Wait()
	// A terminal session failure (e.g. FaultError) surfaces through Wait
	// and also aborts in-flight Pushes; prefer the root cause.
	if waitErr != nil {
		return nil, waitErr
	}
	if pushErr != nil {
		return nil, pushErr
	}
	return &Report{
		Outputs:       outs,
		Commits:       int(stats.Commits),
		Aborts:        int(stats.Aborts),
		Chunks:        int(stats.Chunks),
		StatesCreated: int(stats.States),
		StateBytes:    p.StateBytes(),
	}, nil
}
