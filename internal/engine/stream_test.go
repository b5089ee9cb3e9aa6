package engine_test

import (
	"context"
	"math"
	"reflect"
	"testing"
	"time"

	"gostats/internal/bench/facetrack"
	"gostats/internal/engine"
	"gostats/internal/machine"
	"gostats/internal/rng"
)

// toyProg mirrors the core tests' minimal short-memory program:
// v' = decay*v + in + noise, with a configurable Match tolerance.
type toyProg struct {
	decay, noise, tol float64
	neverMatch        bool
}

type toyState struct {
	v float64
	n int
}

func (p *toyProg) Name() string                       { return "toy" }
func (p *toyProg) Initial(r *rng.Stream) engine.State { return &toyState{v: 100} }
func (p *toyProg) Fresh(r *rng.Stream) engine.State   { return &toyState{} }

func (p *toyProg) Update(s engine.State, in engine.Input, r *rng.Stream) (engine.State, engine.Output) {
	st := s.(*toyState)
	st.v = p.decay*st.v + in.(float64) + p.noise*(2*r.Float64()-1)
	st.n++
	return st, st.v
}

func (p *toyProg) Clone(s engine.State) engine.State {
	c := *s.(*toyState)
	return &c
}

func (p *toyProg) Match(a, b engine.State) bool {
	if p.neverMatch {
		return false
	}
	return math.Abs(a.(*toyState).v-b.(*toyState).v) <= p.tol
}

func (p *toyProg) StateBytes() int64 { return 16 }
func (p *toyProg) UpdateCost(engine.Input, engine.State) engine.UpdateWork {
	return engine.UpdateWork{Grain: 1}
}
func (p *toyProg) CompareCost() machine.Work     { return machine.Work{} }
func (p *toyProg) SetupWork(int) machine.Work    { return machine.Work{} }
func (p *toyProg) TeardownWork(int) machine.Work { return machine.Work{} }
func (p *toyProg) PreRegionWork() machine.Work   { return machine.Work{} }
func (p *toyProg) PostRegionWork() machine.Work  { return machine.Work{} }

func toyInputs(n int) []engine.Input {
	ins := make([]engine.Input, n)
	for i := range ins {
		ins[i] = float64(i%7) + 1
	}
	return ins
}

// collect pushes every input, closes the pipeline, and gathers the
// committed output sequence.
func collect(t *testing.T, ctx context.Context, p *engine.Pipeline, inputs []engine.Input) ([]engine.Output, engine.StreamStats) {
	t.Helper()
	pushErr := make(chan error, 1)
	go func() {
		defer p.Close()
		for _, in := range inputs {
			if err := p.Push(ctx, in); err != nil {
				pushErr <- err
				return
			}
		}
		pushErr <- nil
	}()
	var outs []engine.Output
	for out := range p.Outputs() {
		outs = append(outs, out)
	}
	if err := <-pushErr; err != nil {
		t.Fatalf("push: %v", err)
	}
	stats, err := p.Wait()
	if err != nil {
		t.Fatalf("wait: %v", err)
	}
	return outs, stats
}

// TestStreamMatchesBatchRun is the pipeline's semantic anchor: with chunk
// boundaries matching engine.Run's partition, the streaming committed
// output sequence is IDENTICAL to the batch runtime's — the simulated
// machine's batch body, the one runtime independent of the pipeline — for
// a real benchmark with real nondeterminism and occasional mispeculation.
func TestStreamMatchesBatchRun(t *testing.T) {
	params := facetrack.Default()
	params.Frames = 120
	ft := facetrack.NewWithParams(params)
	inputs := ft.Inputs(rng.New(7))

	const chunkSize, seed = 20, 11
	batch, err := (&engine.SimScheduler{Config: machine.DefaultConfig(8)}).RunSlice(ft, inputs, engine.Config{
		Chunks: len(inputs) / chunkSize, Lookback: 6, ExtraStates: 1, InnerWidth: 1, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}

	ctx := context.Background()
	p, err := engine.NewStream(ctx, ft, engine.StreamConfig{
		ChunkSize: chunkSize, Lookback: 6, ExtraStates: 1, Workers: 3, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	outs, stats := collect(t, ctx, p, inputs)

	if len(outs) != len(batch.Outputs) {
		t.Fatalf("stream emitted %d outputs, batch %d", len(outs), len(batch.Outputs))
	}
	for i := range outs {
		if !reflect.DeepEqual(outs[i], batch.Outputs[i]) {
			t.Fatalf("output %d differs:\n stream: %#v\n batch:  %#v", i, outs[i], batch.Outputs[i])
		}
	}
	if stats.Commits+stats.Aborts != stats.Chunks {
		t.Fatalf("commits %d + aborts %d != chunks %d", stats.Commits, stats.Aborts, stats.Chunks)
	}
	if int(stats.Commits) != batch.Commits || int(stats.Aborts) != batch.Aborts {
		t.Fatalf("stream commits/aborts %d/%d, batch %d/%d",
			stats.Commits, stats.Aborts, batch.Commits, batch.Aborts)
	}
}

// TestAbortsRecoverInOrder forces every speculation to fail: the pipeline
// must re-execute each chunk from the true predecessor state, and with
// zero nondeterminism the committed sequence equals the sequential run's.
func TestAbortsRecoverInOrder(t *testing.T) {
	prog := &toyProg{decay: 0.9, neverMatch: true}
	inputs := toyInputs(100)
	seq := engine.RunSequential(engine.NewNativeExec(), prog, inputs, 5)

	ctx := context.Background()
	p, err := engine.NewStream(ctx, prog, engine.StreamConfig{
		ChunkSize: 10, Lookback: 4, ExtraStates: 1, Workers: 4, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	outs, stats := collect(t, ctx, p, inputs)

	if len(outs) != len(inputs) {
		t.Fatalf("got %d outputs, want %d", len(outs), len(inputs))
	}
	for i := range outs {
		if outs[i].(float64) != seq.Outputs[i].(float64) {
			t.Fatalf("output %d: stream %v != sequential %v", i, outs[i], seq.Outputs[i])
		}
	}
	if stats.Aborts != stats.Chunks-1 || stats.Commits != 1 {
		t.Fatalf("never-match: commits %d aborts %d chunks %d, want 1/%d",
			stats.Commits, stats.Aborts, stats.Chunks, stats.Chunks-1)
	}
}

// TestAdaptiveGrowsChunksUnderAborts checks the autotune feedback loop:
// a mispeculation storm must trigger online chunk-size growth, without
// perturbing output correctness.
func TestAdaptiveGrowsChunksUnderAborts(t *testing.T) {
	prog := &toyProg{decay: 0.9, neverMatch: true}
	inputs := toyInputs(300)
	seq := engine.RunSequential(engine.NewNativeExec(), prog, inputs, 5)

	ctx := context.Background()
	p, err := engine.NewStream(ctx, prog, engine.StreamConfig{
		ChunkSize: 4, Lookback: 2, ExtraStates: 0, Workers: 4, Seed: 5,
		Adapt: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	outs, stats := collect(t, ctx, p, inputs)

	if stats.Resizes == 0 {
		t.Fatalf("all-abort stream produced no chunk-size retunes (chunks=%d aborts=%d)",
			stats.Chunks, stats.Aborts)
	}
	for i := range outs {
		if outs[i].(float64) != seq.Outputs[i].(float64) {
			t.Fatalf("output %d: stream %v != sequential %v", i, outs[i], seq.Outputs[i])
		}
	}
}

// TestBackpressureBlocksPush wedges the downstream (nobody consumes
// Outputs) and checks that Push eventually blocks instead of buffering
// unboundedly, and that the blocked Push honors its context.
func TestBackpressureBlocksPush(t *testing.T) {
	prog := &toyProg{decay: 0.9, tol: 1e9}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	p, err := engine.NewStream(ctx, prog, engine.StreamConfig{
		ChunkSize: 2, Lookback: 1, Workers: 1, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	blocked := false
	for i := 0; i < 1000; i++ {
		pctx, pcancel := context.WithTimeout(ctx, 20*time.Millisecond)
		err := p.Push(pctx, float64(i))
		pcancel()
		if err != nil {
			blocked = true
			break
		}
	}
	if !blocked {
		t.Fatal("Push never blocked with a wedged consumer")
	}
	cancel()
	if _, err := p.Wait(); err == nil {
		t.Fatal("Wait after cancel returned nil error")
	}
}

// TestCancelDrainsGoroutines abandons a mid-flight stream and verifies
// the pipeline fully unwinds: Wait returns the cancellation and the
// Outputs channel closes.
func TestCancelDrainsGoroutines(t *testing.T) {
	prog := &toyProg{decay: 0.9, tol: 1e9}
	ctx, cancel := context.WithCancel(context.Background())
	p, err := engine.NewStream(ctx, prog, engine.StreamConfig{
		ChunkSize: 5, Lookback: 2, Workers: 2, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	// 30 inputs fit within the pipeline's absorbable capacity (dispatched
	// chunks + ingest queue) even with Outputs unconsumed, so every Push
	// succeeds and the stream is genuinely mid-flight when we cancel.
	for i := 0; i < 30; i++ {
		if err := p.Push(ctx, float64(i)); err != nil {
			t.Fatalf("push %d: %v", i, err)
		}
	}
	cancel()
	// Wait returns only after every pipeline goroutine exited.
	if _, err := p.Wait(); err != context.Canceled {
		t.Fatalf("Wait = %v, want context.Canceled", err)
	}
	deadline := time.After(2 * time.Second)
	for {
		select {
		case _, open := <-p.Outputs():
			if !open {
				return
			}
		case <-deadline:
			t.Fatal("Outputs did not close after cancellation")
		}
	}
}

// TestEmptySession closes a pipeline that never saw an input.
func TestEmptySession(t *testing.T) {
	prog := &toyProg{decay: 0.9, tol: 1e9}
	ctx := context.Background()
	p, err := engine.NewStream(ctx, prog, engine.StreamConfig{ChunkSize: 4, Lookback: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	p.Close()
	if _, open := <-p.Outputs(); open {
		t.Fatal("empty session emitted an output")
	}
	stats, err := p.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Chunks != 0 || stats.Outputs != 0 {
		t.Fatalf("empty session stats: %+v", stats)
	}
	if err := p.Push(ctx, 1.0); err != engine.ErrClosed {
		t.Fatalf("Push after Close = %v, want ErrClosed", err)
	}
}
