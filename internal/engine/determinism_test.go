package engine_test

import (
	"bytes"
	"context"
	"testing"

	"gostats/internal/bench"
	_ "gostats/internal/bench/all"
	"gostats/internal/engine"
	"gostats/internal/rng"
)

// encodeRun streams inputs through a fresh pipeline and returns the
// committed outputs in the benchmark's wire encoding, one line each.
func encodeRun(t *testing.T, name string, cfg engine.StreamConfig, inputs []engine.Input) []byte {
	t.Helper()
	prog, err := bench.New(name)
	if err != nil {
		t.Fatal(err)
	}
	codec, err := bench.CodecFor(name)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	p, err := engine.NewStream(ctx, prog, cfg)
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		defer p.Close()
		for _, in := range inputs {
			if p.Push(ctx, in) != nil {
				return
			}
		}
	}()
	var buf bytes.Buffer
	for out := range p.Outputs() {
		line, err := codec.EncodeOutput(out)
		if err != nil {
			t.Error(err)
			break
		}
		buf.Write(line)
		buf.WriteByte('\n')
	}
	stats, err := p.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if int(stats.Outputs) != len(inputs) {
		t.Fatalf("%s: %d outputs for %d inputs", name, stats.Outputs, len(inputs))
	}
	return buf.Bytes()
}

// TestStreamingDeterminism is the reproducibility guarantee the package
// documents: same seed, same input stream → byte-identical committed
// outputs, run after run, for real benchmarks with real nondeterminism,
// concurrency, mispeculation, and adaptive chunk sizing all enabled.
// Scheduling may reorder every internal event; the committed sequence
// must not notice. (-race runs of this test double as the proof that the
// determinism is not an artifact of accidental synchronization.)
func TestStreamingDeterminism(t *testing.T) {
	for _, name := range []string{"facetrack", "streamcluster", "streamclassifier", "dedupstream"} {
		t.Run(name, func(t *testing.T) {
			b, err := bench.New(name)
			if err != nil {
				t.Fatal(err)
			}
			inputs := b.Inputs(rng.New(9))
			if len(inputs) > 90 {
				inputs = inputs[:90]
			}
			cfg := engine.StreamConfig{
				ChunkSize: 7, Lookback: 3, ExtraStates: 1, Workers: 4, Seed: 13,
				Adapt: true,
			}
			first := encodeRun(t, name, cfg, inputs)
			second := encodeRun(t, name, cfg, inputs)
			if !bytes.Equal(first, second) {
				t.Fatalf("two identical sessions diverged:\nrun 1: %d bytes\nrun 2: %d bytes",
					len(first), len(second))
			}
			if len(first) == 0 {
				t.Fatal("no output produced")
			}
		})
	}
}

// TestStreamingDeterminismAcrossWorkerCounts pins down what determinism
// does NOT depend on: the worker-pool size changes only how far execution
// runs ahead, never which execution is committed — the committed bytes
// are a function of (seed, inputs, chunk boundaries) alone.
func TestStreamingDeterminismAcrossWorkerCounts(t *testing.T) {
	name := "streamcluster"
	b, err := bench.New(name)
	if err != nil {
		t.Fatal(err)
	}
	inputs := b.Inputs(rng.New(9))[:60]
	// Fixed chunk size: adaptive sizing consumes outcomes at a
	// Workers-dependent lag, so boundaries (legitimately) shift with the
	// window; with sizing fixed, the committed bytes must not.
	base := engine.StreamConfig{ChunkSize: 6, Lookback: 3, ExtraStates: 1, Seed: 21}
	var want []byte
	for _, workers := range []int{1, 2, 5} {
		cfg := base
		cfg.Workers = workers
		got := encodeRun(t, name, cfg, inputs)
		if want == nil {
			want = got
			continue
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%d workers committed different outputs than 1 worker", workers)
		}
	}
}
