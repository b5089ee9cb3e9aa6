package engine_test

import (
	"reflect"
	"testing"

	"gostats/internal/bench"
	"gostats/internal/engine"
	"gostats/internal/rng"
)

// TestNativeRunsNoGang: the original-TLP gang only charges simulated
// cost, so a cost-free executor runs none. A native run asked for width 8
// spawns no thread at all — the native runtime is the streaming pipeline,
// whose goroutines are not threads of the model — and commits what it
// commits at width 1; a native original-TLP run spawns no thread either.
func TestNativeRunsNoGang(t *testing.T) {
	const name = "streamcluster"
	p := bench.MustNew(name)
	inputs := p.Inputs(rng.New(1))[:200]
	run := func(width int) *engine.Report {
		rep, err := (&engine.BatchScheduler{}).RunSlice(p, inputs,
			engine.Config{Chunks: 6, Lookback: 4, ExtraStates: 1, InnerWidth: width, Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	narrow, wide := run(1), run(8)
	if wide.ThreadsCreated != 0 {
		t.Errorf("width 8: %d threads for %d chunks, want 0", wide.ThreadsCreated, wide.Chunks)
	}
	if !reflect.DeepEqual(wide.Outputs, narrow.Outputs) {
		t.Errorf("width 8 committed other outputs than width 1")
	}
	orig := engine.RunOriginal(engine.NewNativeExec(), p, inputs, 8, 3)
	if orig.ThreadsCreated != 0 {
		t.Errorf("native RunOriginal at width 8 spawned %d threads, want 0", orig.ThreadsCreated)
	}
	if seq := engine.RunOriginal(engine.NewNativeExec(), p, inputs, 1, 3); !reflect.DeepEqual(orig.Outputs, seq.Outputs) {
		t.Errorf("native RunOriginal at width 8 produced other outputs than at width 1")
	}
}
