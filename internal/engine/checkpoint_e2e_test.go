package engine_test

import (
	"bytes"
	"context"
	"sync"
	"testing"

	"gostats/internal/bench"
	_ "gostats/internal/bench/all"
	"gostats/internal/checkpoint"
	"gostats/internal/engine"
	"gostats/internal/rng"
)

// sessionRun streams inputs through one pipeline and returns the encoded
// committed output lines, every snapshot emitted, and the final stats.
func sessionRun(t *testing.T, name string, cfg engine.StreamConfig, inputs []engine.Input) ([][]byte, []*checkpoint.Snapshot, engine.StreamStats) {
	t.Helper()
	return sessionRunPaced(t, name, cfg, inputs, nil)
}

// sessionRunPaced is sessionRun with a consumer that calls pace, when
// non-nil, after taking each output, with the count so far.
func sessionRunPaced(t *testing.T, name string, cfg engine.StreamConfig, inputs []engine.Input, pace func(n int)) ([][]byte, []*checkpoint.Snapshot, engine.StreamStats) {
	t.Helper()
	prog, err := bench.New(name)
	if err != nil {
		t.Fatal(err)
	}
	wc, err := bench.WireFor(name)
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var snaps []*checkpoint.Snapshot
	if cfg.Checkpoint.Codec != nil {
		cfg.Checkpoint.OnSnapshot = func(s *checkpoint.Snapshot) {
			mu.Lock()
			snaps = append(snaps, s)
			mu.Unlock()
		}
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
	var lines [][]byte
	for out := range p.Outputs() {
		line, err := wc.EncodeOutput(out)
		if err != nil {
			t.Error(err)
			break
		}
		lines = append(lines, line)
		if pace != nil {
			pace(len(lines))
		}
	}
	stats, err := p.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if err := p.CheckpointErr(); err != nil {
		t.Fatalf("checkpointing disabled itself: %v", err)
	}
	return lines, snaps, stats
}

// resumeRun restores snap into a fresh pipeline, feeds it the input
// stream from the snapshot frontier onward, and returns the encoded
// committed output lines.
func resumeRun(t *testing.T, name string, snap *checkpoint.Snapshot, inputs []engine.Input) [][]byte {
	t.Helper()
	wc, err := bench.WireFor(name)
	if err != nil {
		t.Fatal(err)
	}
	cfg := engine.StreamConfig{Resume: &engine.ResumeConfig{Snap: snap, Codec: wc}}
	lines, _, _ := sessionRun(t, name, cfg, inputs[snap.Inputs:])
	return lines
}

// reseal round-trips a snapshot through its wire envelope — what a real
// crash-recovery path does — so every resume in these tests exercises
// Encode/Decode, not just the in-memory struct.
func reseal(t *testing.T, snap *checkpoint.Snapshot) *checkpoint.Snapshot {
	t.Helper()
	raw, err := checkpoint.Encode(snap)
	if err != nil {
		t.Fatal(err)
	}
	back, err := checkpoint.Decode(raw)
	if err != nil {
		t.Fatal(err)
	}
	return back
}

func joinLines(lines [][]byte) []byte {
	return append(bytes.Join(lines, []byte("\n")), '\n')
}

// TestCheckpointEveryBoundary is the crash-at-every-boundary property
// test: checkpoint at every commit, then for each snapshot kill the
// session there (by abandoning it) and restore into a fresh pipeline fed
// the remaining inputs. The resumed output tail must be byte-identical
// to the uninterrupted run's, at every boundary, for stateful benchmarks
// and both a serial and a deep speculation window.
func TestCheckpointEveryBoundary(t *testing.T) {
	if testing.Short() {
		t.Skip("resumes a session per commit boundary")
	}
	for _, tc := range []struct {
		name    string
		workers int
	}{
		{"streamcluster", 1},
		{"streamcluster", 4},
		{"dedupstream", 1},
		{"dedupstream", 4},
	} {
		tc := tc
		t.Run(tc.name+"/workers="+string(rune('0'+tc.workers)), func(t *testing.T) {
			t.Parallel()
			b, err := bench.New(tc.name)
			if err != nil {
				t.Fatal(err)
			}
			inputs := b.Inputs(rng.New(3))
			if len(inputs) > 48 {
				inputs = inputs[:48]
			}
			wc, err := bench.WireFor(tc.name)
			if err != nil {
				t.Fatal(err)
			}
			cfg := engine.StreamConfig{
				ChunkSize: 5, Lookback: 2, ExtraStates: 1, Workers: tc.workers, Seed: 23,
				Checkpoint: engine.CheckpointConfig{Codec: wc, EveryCommits: 1},
			}
			ref, snaps, stats := sessionRun(t, tc.name, cfg, inputs)
			if len(ref) != len(inputs) {
				t.Fatalf("reference run committed %d outputs for %d inputs", len(ref), len(inputs))
			}
			if len(snaps) == 0 || stats.Checkpoints != int64(len(snaps)) {
				t.Fatalf("got %d snapshots, stats say %d", len(snaps), stats.Checkpoints)
			}
			want := joinLines(ref)
			for i, snap := range snaps {
				if snap.Inputs > int64(len(inputs)) {
					t.Fatalf("snapshot %d covers %d inputs of %d", i, snap.Inputs, len(inputs))
				}
				tail := resumeRun(t, tc.name, reseal(t, snap), inputs)
				got := joinLines(append(append([][]byte{}, ref[:snap.Inputs]...), tail...))
				if !bytes.Equal(want, got) {
					t.Fatalf("resume at snapshot %d (chunk %d, %d inputs) diverged from uninterrupted run",
						i, snap.NextChunk, snap.Inputs)
				}
			}
		})
	}
}

// TestCheckpointAdaptiveResume repeats the boundary property with
// adaptive chunk sizing: the snapshot carries the controller state, and a
// resumed session must re-derive the exact chunk boundaries — hence the
// exact bytes — the uninterrupted session chose.
func TestCheckpointAdaptiveResume(t *testing.T) {
	if testing.Short() {
		t.Skip("resumes a session per commit boundary")
	}
	name := "streamclassifier"
	b, err := bench.New(name)
	if err != nil {
		t.Fatal(err)
	}
	inputs := b.Inputs(rng.New(3))
	if len(inputs) > 72 {
		inputs = inputs[:72]
	}
	wc, err := bench.WireFor(name)
	if err != nil {
		t.Fatal(err)
	}
	cfg := engine.StreamConfig{
		ChunkSize: 6, Lookback: 3, ExtraStates: 1, Workers: 3, Seed: 31,
		Adapt: true, MinChunk: 2, MaxChunk: 24,
		Checkpoint: engine.CheckpointConfig{Codec: wc, EveryCommits: 1},
	}
	ref, snaps, _ := sessionRun(t, name, cfg, inputs)
	if len(snaps) == 0 {
		t.Fatal("no snapshots emitted")
	}
	want := joinLines(ref)
	for i, snap := range snaps {
		tail := resumeRun(t, name, reseal(t, snap), inputs)
		got := joinLines(append(append([][]byte{}, ref[:snap.Inputs]...), tail...))
		if !bytes.Equal(want, got) {
			t.Fatalf("adaptive resume at snapshot %d diverged", i)
		}
	}
}

// TestCheckpointEveryBytes checks the byte-interval trigger: snapshots
// fire once the committed wire bytes since the last snapshot cross the
// threshold, and each one is a valid resume point.
func TestCheckpointEveryBytes(t *testing.T) {
	name := "streamcluster"
	b, err := bench.New(name)
	if err != nil {
		t.Fatal(err)
	}
	inputs := b.Inputs(rng.New(3))[:36]
	wc, err := bench.WireFor(name)
	if err != nil {
		t.Fatal(err)
	}
	cfg := engine.StreamConfig{
		ChunkSize: 4, Lookback: 2, ExtraStates: 1, Workers: 2, Seed: 37,
		Checkpoint: engine.CheckpointConfig{Codec: wc, EveryBytes: 256},
	}
	ref, snaps, _ := sessionRun(t, name, cfg, inputs)
	if len(snaps) == 0 {
		t.Fatal("no snapshots emitted")
	}
	want := joinLines(ref)
	snap := reseal(t, snaps[len(snaps)/2])
	tail := resumeRun(t, name, snap, inputs)
	got := joinLines(append(append([][]byte{}, ref[:snap.Inputs]...), tail...))
	if !bytes.Equal(want, got) {
		t.Fatal("resume from byte-triggered snapshot diverged")
	}
}

// TestCheckpointHaltResume is the session-migration primitive, minus the
// gateway: halt a live session at the commit frontier, take the final
// snapshot the drain emits, restore it elsewhere, and feed the input
// stream from the frontier on. The concatenated output bytes must equal
// the uninterrupted run's — the client-visible stream never notices the
// hop.
func TestCheckpointHaltResume(t *testing.T) {
	name := "dedupstream"
	b, err := bench.New(name)
	if err != nil {
		t.Fatal(err)
	}
	inputs := b.Inputs(rng.New(3))
	if len(inputs) > 60 {
		inputs = inputs[:60]
	}
	wc, err := bench.WireFor(name)
	if err != nil {
		t.Fatal(err)
	}
	base := engine.StreamConfig{ChunkSize: 5, Lookback: 2, ExtraStates: 1, Workers: 3, Seed: 41}
	ref, _, _ := sessionRun(t, name, base, inputs)
	want := joinLines(ref)

	prog, err := bench.New(name)
	if err != nil {
		t.Fatal(err)
	}
	cfg := base
	var mu sync.Mutex
	var last *checkpoint.Snapshot
	cfg.Checkpoint = engine.CheckpointConfig{Codec: wc, EveryCommits: 1,
		OnSnapshot: func(s *checkpoint.Snapshot) {
			mu.Lock()
			last = s
			mu.Unlock()
		}}
	ctx := context.Background()
	p, err := engine.NewStream(ctx, prog, cfg)
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		for _, in := range inputs {
			if p.Push(ctx, in) != nil {
				return
			}
		}
		// Keep the session open: the halt, not a Close, ends it.
	}()
	var lines [][]byte
	for out := range p.Outputs() {
		line, err := wc.EncodeOutput(out)
		if err != nil {
			t.Fatal(err)
		}
		lines = append(lines, line)
		if len(lines) == 20 {
			p.Halt()
		}
	}
	if _, err := p.Wait(); err != nil {
		t.Fatal(err)
	}
	if !p.Halted() {
		t.Fatal("pipeline does not report halted")
	}
	if err := p.Push(ctx, inputs[0]); err != engine.ErrClosed {
		t.Fatalf("Push after Halt = %v, want ErrClosed", err)
	}
	mu.Lock()
	snap := last
	mu.Unlock()
	if snap == nil {
		t.Fatal("halt emitted no snapshot")
	}
	if snap.Inputs != int64(len(lines)) {
		t.Fatalf("final snapshot covers %d inputs, session emitted %d outputs", snap.Inputs, len(lines))
	}
	tail := resumeRun(t, name, reseal(t, snap), inputs)
	got := joinLines(append(lines, tail...))
	if !bytes.Equal(want, got) {
		t.Fatal("halted+resumed session diverged from uninterrupted run")
	}
}

// TestCheckpointResumeValidation pins the resume guardrails: a snapshot
// for the wrong benchmark and a resume without a codec must be rejected
// at construction, not discovered mid-stream.
func TestCheckpointResumeValidation(t *testing.T) {
	name := "streamcluster"
	b, err := bench.New(name)
	if err != nil {
		t.Fatal(err)
	}
	inputs := b.Inputs(rng.New(3))[:20]
	wc, err := bench.WireFor(name)
	if err != nil {
		t.Fatal(err)
	}
	cfg := engine.StreamConfig{
		ChunkSize: 5, Lookback: 2, ExtraStates: 1, Workers: 2, Seed: 43,
		Checkpoint: engine.CheckpointConfig{Codec: wc, EveryCommits: 1},
	}
	_, snaps, _ := sessionRun(t, name, cfg, inputs)
	if len(snaps) == 0 {
		t.Fatal("no snapshots")
	}
	snap := snaps[len(snaps)-1]

	other, err := bench.New("swaptions")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := engine.NewStream(context.Background(), other,
		engine.StreamConfig{Resume: &engine.ResumeConfig{Snap: snap, Codec: wc}}); err == nil {
		t.Fatal("resume accepted a snapshot for a different benchmark")
	}
	prog, err := bench.New(name)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := engine.NewStream(context.Background(), prog,
		engine.StreamConfig{Resume: &engine.ResumeConfig{Snap: snap}}); err == nil {
		t.Fatal("resume accepted a nil codec")
	}
}
