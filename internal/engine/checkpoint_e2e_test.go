package engine_test

import (
	"bytes"
	"context"
	"fmt"
	"reflect"
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
	return sessionRunPaced(t, bench.MustNew(name), cfg, inputs, nil, false)
}

// sessionRunPaced is sessionRun over prog, a benchmark or a wrapper of
// one, with a consumer that calls pace, when non-nil, after taking each
// output, with the count so far. With wire set, the producer ingests each
// input the way a served session does: as its wire line, decoded into the
// input its record slot retires (Pipeline.PushFrom).
func sessionRunPaced(t *testing.T, prog engine.Program, cfg engine.StreamConfig, inputs []engine.Input, pace func(n int), wire bool) ([][]byte, []*checkpoint.Snapshot, engine.StreamStats) {
	t.Helper()
	wc, err := bench.WireFor(prog.Name())
	if err != nil {
		t.Fatal(err)
	}
	var lines [][]byte
	if wire {
		lines = make([][]byte, len(inputs))
		for i, in := range inputs {
			if lines[i], err = wc.EncodeInput(in); err != nil {
				t.Fatal(err)
			}
		}
	}
	rc := bench.Reusing(wc)
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
		for i, in := range inputs {
			var err error
			if wire {
				err = p.PushFrom(ctx, func(spare engine.Input) (engine.Input, error) {
					return rc.DecodeInputInto(lines[i], spare)
				})
			} else {
				err = p.Push(ctx, in)
			}
			if err != nil {
				return
			}
		}
	}()
	var outs [][]byte
	for out := range p.Outputs() {
		line, err := wc.EncodeOutput(out)
		if err != nil {
			t.Error(err)
			break
		}
		outs = append(outs, line)
		if pace != nil {
			pace(len(outs))
		}
	}
	stats, err := p.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if err := p.CheckpointErr(); err != nil {
		t.Fatalf("checkpointing disabled itself: %v", err)
	}
	return outs, snaps, stats
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
		t.Run(fmt.Sprintf("%s/workers=%d", tc.name, tc.workers), func(t *testing.T) {
			t.Parallel()
			inputs := bench.MustNew(tc.name).Inputs(rng.New(3))
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

	// Halt right after resume: a session resumed from any mid-session
	// snapshot and halted before it is fed anything re-captures the
	// frontier the snapshot restored. That capture must encode byte for
	// byte as the resume point, and a session resumed from it must still
	// reproduce the uninterrupted tail.
	for _, name := range []string{"dedupstream", "streamcluster"} {
		inputs := bench.MustNew(name).Inputs(rng.New(3))
		if len(inputs) > 60 {
			inputs = inputs[:60]
		}
		wc, err := bench.WireFor(name)
		if err != nil {
			t.Fatal(err)
		}
		cfg := base
		cfg.Checkpoint = engine.CheckpointConfig{Codec: wc, EveryCommits: 1}
		ref, snaps, _ := sessionRun(t, name, cfg, inputs)
		want := joinLines(ref)
		points := 0
		for i, snap := range snaps {
			if snap.Inputs >= int64(len(inputs)) {
				continue
			}
			points++
			at, err := checkpoint.Encode(snap)
			if err != nil {
				t.Fatal(err)
			}
			halt := haltAtResume(t, name, reseal(t, snap))
			again, err := checkpoint.Encode(halt)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(at, again) {
				t.Fatalf("%s: halt right after resume at snapshot %d (chunk %d) captured %d bytes, not its %d-byte resume point",
					name, i, snap.NextChunk, len(again), len(at))
			}
			tail := resumeRun(t, name, reseal(t, halt), inputs)
			got := joinLines(append(append([][]byte{}, ref[:snap.Inputs]...), tail...))
			if !bytes.Equal(want, got) {
				t.Fatalf("%s: resume from the halt at snapshot %d diverged from the uninterrupted run", name, i)
			}
		}
		if points < 8 {
			t.Fatalf("%s: %d mid-session resume points, want at least 8", name, points)
		}
	}
}

// haltAtResume restores snap into a fresh pipeline, halts it before
// pushing anything, and returns the one snapshot the halt emits.
func haltAtResume(t *testing.T, name string, snap *checkpoint.Snapshot) *checkpoint.Snapshot {
	t.Helper()
	wc, err := bench.WireFor(name)
	if err != nil {
		t.Fatal(err)
	}
	var got []*checkpoint.Snapshot
	p, err := engine.NewStream(context.Background(), bench.MustNew(name), engine.StreamConfig{
		Resume:     &engine.ResumeConfig{Snap: snap, Codec: wc},
		Checkpoint: engine.CheckpointConfig{Codec: wc, OnSnapshot: func(s *checkpoint.Snapshot) { got = append(got, s) }},
	})
	if err != nil {
		t.Fatal(err)
	}
	p.Halt()
	for range p.Outputs() {
		t.Fatal("a session halted before any input committed an output")
	}
	if _, err := p.Wait(); err != nil {
		t.Fatal(err)
	}
	if err := p.CheckpointErr(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 {
		t.Fatalf("halt right after resume emitted %d snapshots, want 1", len(got))
	}
	return got[0]
}

// TestCheckpointResumeVerdicts resumes at every snapshot and holds the
// resumed tail to the uninterrupted session chunk by chunk: the
// comparisons each EvValidated charged and whether one matched, then
// EvCommitted or EvAborted. Outputs alone can hide a replica rebuilt
// from the wrong stream — the chunk aborts and its re-execution commits
// the same bytes — while the verdict cannot. The sessions are
// TestLineageDigests' with a replica match (dedupstream) and with
// re-executed lineages (both), so snapshots carry replica seeds from
// worker and recovery streams, and resumed first boundaries build from
// them.
func TestCheckpointResumeVerdicts(t *testing.T) {
	if testing.Short() {
		t.Skip("resumes a session per commit boundary")
	}
	var seeds, reorigs, replicaMatches, misses int
	for _, name := range []string{"dedupstream", "streamcluster"} {
		inputs := bench.MustNew(name).Inputs(rng.New(1))[:72]
		wc, err := bench.WireFor(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 4} {
			ref := &verdictLog{}
			cfg := engine.StreamConfig{ChunkSize: 4, Lookback: 2, ExtraStates: 2, Workers: workers, Seed: 5, Sink: ref,
				Checkpoint: engine.CheckpointConfig{Codec: wc, EveryCommits: 1}}
			lines, snaps, _ := sessionRun(t, name, cfg, inputs)
			want := joinLines(lines)
			for _, snap := range snaps {
				if len(snap.ReplicaSeed) > 0 {
					seeds++
					if snap.Reorig {
						reorigs++
					}
					if evs := ref.byChunk[snap.NextChunk]; len(evs) > 0 && !(evs[0].Matched && evs[0].N == 1) {
						// The resumed first boundary missed the final state:
						// it builds the replicas from the snapshot's seed.
						if evs[0].Matched {
							replicaMatches++
						} else {
							misses++
						}
					}
				}
				got := &verdictLog{}
				tail, _, _ := sessionRun(t, name, engine.StreamConfig{Sink: got,
					Resume: &engine.ResumeConfig{Snap: reseal(t, snap), Codec: wc}}, inputs[snap.Inputs:])
				if !bytes.Equal(joinLines(append(append([][]byte{}, lines[:snap.Inputs]...), tail...)), want) {
					t.Errorf("%s workers=%d: resume at chunk %d diverged from the uninterrupted outputs", name, workers, snap.NextChunk)
				}
				for j := range got.byChunk {
					if j < snap.NextChunk {
						t.Errorf("%s workers=%d: resume at chunk %d decided chunk %d", name, workers, snap.NextChunk, j)
					}
				}
				for j, evs := range ref.byChunk {
					if j >= snap.NextChunk && !reflect.DeepEqual(got.byChunk[j], evs) {
						t.Errorf("%s workers=%d: resume at chunk %d: chunk %d's verdict %v, uninterrupted %v",
							name, workers, snap.NextChunk, j, got.byChunk[j], evs)
					}
				}
			}
		}
	}
	t.Logf("%d snapshots carried a replica seed, %d from a recovery stream; %d resumed first boundaries matched a replica built from one, %d missed them all", seeds, reorigs, replicaMatches, misses)
	if reorigs == 0 || replicaMatches == 0 || misses == 0 {
		t.Error("the sessions no longer resume from recovery seeds, or onto boundaries that build and match or miss replicas")
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

// BenchmarkCheckpointCapture sizes checkpoint capture without the
// repository benchmark: an op is one steady-state dedupstream session —
// the native-state workload's shape, up to 900 inputs at chunk 16,
// lookback 4, one extra state, Workers 2 — that frames a snapshot every
// two commits with checkpoint.Encode (every=2), or takes none (off). The
// difference between the two is what capture and framing cost a session,
// in ns/op and B/op.
//
//	go test -run '^$' -bench CheckpointCapture -benchtime 20x ./internal/engine
func BenchmarkCheckpointCapture(b *testing.B) {
	const name = "dedupstream"
	prog := bench.MustNew(name)
	inputs := prog.Inputs(rng.New(1))
	inputs = inputs[:min(len(inputs), 900)]
	wc, err := bench.WireFor(name)
	if err != nil {
		b.Fatal(err)
	}
	for _, every := range []int{2, 0} {
		label := "off"
		if every > 0 {
			label = fmt.Sprintf("every=%d", every)
		}
		b.Run(label, func(b *testing.B) {
			cfg := engine.StreamConfig{ChunkSize: 16, Lookback: 4, ExtraStates: 1, Workers: 2, Seed: 3}
			var snaps, framed int
			if every > 0 {
				cfg.Checkpoint = engine.CheckpointConfig{Codec: wc, EveryCommits: every,
					OnSnapshot: func(s *checkpoint.Snapshot) {
						raw, err := checkpoint.Encode(s)
						if err != nil {
							b.Error(err)
						}
						snaps, framed = snaps+1, framed+len(raw)
					}}
			}
			ctx := context.Background()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				p, err := engine.NewStream(ctx, prog, cfg)
				if err != nil {
					b.Fatal(err)
				}
				go func() {
					defer p.Close()
					for _, in := range inputs {
						if p.Push(ctx, in) != nil {
							return
						}
					}
				}()
				for range p.Outputs() {
				}
				if _, err := p.Wait(); err != nil {
					b.Fatal(err)
				}
			}
			if snaps > 0 {
				b.ReportMetric(float64(snaps)/float64(b.N), "snapshots/op")
				b.ReportMetric(float64(framed)/float64(snaps), "B/snapshot")
			}
		})
	}
}
