package procexec_test

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"testing"
	"time"

	"gostats/internal/bench"
	_ "gostats/internal/bench/all"
	"gostats/internal/engine"
	"gostats/internal/faultinject"
	"gostats/internal/procexec"
	"gostats/internal/rng"
)

// TestMain doubles as the worker binary: the pool respawns this test
// executable with STATSWORKER_CHILD=1, turning it into a statsworker.
func TestMain(m *testing.M) {
	if os.Getenv("STATSWORKER_CHILD") == "1" {
		if err := procexec.ServeWorker(os.Stdin, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// newPool builds a worker pool running this test binary as the worker.
func newPool(t *testing.T, name string, cfg engine.StreamConfig, procs int, plan *faultinject.ProcPlan) *procexec.Pool {
	t.Helper()
	wc, err := bench.WireFor(name)
	if err != nil {
		t.Fatal(err)
	}
	pool, err := procexec.NewPool(procexec.Config{
		Command: []string{os.Args[0]},
		Env:     []string{"STATSWORKER_CHILD=1"},
		Procs:   procs,
		Session: procexec.Session{
			Benchmark: name, Seed: cfg.Seed, Lookback: cfg.Lookback,
			ExtraStates: cfg.ExtraStates,
		},
		Codec: wc,
		Plan:  plan,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(pool.Close)
	return pool
}

// attemptTimeout bounds every RunChunk of a pool by d. The engine sets no
// deadline of its own, so a test that wedges a worker gives each attempt
// one: when it ends, the pool kills the process and the engine retries.
type attemptTimeout struct {
	*procexec.Pool
	d time.Duration
}

func (r attemptTimeout) RunChunk(ctx context.Context, req engine.ChunkRequest) (*engine.ChunkReply, error) {
	ctx, cancel := context.WithTimeout(ctx, r.d)
	defer cancel()
	return r.Pool.RunChunk(ctx, req)
}

// encodeRun streams inputs through a pipeline and returns the committed
// outputs in wire encoding plus the final stats.
func encodeRun(t *testing.T, name string, cfg engine.StreamConfig, inputs []engine.Input) ([]byte, engine.StreamStats) {
	t.Helper()
	prog, err := bench.New(name)
	if err != nil {
		t.Fatal(err)
	}
	codec, err := bench.WireFor(name)
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
	return buf.Bytes(), stats
}

func truncInputs(b bench.Benchmark, n int) []engine.Input {
	ins := b.Inputs(rng.New(9))
	if len(ins) > n {
		ins = ins[:n]
	}
	return ins
}

// TestWorkerProcessEquivalence is the multi-process column of the
// cross-executor equivalence matrix: for every benchmark with a wire
// codec, a session executed through a pool of worker processes commits
// byte-identical outputs to the same session executed in-process.
func TestWorkerProcessEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker processes")
	}
	for _, name := range bench.CodecNames() {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			b, err := bench.New(name)
			if err != nil {
				t.Fatal(err)
			}
			inputs := truncInputs(b, 30)
			cfg := engine.StreamConfig{
				ChunkSize: 5, Lookback: 2, ExtraStates: 1, Workers: 3, Seed: 13,
			}
			want, _ := encodeRun(t, name, cfg, inputs)
			remote := cfg
			remote.Runner = newPool(t, name, cfg, 2, nil)
			got, stats := encodeRun(t, name, remote, inputs)
			if !bytes.Equal(want, got) {
				t.Fatalf("multi-process run diverged from in-process run:\nin-process: %d bytes\nremote:     %d bytes",
					len(want), len(got))
			}
			if stats.Outputs != int64(len(inputs)) {
				t.Fatalf("remote run committed %d outputs for %d inputs", stats.Outputs, len(inputs))
			}
		})
	}
}

// TestWorkerProcessAdaptiveEquivalence repeats the equivalence check with
// adaptive chunk sizing: the autotuner moves chunk boundaries, and every
// resized chunk must still round-trip through worker processes
// byte-identically.
func TestWorkerProcessAdaptiveEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker processes")
	}
	name := "streamcluster"
	b, err := bench.New(name)
	if err != nil {
		t.Fatal(err)
	}
	inputs := truncInputs(b, 60)
	cfg := engine.StreamConfig{
		ChunkSize: 6, Lookback: 3, ExtraStates: 1, Workers: 4, Seed: 21,
		Adapt: true,
	}
	want, _ := encodeRun(t, name, cfg, inputs)
	remote := cfg
	remote.Runner = newPool(t, name, cfg, 2, nil)
	got, _ := encodeRun(t, name, remote, inputs)
	if !bytes.Equal(want, got) {
		t.Fatal("adaptive multi-process run diverged from in-process run")
	}
}

// TestWorkerProcessRespawn kills a worker process mid-session at planned
// chunks and verifies the pool respawns workers, the chunks are retried
// on fresh processes, and the committed bytes never notice.
func TestWorkerProcessRespawn(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker processes")
	}
	name := "streamclassifier"
	b, err := bench.New(name)
	if err != nil {
		t.Fatal(err)
	}
	// 20 chunks: respawning is lazy (a dead worker's slot goes back to the
	// pool's FIFO as a spawn token, behind the live process), so every
	// planned death needs at least two later RunChunk calls behind it for
	// its respawn to be certain: its own retry, which may draw the live
	// process, and a chunk the speculation window only admits after the
	// dead one commits. With the window at 2·Workers = 6 chunks, that is
	// chunk c+7, so the last death, at chunk 5, needs a chunk 12.
	inputs := truncInputs(b, 100)
	cfg := engine.StreamConfig{
		ChunkSize: 5, Lookback: 2, ExtraStates: 1, Workers: 3, Seed: 17,
	}
	want, _ := encodeRun(t, name, cfg, inputs)
	plan := faultinject.NewProc(
		faultinject.ProcFault{Chunk: 1, Kind: faultinject.ProcKill},
		faultinject.ProcFault{Chunk: 3, Kind: faultinject.ProcKill},
		faultinject.ProcFault{Chunk: 5, Kind: faultinject.ProcGarbage},
	)
	pool := newPool(t, name, cfg, 2, plan)
	remote := cfg
	remote.Runner = pool
	got, stats := encodeRun(t, name, remote, inputs)
	if !bytes.Equal(want, got) {
		t.Fatal("run with killed worker processes diverged from clean run")
	}
	if stats.Faults < 3 {
		t.Fatalf("expected >= 3 proc faults, got %d", stats.Faults)
	}
	if pool.Spawns() < 5 {
		t.Fatalf("expected >= 5 spawns (2 initial + 3 respawns), got %d", pool.Spawns())
	}
}

// TestWorkerProcessHangDeadline wedges a worker at a planned chunk; the
// attempt's deadline must fire, the watchdog kill the process, and the
// retried chunk commit identical bytes.
func TestWorkerProcessHangDeadline(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker processes")
	}
	name := "swaptions"
	b, err := bench.New(name)
	if err != nil {
		t.Fatal(err)
	}
	inputs := truncInputs(b, 30)
	cfg := engine.StreamConfig{
		ChunkSize: 5, Lookback: 2, ExtraStates: 1, Workers: 2, Seed: 11,
	}
	want, _ := encodeRun(t, name, cfg, inputs)
	plan := faultinject.NewProc(faultinject.ProcFault{Chunk: 2, Kind: faultinject.ProcHang})
	remote := cfg
	remote.Runner = attemptTimeout{newPool(t, name, cfg, 2, plan), 2 * time.Second}
	got, stats := encodeRun(t, name, remote, inputs)
	if !bytes.Equal(want, got) {
		t.Fatal("run with wedged worker process diverged from clean run")
	}
	if stats.Faults == 0 {
		t.Fatal("expected a deadline fault from the wedged worker")
	}
}

// TestWorkerProcessDegrade exhausts the remote retry budget at one chunk
// (every attempt dies); the engine must degrade that chunk to the
// in-process executor and still commit identical bytes.
func TestWorkerProcessDegrade(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker processes")
	}
	name := "streamcluster"
	b, err := bench.New(name)
	if err != nil {
		t.Fatal(err)
	}
	inputs := truncInputs(b, 30)
	cfg := engine.StreamConfig{
		ChunkSize: 5, Lookback: 2, ExtraStates: 1, Workers: 2, Seed: 19,
	}
	want, _ := encodeRun(t, name, cfg, inputs)
	plan := faultinject.NewProc(faultinject.ProcFault{Chunk: 2, Kind: faultinject.ProcKill, Attempts: 10})
	remote := cfg
	remote.Runner = newPool(t, name, cfg, 2, plan)
	got, stats := encodeRun(t, name, remote, inputs)
	if !bytes.Equal(want, got) {
		t.Fatal("degraded run diverged from clean run")
	}
	if stats.Degraded == 0 {
		t.Fatal("expected the chunk to degrade to the in-process executor")
	}
}

// TestWorkerProcessChaos drives a seeded process-fault schedule — kills,
// hangs, garbled replies — through a full session and checks the one
// property that matters: committed bytes identical to a fault-free
// in-process run.
func TestWorkerProcessChaos(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker processes")
	}
	name := "facetrack"
	b, err := bench.New(name)
	if err != nil {
		t.Fatal(err)
	}
	inputs := truncInputs(b, 48)
	cfg := engine.StreamConfig{
		ChunkSize: 4, Lookback: 2, ExtraStates: 1, Workers: 3, Seed: 29,
	}
	want, _ := encodeRun(t, name, cfg, inputs)
	plan := faultinject.SeededProc(7, 12, 0.4)
	if plan.ProcLen() == 0 {
		t.Fatal("seeded plan is empty; pick a different seed")
	}
	remote := cfg
	remote.Runner = attemptTimeout{newPool(t, name, cfg, 2, plan), 2 * time.Second}
	got, stats := encodeRun(t, name, remote, inputs)
	if !bytes.Equal(want, got) {
		t.Fatal("chaos run diverged from fault-free in-process run")
	}
	if stats.Faults == 0 {
		t.Fatal("chaos plan injected nothing")
	}
	t.Logf("chaos: %d faults, %d retries, %d degraded, outputs intact", stats.Faults, stats.Retries, stats.Degraded)
}
