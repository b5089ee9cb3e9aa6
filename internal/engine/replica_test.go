package engine_test

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gostats/internal/bench"
	_ "gostats/internal/bench/all"
	"gostats/internal/engine"
	"gostats/internal/rng"
)

// On the native substrate a chunk's original-state replicas run on the
// context that owns the chunk, not on goroutines of their own. RNG
// substreams are derived by label, so that must change no state — and
// nothing the protocol reports about one.

// sessionOutcomes are, per benchmark, the SHA-256 of a 72-input, 6-chunk
// streaming session's committed output lines and every chunk's verdict
// projection, recorded while every chunk still built its replicas
// eagerly. They hold at every worker count.
var sessionOutcomes = map[string]string{
	"bodytrack":         "b4475a64d04bcd3c09769fa1c3fe1e74913b842d5eb481234d1e950f5cfef8e1",
	"dedupstream":       "aeb7ffe4f0666456f9a7f79c69af2a6bf97504c86d30e8003d711be36a15be2a",
	"facedet-and-track": "a303bf9657e6e300ab8ffd6649c1b1595474534adfbd633ee7f818be8e3284ce",
	"facetrack":         "0d636c1274a198a625f3b5795e7a9c0861ec6238bee8c93e7b2bb42f2f0daf18",
	"fluidanimate":      "325f0e0a2635c82cfe25131308f11d4cd348256bf5de5346b3960c827d4421de",
	"streamclassifier":  "689f984320e5fcdf5ae090e02afe10eac7a9c26d7a915bbd809e474f33d2ffea",
	"streamcluster":     "7771a87193ba8e73784f86b644ff183e04f12b5529d3c153d414aa165b24060a",
	"swaptions":         "9f91d0def2569ca3cdffacb8abc596565a9a3672b1197f04a26926db2de48c7c",
}

// sessionWork are the same sessions' Counters snapshot and every chunk's
// untimed event sequence: the protocol work, which counts only the
// replicas a boundary actually built. An aborted chunk reports its
// speculative run as one EvSquashed, so the two benchmarks that abort
// here were re-pinned when that event replaced the run's four. All were
// re-pinned when CounterSnapshot lost its Resizes field, which read 0.
var sessionWork = map[string]string{
	"bodytrack":         "18d42aab07553ed934e90c59eaa3e56192fc905365b170678bf88954394d7676",
	"dedupstream":       "18d42aab07553ed934e90c59eaa3e56192fc905365b170678bf88954394d7676",
	"facedet-and-track": "18d42aab07553ed934e90c59eaa3e56192fc905365b170678bf88954394d7676",
	"facetrack":         "18d42aab07553ed934e90c59eaa3e56192fc905365b170678bf88954394d7676",
	"fluidanimate":      "01beb89fe8ce568a94a4f1a7ed3f2b93ce3490384475b7ba345ed44a79842db0",
	"streamclassifier":  "e97d1ec3abe92a0deb4fbed3b7ffa48a8cc5df87cdbbad51728cbe10e546e759",
	"streamcluster":     "18d42aab07553ed934e90c59eaa3e56192fc905365b170678bf88954394d7676",
	"swaptions":         "18d42aab07553ed934e90c59eaa3e56192fc905365b170678bf88954394d7676",
}

// sessionDigests runs one streaming session and folds everything about it
// that must not depend on scheduling into two hashes: what it committed,
// and the protocol work it reported.
func sessionDigests(t *testing.T, name string, workers int) (outcomes, work string) {
	t.Helper()
	b := bench.MustNew(name)
	codec, err := bench.CodecFor(name)
	if err != nil {
		t.Fatal(err)
	}
	inputs := b.Inputs(rng.New(1))
	if len(inputs) > 72 {
		inputs = inputs[:72]
	}
	var ctr engine.Counters
	log, verdicts := &chunkLog{}, &verdictLog{}
	cfg := engine.Config{Chunks: 6, Lookback: 4, ExtraStates: 1, InnerWidth: 1, Seed: 5}
	rep, err := (&engine.StreamScheduler{Workers: workers, Sink: engine.Tee(&ctr, log, verdicts)}).RunSlice(b, inputs, cfg)
	if err != nil {
		t.Fatalf("%s workers=%d: %v", name, workers, err)
	}
	lines := make([][]byte, len(rep.Outputs))
	for i, out := range rep.Outputs {
		if lines[i], err = codec.EncodeOutput(out); err != nil {
			t.Fatal(err)
		}
	}
	h := sha256.New()
	hashOutcomes(h, lines, verdicts.byChunk)
	outcomes = fmt.Sprintf("%x", h.Sum(nil))
	h.Reset()
	fmt.Fprintf(h, "%+v\n", ctr.Snapshot())
	hashOutcomes(h, nil, log.byChunk)
	return outcomes, fmt.Sprintf("%x", h.Sum(nil))
}

func TestReplicasOnWorkerEquivalence(t *testing.T) {
	names := bench.Names()
	if len(names) != len(sessionOutcomes) || len(names) != len(sessionWork) {
		t.Fatalf("%d benchmarks registered, %d+%d digests pinned", len(names), len(sessionOutcomes), len(sessionWork))
	}
	for _, name := range names {
		for _, workers := range []int{1, 2, 4, 8} {
			outcomes, work := sessionDigests(t, name, workers)
			if outcomes != sessionOutcomes[name] {
				t.Errorf("%s workers=%d: outcome digest %s, pinned %s", name, workers, outcomes, sessionOutcomes[name])
			}
			if work != sessionWork[name] {
				t.Errorf("%s workers=%d: work digest %s, pinned %s", name, workers, work, sessionWork[name])
			}
		}
	}
}

// replicaBomb panics in the first Update of the replay that builds chunk
// j's first replica original state, on each of its first n attempts. It
// knows that replay by its fresh substream — the speculative run's or the
// recovery's, whichever lineage the boundary validates against — which no
// other Update ever sees, so where and when the build runs cannot move it.
type replicaBomb struct {
	bench.Benchmark
	streams [2]rng.Stream
	left    atomic.Int64
}

func newReplicaBomb(name string, seed uint64, j int, n int64) *replicaBomb {
	b := &replicaBomb{Benchmark: bench.MustNew(name)}
	w := rng.New(seed).Derive("stats:"+name).SubN("worker", j)
	reorig := w.Sub("reorig")
	b.streams = [2]rng.Stream{w.SubN("replica", 0), reorig.SubN("replica", 0)}
	b.left.Store(n)
	return b
}

func (b *replicaBomb) Update(s engine.State, in engine.Input, r *rng.Stream) (engine.State, engine.Output) {
	if (*r == b.streams[0] || *r == b.streams[1]) && b.left.Add(-1) >= 0 {
		panic("replica bomb")
	}
	return b.Benchmark.Update(s, in, r)
}

// faultLog keeps the fault-handling events of a run.
type faultLog struct {
	mu sync.Mutex
	ev []engine.Event
}

func (l *faultLog) Event(e engine.Event) {
	switch e.Kind {
	case engine.EvFault, engine.EvRetry, engine.EvDegraded:
		e.Start, e.Dur = time.Time{}, 0
		l.mu.Lock()
		l.ev = append(l.ev, e)
		l.mu.Unlock()
	}
}

// TestReplicaPanicIsolated blows up a replica original state that a
// boundary builds because the speculative state missed the final one. The
// side that validates builds it, under the engine's retry discipline: the
// panic must be charged to original-state generation of the predecessor
// chunk, retried once from that side (the commit frontier, which reports
// worker -1 on both native schedulers), and leave the committed outputs
// untouched. A bomb that fires on every attempt fails the session with a
// FaultError, on both native schedulers, and every goroutine it started
// is gone.
func TestReplicaPanicIsolated(t *testing.T) {
	const name, seed, chunks, size = "streamclassifier", 3, 6, 16
	inputs := bench.MustNew(name).Inputs(rng.New(1))[:chunks*size]
	cfg := engine.Config{Chunks: chunks, Lookback: 4, ExtraStates: 1, InnerWidth: 1, Seed: seed}

	verdicts := &verdictLog{}
	clean, err := (&engine.BatchScheduler{Sink: verdicts}).RunSlice(bench.MustNew(name), inputs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// The first boundary that misses builds the lineage's replica.
	j := -1
	for c := 1; c < chunks && j < 0; c++ {
		if evs := verdicts.byChunk[c]; len(evs) > 0 && evs[0].Kind == engine.EvValidated && !evs[0].Matched {
			j = c - 1
		}
	}
	if j < 0 {
		t.Fatal("no boundary missed: the session builds no replica to bomb")
	}

	for _, newSched := range []func(engine.Sink) engine.Scheduler{
		func(s engine.Sink) engine.Scheduler { return &engine.BatchScheduler{Sink: s} },
		func(s engine.Sink) engine.Scheduler { return &engine.StreamScheduler{Workers: 2, Sink: s} },
	} {
		var ctr engine.Counters
		log := &faultLog{}
		sched := newSched(engine.Tee(&ctr, log))
		rep, err := sched.RunSlice(newReplicaBomb(name, seed, j, 1), inputs, cfg)
		if err != nil {
			t.Fatalf("%s: %v", sched.Name(), err)
		}
		if !reflect.DeepEqual(rep.Outputs, clean.Outputs) {
			t.Errorf("%s: outputs differ from the fault-free run", sched.Name())
		}
		want := []engine.Event{
			{Kind: engine.EvFault, Chunk: j, Worker: -1, N: 0, M: int(engine.SiteOrigStates)},
			{Kind: engine.EvRetry, Chunk: j, Worker: -1, N: 1},
		}
		if !reflect.DeepEqual(log.ev, want) {
			t.Errorf("%s: fault events %+v, want %+v", sched.Name(), log.ev, want)
		}
		if s := ctr.Snapshot(); s.Faults != 1 || s.Retries != 1 || s.Degraded != 0 {
			t.Errorf("%s: faults/retries/degraded = %d/%d/%d, want 1/1/0", sched.Name(), s.Faults, s.Retries, s.Degraded)
		}

		before := runtime.NumGoroutine()
		sched = newSched(nil)
		_, err = sched.RunSlice(newReplicaBomb(name, seed, j, 1<<30), inputs, cfg)
		var fe *engine.FaultError
		if !errors.As(err, &fe) || fe.Fault.Site != engine.SiteOrigStates || fe.Fault.Chunk != j {
			t.Fatalf("%s: a bomb on every attempt ended the session with %v, want a FaultError at chunk %d's orig-states", sched.Name(), err, j)
		}
		for deadline := time.Now().Add(time.Second); runtime.NumGoroutine() > before; {
			if time.Now().After(deadline) {
				t.Fatalf("%s: %d goroutines after the failed session, %d before", sched.Name(), runtime.NumGoroutine(), before)
			}
			time.Sleep(time.Millisecond)
		}
	}
}
