package engine_test

import (
	"context"
	"crypto/sha256"
	"fmt"
	"reflect"
	"sort"
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
// worker that owns the chunk, not on goroutines of their own. RNG
// substreams are derived by label, so that must change no state — and
// nothing the protocol reports about one.

// sessionDigests are, per benchmark, the SHA-256 of a 72-input, 6-chunk
// streaming session's committed output lines, its Counters snapshot and
// every chunk's untimed event sequence, recorded when each replica still
// had a goroutine to itself (the tree before replicas moved onto the
// worker). They hold at every worker count.
var sessionDigests = map[string]string{
	"bodytrack":         "3af7e11e24094a3efe75ef283dd5b0709f341258f0817db354aef6a12a3a6ef5",
	"dedupstream":       "4dee9236404e31a7c52b73407bf802f700a02056f92caa04800329dac5781b67",
	"facedet-and-track": "02eab6372512317c5f2dbd2580aad4dfd43e4121bf720d2c326455c968d6a5eb",
	"facetrack":         "2148fc11b216ec600f3d4b1768693b77ad99f4a9038639d1d3f110319a214c7d",
	"fluidanimate":      "b0a9826032df52a7c1d2aa1b73d5f7e2ff2bcef51500c75e0d91fdcb313e3aa3",
	"streamclassifier":  "4050b2f4d161d4f60c3828f54191eea2d519bc082039a6e38fde86f2740826b5",
	"streamcluster":     "dd2a1fe3737e97ccbb1522b3a8119945ee8f919db6ed51a3d282bdfc3123f8d5",
	"swaptions":         "e9f157dcebaac13649866e25367e5291abb212756ae78eaca49e7777d2c429dd",
}

// sessionDigest runs one streaming session and folds everything about it
// that must not depend on scheduling into one hash.
func sessionDigest(t *testing.T, name string, workers int) string {
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
	log := &chunkLog{}
	cfg := engine.Config{Chunks: 6, Lookback: 4, ExtraStates: 1, InnerWidth: 1, Seed: 5}
	rep, err := (&engine.StreamScheduler{Workers: workers, Sink: engine.Tee(&ctr, log)}).RunSlice(b, inputs, cfg)
	if err != nil {
		t.Fatalf("%s workers=%d: %v", name, workers, err)
	}
	h := sha256.New()
	for _, out := range rep.Outputs {
		line, err := codec.EncodeOutput(out)
		if err != nil {
			t.Fatal(err)
		}
		h.Write(line)
		h.Write([]byte{'\n'})
	}
	fmt.Fprintf(h, "%+v\n", ctr.Snapshot())
	chunks := make([]int, 0, len(log.byChunk))
	for j := range log.byChunk {
		chunks = append(chunks, j)
	}
	sort.Ints(chunks)
	for _, j := range chunks {
		fmt.Fprintf(h, "%d %+v\n", j, log.byChunk[j])
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

func TestReplicasOnWorkerEquivalence(t *testing.T) {
	names := bench.Names()
	if len(names) != len(sessionDigests) {
		t.Fatalf("%d benchmarks registered, %d digests pinned", len(names), len(sessionDigests))
	}
	for _, name := range names {
		for _, workers := range []int{1, 2, 4, 8} {
			if got := sessionDigest(t, name, workers); got != sessionDigests[name] {
				t.Errorf("%s workers=%d: session digest %s, pinned %s", name, workers, got, sessionDigests[name])
			}
		}
	}
}

// replicaBomb panics inside the nth Update call it sees, once.
type replicaBomb struct {
	bench.Benchmark
	calls, at atomic.Int64
}

func (b *replicaBomb) Update(s engine.State, in engine.Input, r *rng.Stream) (engine.State, engine.Output) {
	if b.calls.Add(1) == b.at.Load() {
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

// TestReplicaPanicIsolated blows up an Update in the middle of a
// replica's window replay. The panic now unwinds through the worker's own
// fault boundary instead of being carried across a join: it must still be
// charged to original-state generation of that chunk and attempt, retried,
// and leave the committed outputs untouched.
func TestReplicaPanicIsolated(t *testing.T) {
	const chunk, lookback = 16, 4
	inputs := bench.MustNew("streamcluster").Inputs(rng.New(1))[:3*chunk]
	run := func(at int64) ([]engine.Output, []engine.Event, engine.StreamStats) {
		prog := &replicaBomb{Benchmark: bench.MustNew("streamcluster")}
		prog.at.Store(at)
		log := &faultLog{}
		outs, stats := streamAll(t, prog, engine.StreamConfig{
			ChunkSize: chunk, Lookback: lookback, ExtraStates: 1, Workers: 1, Seed: 3, Sink: log,
			Fault: engine.FaultPolicy{RetryBase: time.Microsecond, RetryMax: time.Microsecond},
		}, inputs)
		return outs, log.ev, stats
	}
	clean, events, _ := run(0)
	if len(events) != 0 {
		t.Fatalf("clean run reported %v", events)
	}
	// One worker runs chunk 0's body, then its replica's replay, before
	// anything else calls Update: the second replayed input is call 18.
	outs, events, stats := run(chunk + 2)
	if !reflect.DeepEqual(outs, clean) {
		t.Error("outputs differ from the fault-free run")
	}
	want := []engine.Event{
		{Kind: engine.EvFault, Chunk: 0, Worker: 0, N: 0, M: int(engine.SiteOrigStates)},
		{Kind: engine.EvRetry, Chunk: 0, Worker: 0, N: 1},
	}
	if !reflect.DeepEqual(events, want) {
		t.Errorf("fault events %+v, want %+v", events, want)
	}
	if stats.Faults != 1 || stats.Retries != 1 || stats.Degraded != 0 {
		t.Errorf("faults/retries/degraded = %d/%d/%d, want 1/1/0", stats.Faults, stats.Retries, stats.Degraded)
	}
}

// streamAll pushes inputs through one pipeline and returns what it
// committed.
func streamAll(t *testing.T, prog engine.Program, cfg engine.StreamConfig, inputs []engine.Input) ([]engine.Output, engine.StreamStats) {
	t.Helper()
	p, err := engine.NewStream(context.Background(), prog, cfg)
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		defer p.Close()
		for _, in := range inputs {
			if p.Push(context.Background(), in) != nil {
				return
			}
		}
	}()
	var outs []engine.Output
	for o := range p.Outputs() {
		outs = append(outs, o)
	}
	stats, err := p.Wait()
	if err != nil {
		t.Fatal(err)
	}
	return outs, stats
}
