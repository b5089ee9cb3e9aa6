package engine_test

import (
	"math"
	"reflect"
	"sync"
	"testing"
	"time"

	"gostats/internal/bench"
	_ "gostats/internal/bench/all"
	"gostats/internal/critpath"
	"gostats/internal/engine"
	"gostats/internal/machine"
	"gostats/internal/rng"
	"gostats/internal/trace"
)

// checkBreakdown asserts the internal consistency every six-category
// decomposition must satisfy regardless of where its trace came from: the
// per-category losses sum to the total, the extra-computation components
// sum to their category, and nothing is NaN or negative.
func checkBreakdown(t *testing.T, b critpath.Breakdown, cores int) {
	t.Helper()
	if b.Ideal != float64(cores) {
		t.Fatalf("Ideal = %v, want %d", b.Ideal, cores)
	}
	if b.Measured <= 0 {
		t.Fatalf("Measured speedup = %v, want > 0", b.Measured)
	}
	var sum float64
	for l, pct := range b.LostPct {
		if math.IsNaN(pct) || pct < 0 {
			t.Fatalf("LostPct[%s] = %v", critpath.Loss(l), pct)
		}
		sum += pct
	}
	if math.Abs(sum-b.TotalLostPct) > 1e-6 {
		t.Fatalf("category losses sum to %v, TotalLostPct = %v", sum, b.TotalLostPct)
	}
	var extra float64
	for p, pct := range b.ExtraPct {
		if math.IsNaN(pct) || pct < 0 {
			t.Fatalf("ExtraPct[%s] = %v", critpath.ExtraPart(p), pct)
		}
		extra += pct
	}
	if math.Abs(extra-b.LostPct[critpath.LossExtraComputation]) > 1e-6 {
		t.Fatalf("extra components sum to %v, category is %v",
			extra, b.LostPct[critpath.LossExtraComputation])
	}
}

// untimed is the part of an event that must not depend on scheduling:
// what happened, not when or on which pool slot.
type untimed struct {
	Kind    engine.Kind
	N, M    int
	Matched bool
}

// chunkLog is a Sink keeping each chunk's untimed event sequence in
// arrival order.
type chunkLog struct {
	mu      sync.Mutex
	byChunk map[int][]untimed
}

func (l *chunkLog) Event(e engine.Event) {
	if e.Chunk < 0 {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.byChunk == nil {
		l.byChunk = make(map[int][]untimed)
	}
	l.byChunk[e.Chunk] = append(l.byChunk[e.Chunk], untimed{e.Kind, e.N, e.M, e.Matched})
}

// TestStreamAttribution drives a streaming session of every benchmark, at
// every worker count, with a Recorder sink and checks the resulting
// wall-clock trace supports the paper's full six-category decomposition:
// the trace validates, carries worker intervals in the protocol categories
// plus commit-dependence edges, and Breakdown produces a self-consistent
// result. Alongside, it holds the telemetry to the determinism contract
// the outputs already meet: with the chunk boundaries fixed and no faults,
// each chunk's sequence of untimed events is the same at every worker
// count — one difference is a nondeterminism bug, in the protocol or in
// where it reports from.
func TestStreamAttribution(t *testing.T) {
	// Short sessions: the suite reruns this under -race -count=20, and
	// bodytrack costs milliseconds per input there.
	cfg := engine.Config{Chunks: 8, Lookback: 2, ExtraStates: 1, InnerWidth: 1, Seed: 7}
	for _, name := range bench.Names() {
		t.Run(name, func(t *testing.T) {
			b, err := bench.New(name)
			if err != nil {
				t.Fatal(err)
			}
			inputs := b.Inputs(rng.New(1))
			if len(inputs) > 32 {
				inputs = inputs[:32]
			}
			var want map[int][]untimed
			for _, workers := range []int{1, 2, 4, 8} {
				rec, log := engine.NewRecorder(), &chunkLog{}
				sched := &engine.StreamScheduler{Workers: workers, Sink: engine.Tee(rec, log)}
				rep, err := sched.RunSlice(b, inputs, cfg)
				if err != nil {
					t.Fatal(err)
				}
				if len(rep.Outputs) != len(inputs) {
					t.Fatalf("workers=%d: committed %d outputs, want %d", workers, len(rep.Outputs), len(inputs))
				}
				checkRecorded(t, rec, workers)
				if want == nil {
					want = log.byChunk
					continue
				}
				for j := 0; j < rep.Chunks; j++ {
					if !reflect.DeepEqual(log.byChunk[j], want[j]) {
						t.Fatalf("chunk %d's events differ between worker counts:\nworkers=%d: %v\nworkers=1: %v",
							j, workers, log.byChunk[j], want[j])
					}
				}
				if len(log.byChunk) != len(want) {
					t.Fatalf("workers=%d reported %d chunks, workers=1 %d", workers, len(log.byChunk), len(want))
				}
			}
		})
	}
}

// checkRecorded asserts a drained session's recorder holds a valid trace
// with time in every protocol category and a self-consistent breakdown.
func checkRecorded(t *testing.T, rec *engine.Recorder, workers int) {
	t.Helper()
	tr := rec.Trace()
	if err := tr.Validate(); err != nil {
		t.Fatalf("workers=%d: recorded trace invalid: %v", workers, err)
	}
	byCat := tr.CyclesByCategory()
	for _, cat := range []trace.Category{
		trace.CatAltProducer, trace.CatStateCopy, trace.CatChunkWork,
		trace.CatOrigStates, trace.CatCompare,
	} {
		if byCat[cat] == 0 {
			t.Errorf("workers=%d: no recorded time in category %v", workers, cat)
		}
	}
	if rec.SeqEstimateNs() <= 0 {
		t.Fatalf("workers=%d: SeqEstimateNs = %d, want > 0", workers, rec.SeqEstimateNs())
	}

	// Thread 0 is the commit frontier; workers+1 threads total.
	bd, err := rec.Breakdown(workers + 1)
	if err != nil {
		t.Fatalf("workers=%d: %v", workers, err)
	}
	checkBreakdown(t, bd, workers+1)
	// Native sessions use an ideal oracle, so nothing lands in
	// "unreachable" by construction.
	if bd.LostPct[critpath.LossUnreachable] != 0 {
		t.Fatalf("workers=%d: unreachable loss = %v, want 0 under the ideal oracle",
			workers, bd.LostPct[critpath.LossUnreachable])
	}
}

// TestRecorderOutOfOrderArrival pins the recorder's time origin: workers
// deliver events out of start order, so the first event to arrive need
// not be the earliest, and the trace must still begin at time zero with
// no interval or edge before it.
func TestRecorderOutOfOrderArrival(t *testing.T) {
	const us = time.Microsecond
	base := time.Now()
	rec := engine.NewRecorder()
	rec.Event(engine.Event{Kind: engine.EvBody, Chunk: 1, Worker: 1, Start: base.Add(10 * us), Dur: 5 * us})
	// Chunk 0 started earlier on another worker and reports later.
	rec.Event(engine.Event{Kind: engine.EvBody, Chunk: 0, Worker: 0, Start: base, Dur: 5 * us})
	rec.Event(engine.Event{Kind: engine.EvSpeculated, Chunk: 0, Worker: 0, Start: base, Dur: 5 * us})
	rec.Event(engine.Event{Kind: engine.EvOutputs, Chunk: 0, Worker: -1, Start: base.Add(20 * us), Dur: us})

	tr := rec.Trace()
	if err := tr.Validate(); err != nil {
		t.Fatalf("recorded trace invalid: %v", err)
	}
	if ivs := tr.ThreadIntervals(1); len(ivs) != 1 || ivs[0].Start != 0 || ivs[0].End != int64(5*us) {
		t.Fatalf("earliest interval = %+v, want [0,5us] on thread 1", ivs)
	}
	if tr.Span != int64(21*us) {
		t.Fatalf("Span = %d, want %d", tr.Span, int64(21*us))
	}
	want := trace.Edge{Kind: trace.EdgeCommit, FromThread: 1, FromTime: int64(5 * us), ToThread: 0, ToTime: int64(20 * us)}
	if len(tr.Edges) != 1 || tr.Edges[0] != want {
		t.Fatalf("edges = %+v, want [%+v]", tr.Edges, want)
	}
	if again := rec.Trace(); again.Span != tr.Span || again.Intervals[0] != tr.Intervals[0] {
		t.Fatal("a second Trace call moved the origin again")
	}
}

// TestSimAttribution runs the same protocol under the simulated-machine
// scheduler with a cycle-exact trace attached and feeds it through the same
// decomposition, confirming the one engine protocol body supports
// attribution on both the native and simulated paths.
func TestSimAttribution(t *testing.T) {
	b, err := bench.New("facetrack")
	if err != nil {
		t.Fatal(err)
	}
	inputs := b.Inputs(rng.New(1))[:96]
	cfg := engine.Config{Chunks: 8, Lookback: 4, ExtraStates: 1, InnerWidth: 1, Seed: 7}
	const cores = 8

	// Sequential baseline on a one-core machine gives seqCycles.
	seqM := machine.New(machine.DefaultConfig(1))
	if err := seqM.Run("main", func(th *machine.Thread) {
		engine.RunSequential(engine.NewSimExec(th), b, inputs, cfg.Seed)
	}); err != nil {
		t.Fatal(err)
	}
	seqCycles := seqM.Now()
	if seqCycles <= 0 {
		t.Fatalf("sequential run took %d cycles", seqCycles)
	}

	tr := trace.New()
	sched := &engine.SimScheduler{
		Config:  machine.DefaultConfig(cores),
		Options: []machine.Option{machine.WithTrace(tr)},
	}
	rep, err := sched.RunSlice(b, inputs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Outputs) != len(inputs) {
		t.Fatalf("committed %d outputs, want %d", len(rep.Outputs), len(inputs))
	}
	if err := tr.Validate(); err != nil {
		t.Fatalf("simulated trace invalid: %v", err)
	}

	a, err := critpath.New(tr)
	if err != nil {
		t.Fatal(err)
	}
	oracle := critpath.Oracle{CleanTuned: float64(cores), CleanMax: float64(cores)}
	bd := critpath.Decompose(a, seqCycles, cores, oracle)
	checkBreakdown(t, bd, cores)
}
