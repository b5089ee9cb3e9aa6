package engine_test

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"gostats/internal/bench"
	_ "gostats/internal/bench/all"
	"gostats/internal/engine"
	"gostats/internal/faultinject"
	"gostats/internal/machine"
	"gostats/internal/rng"
)

// matrixSeed is every session's seed. Every session validates a boundary
// over a one-input window against the final state and one replica
// (Lookback 1, ExtraStates 1): the cheapest shape that still has replicas
// to build, eagerly or from a seed.
const matrixSeed = 5

// matrixShapes gives a benchmark's chunk size and chunk count, by what an
// input costs; the rest run 9 chunks of 4. The two that take microseconds
// run 32 chunks: twice the speculation window at 8 workers, 16 chunks, so
// even there the producer waits on commit outcomes for half of them. The
// two that take milliseconds run few, and bodytrack, whose 500 kB state
// makes a checkpoint cost as much as its chunks, small ones.
var matrixShapes = map[string]struct{ size, chunks int }{
	"streamcluster": {4, 32}, "streamclassifier": {4, 32}, "swaptions": {4, 2}, "bodytrack": {2, 3},
}

// matrixRow is one configuration of the determinism matrix.
type matrixRow struct {
	workers int  // the pipeline's pool size; 0 is the simulated batch body
	faults  bool // a seeded plan of transient panics
	resume  bool // resumed from every checkpoint (pipeline only)
	// wire ingests each input as its wire line decoded into the input its
	// record slot retires, as a served session does (pipeline only).
	wire bool
}

func (r matrixRow) String() string {
	s := "sim"
	if r.workers > 0 {
		s = fmt.Sprintf("w%d", r.workers)
	}
	for _, axis := range []struct {
		on      bool
		yes, no string
	}{{r.faults, "faults", "clean"}, {r.resume, "resumed", "straight"}, {r.wire, "wire", "native"}} {
		if axis.on {
			s += "/" + axis.yes
		} else {
			s += "/" + axis.no
		}
	}
	return s
}

// risk names the path most likely to break the row, the one a failure
// there points at first.
func (r matrixRow) risk() string {
	switch {
	case r.wire:
		return "spare reuse: a line decodes into the storage of an input one lap of the record array ago, which a kernel that kept it would see change"
	case r.resume:
		return "reseed: a resumed frontier builds its first boundary's replicas from the snapshot's seed"
	case r.workers == 8:
		return "frontier-role hand-off: whichever of eight workers delivers applies the commits"
	case r.faults:
		return "retry: a faulted attempt re-derives its streams from the chunk index"
	case r.workers == 0:
		return "eager replicas: the simulated body builds every replica on a machine thread of its own"
	}
	return "deferred replicas: a boundary builds them only when the final state misses"
}

// matrixRows lists the rows; short leaves out the resumed ones.
func matrixRows(short bool) []matrixRow {
	rows := []matrixRow{{}, {faults: true}, {workers: 2, wire: true}}
	for _, w := range []int{1, 2, 4, 8} {
		for _, faults := range []bool{false, true} {
			rows = append(rows, matrixRow{workers: w, faults: faults})
			if !short {
				rows = append(rows, matrixRow{workers: w, faults: faults, resume: true})
			}
		}
	}
	return rows
}

// matrixOutcome is what one run of a row committed.
type matrixOutcome struct {
	digest  string            // SHA-256 of the committed lines in wire encoding
	byChunk map[int][]untimed // each chunk's verdict: EvValidated, then EvCommitted or EvAborted
	cycles  int64             // the simulated makespan; 0 on the pipeline
	aborts  int
	fired   int64 // injected faults that fired
	// seededResumes counts the resumes whose first boundary missed the
	// final state, so the resumed frontier built the replicas from the
	// snapshot's seed.
	seededResumes int
}

func digestLines(lines [][]byte) string {
	h := sha256.New()
	hashOutcomes(h, lines, nil)
	return fmt.Sprintf("%x", h.Sum(nil))
}

// matrixBench is one benchmark's fixture.
type matrixBench struct {
	name   string
	prog   engine.Program
	wc     bench.WireCodec
	inputs []engine.Input
	size   int // inputs a chunk
	chunks int
	// every is a resumed row's checkpoint cadence: one or two captures a
	// session, none at its last commit unless it has only two chunks.
	every int
	plan  *faultinject.Plan
}

func newMatrixBench(t *testing.T, name string) *matrixBench {
	t.Helper()
	b := bench.MustNew(name)
	wc, err := bench.WireFor(name)
	if err != nil {
		t.Fatal(err)
	}
	shape, ok := matrixShapes[name]
	if !ok {
		shape.size, shape.chunks = 4, 9
	}
	return &matrixBench{name: name, prog: b, wc: wc, size: shape.size, chunks: shape.chunks,
		every: shape.chunks/3 + 1, inputs: b.Inputs(rng.New(1))[:shape.size*shape.chunks],
		plan: transientPlan(name, shape.chunks)}
}

// transientPlan is a plan like the chaos suite's, of transient faults
// only: chunk 0's body panics once, and a sixth of the later chunks panic
// once at a protocol site drawn from the seed. The retry re-executes
// cleanly, so the plan must not move a committed byte or a verdict.
func transientPlan(name string, chunks int) *faultinject.Plan {
	r := rng.New(matrixSeed).Derive("matrix-faults:" + name)
	sites := []engine.FaultSite{engine.SiteAltProducer, engine.SiteBody, engine.SiteOrigStates, engine.SiteReexec}
	faults := []faultinject.Fault{{Site: engine.SiteBody, Chunk: 0, Kind: faultinject.Panic}}
	for c := 1; c < chunks; c++ {
		if r.Float64() < 1.0/6 {
			faults = append(faults, faultinject.Fault{Site: sites[r.Intn(len(sites))], Chunk: c, Kind: faultinject.Panic})
		}
	}
	return faultinject.New(faults...)
}

// program is the benchmark the row runs, wrapped in a fresh injector when
// the row injects faults.
func (mb *matrixBench) program(row matrixRow) (engine.Program, func() int64) {
	if !row.faults {
		return mb.prog, func() int64 { return 0 }
	}
	fp := mb.plan.Wrap(mb.prog)
	return fp, fp.Fired
}

// sim runs the simulated batch body over the fixture at seed.
func (mb *matrixBench) sim(t *testing.T, row matrixRow, seed uint64) matrixOutcome {
	t.Helper()
	prog, fired := mb.program(row)
	log := &verdictLog{}
	sim := &engine.SimScheduler{Config: machine.DefaultConfig(8), Sink: log}
	rep, err := sim.RunSlice(prog, mb.inputs, engine.Config{
		Chunks: mb.chunks, Lookback: 1, ExtraStates: 1, InnerWidth: 2, Seed: seed})
	if err != nil {
		t.Fatalf("%s %s: %v", mb.name, row, err)
	}
	if rep.Commits+rep.Aborts != rep.Chunks {
		t.Errorf("%s %s: %d commits + %d aborts != %d chunks", mb.name, row, rep.Commits, rep.Aborts, rep.Chunks)
	}
	lines := make([][]byte, len(rep.Outputs))
	for i, out := range rep.Outputs {
		if lines[i], err = mb.wc.EncodeOutput(out); err != nil {
			t.Fatal(err)
		}
	}
	return matrixOutcome{digest: digestLines(lines), byChunk: log.byChunk, cycles: sim.Cycles(),
		aborts: rep.Aborts, fired: fired()}
}

// pipeline runs the streaming pipeline over the fixture; a resumed row
// also resumes a fresh session from every snapshot and holds the
// concatenation to the uninterrupted bytes and the resumed verdicts to
// the uninterrupted ones.
func (mb *matrixBench) pipeline(t *testing.T, row matrixRow) matrixOutcome {
	t.Helper()
	prog, fired := mb.program(row)
	log := &verdictLog{}
	cfg := engine.StreamConfig{ChunkSize: mb.size, Lookback: 1, ExtraStates: 1,
		Workers: row.workers, Seed: matrixSeed, Sink: log}
	if row.resume {
		cfg.Checkpoint = engine.CheckpointConfig{Codec: mb.wc, EveryCommits: mb.every}
	}
	lines, snaps, st := sessionRunPaced(t, prog, cfg, mb.inputs, nil, row.wire)
	if st.Commits+st.Aborts != st.Chunks {
		t.Errorf("%s %s: %d commits + %d aborts != %d chunks", mb.name, row, st.Commits, st.Aborts, st.Chunks)
	}
	o := matrixOutcome{digest: digestLines(lines), byChunk: log.byChunk,
		aborts: int(st.Aborts), fired: fired()}
	if row.resume && len(snaps) == 0 {
		t.Errorf("%s %s: no snapshot to resume from", mb.name, row)
	}
	for _, snap := range snaps {
		at, done := snap.NextChunk, int(snap.Inputs)
		if done == len(mb.inputs) {
			continue // taken after the last input: nothing left to resume
		}
		rlog := &verdictLog{}
		rprog, _ := mb.program(row)
		tail, _, rst := sessionRunPaced(t, rprog, engine.StreamConfig{Sink: rlog,
			Resume: &engine.ResumeConfig{Snap: snap, Codec: mb.wc}}, mb.inputs[done:], nil, row.wire)
		if got := digestLines(append(lines[:done:done], tail...)); got != o.digest {
			t.Errorf("%s %s: resumed at chunk %d, committed %s, uninterrupted %s", mb.name, row, at, got, o.digest)
		}
		if rst.Commits+rst.Aborts != rst.Chunks {
			t.Errorf("%s %s: resumed at chunk %d, %d commits + %d aborts != %d chunks", mb.name, row, at, rst.Commits, rst.Aborts, rst.Chunks)
		}
		for j, evs := range rlog.byChunk {
			if j < at || !reflect.DeepEqual(evs, log.byChunk[j]) {
				t.Errorf("%s %s: resumed at chunk %d, chunk %d's verdict %v, uninterrupted %v", mb.name, row, at, j, evs, log.byChunk[j])
			}
		}
		if len(rlog.byChunk) != len(log.byChunk)-at {
			t.Errorf("%s %s: resumed at chunk %d decided %d chunks, uninterrupted %d after it", mb.name, row, at, len(rlog.byChunk), len(log.byChunk)-at)
		}
		if evs := log.byChunk[at]; len(evs) > 0 && evs[0].Kind == engine.EvValidated && !(evs[0].Matched && evs[0].N == 1) {
			o.seededResumes++
		}
	}
	return o
}

// TestDeterminismMatrix is the determinism contract of PAPER.md §II-B as
// one table: committed outputs are a pure function of the seed, the
// inputs and the chunk boundaries. Per benchmark, each row — runtime (the
// simulated batch body, the independent reference, or the pipeline at 1,
// 2, 4 or 8 workers) × faults (none, or a seeded plan of transient panics) × path (straight,
// or on the pipeline resumed from every checkpoint), plus one row at 2
// workers that ingests wire lines decoded into spares, the inputs their
// record slots retire (bench.ReusingCodec) — runs twice and must
// commit the same bytes with the same verdicts, Commits+Aborts == Chunks,
// and on the simulated machine the same makespan. One difference is a
// nondeterminism bug, reported with the row's riskiest path.
//
// Across rows, every row commits the simulated row's bytes and verdicts:
// the input counts are whole chunks, so Partition and a fixed ChunkSize
// cut the same boundaries. The wire row is one of them, so a kernel that
// kept a reference into an input past Update, which a later line's
// decoding then overwrote, fails it. And the simulated row at seed+1 must commit other bytes: a runtime that
// ignored its seed would pass every other check. No benchmark is exempt:
// every one's Update draws on its stream, and its committed bytes move
// with the seed.
//
// -short leaves out the resumed rows.
func TestDeterminismMatrix(t *testing.T) {
	names := bench.Names()
	if len(names) != 8 {
		t.Fatalf("expected 8 registered benchmarks, have %d: %v", len(names), names)
	}
	rows := matrixRows(testing.Short())
	var mu sync.Mutex // guards the two below, summed over the benchmarks
	var aborts, seededResumes int
	// The axes only check what sessions exercise.
	t.Cleanup(func() {
		if aborts == 0 {
			t.Error("no row aborted a chunk: recovery is unexercised")
		}
		if !testing.Short() && seededResumes == 0 {
			t.Error("no resumed first boundary built its replicas from the snapshot's seed")
		}
	})
	for _, name := range names {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			mb := newMatrixBench(t, name)
			got := make(map[matrixRow]matrixOutcome, len(rows))
			for _, row := range rows {
				run := func() matrixOutcome {
					if row.workers == 0 {
						return mb.sim(t, row, matrixSeed)
					}
					return mb.pipeline(t, row)
				}
				first, second := run(), run()
				if first.digest != second.digest || !reflect.DeepEqual(first.byChunk, second.byChunk) || first.cycles != second.cycles {
					t.Errorf("%s %s: two runs diverged (bytes %s vs %s, %d vs %d cycles); riskiest path: %s",
						name, row, first.digest, second.digest, first.cycles, second.cycles, row.risk())
				}
				if row.faults && first.fired == 0 {
					t.Errorf("%s %s: no planned fault fired", name, row)
				}
				got[row] = first
				mu.Lock()
				aborts += first.aborts
				seededResumes += first.seededResumes
				mu.Unlock()
			}
			ref := got[matrixRow{}]
			for _, row := range rows {
				if o := got[row]; o.digest != ref.digest || !reflect.DeepEqual(o.byChunk, ref.byChunk) {
					t.Errorf("%s %s: committed %s, %s committed %s (or the verdicts differ); riskiest path: %s",
						name, row, o.digest, matrixRow{}, ref.digest, row.risk())
				}
			}
			if o := mb.sim(t, matrixRow{}, matrixSeed+1); o.digest == ref.digest {
				t.Errorf("%s: seed %d committed the bytes of seed %d", name, matrixSeed+1, matrixSeed)
			}
		})
	}
}

// encodeRun streams inputs through a fresh pipeline and returns the
// committed outputs in the benchmark's wire encoding, one line each.
func encodeRun(t *testing.T, name string, cfg engine.StreamConfig, inputs []engine.Input) []byte {
	t.Helper()
	lines, _, stats := sessionRun(t, name, cfg, inputs)
	if int(stats.Outputs) != len(inputs) {
		t.Fatalf("%s: %d outputs for %d inputs", name, stats.Outputs, len(inputs))
	}
	return joinLines(lines)
}

// TestStreamingDeterminism is the reproducibility guarantee the package
// documents: same seed, same input stream → byte-identical committed
// outputs, run after run, for real benchmarks with real nondeterminism,
// concurrency and mispeculation enabled.
// Scheduling may reorder every internal event; the committed sequence
// must not notice. (-race runs of this test double as the proof that the
// determinism is not an artifact of accidental synchronization.)
func TestStreamingDeterminism(t *testing.T) {
	for _, name := range []string{"facetrack", "streamcluster", "streamclassifier", "dedupstream"} {
		t.Run(name, func(t *testing.T) {
			inputs := bench.MustNew(name).Inputs(rng.New(9))
			if len(inputs) > 90 {
				inputs = inputs[:90]
			}
			cfg := engine.StreamConfig{
				ChunkSize: 7, Lookback: 3, ExtraStates: 1, Workers: 4, Seed: 13,
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
	inputs := bench.MustNew(name).Inputs(rng.New(9))[:60]
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
