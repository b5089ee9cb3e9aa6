package engine_test

import (
	"reflect"
	"sync"
	"testing"

	"gostats/internal/bench"
	_ "gostats/internal/bench/all"
	"gostats/internal/engine"
	"gostats/internal/machine"
	"gostats/internal/rng"
)

// probe aggregates a run's engine events and notes the chunks whose
// events account for the differences in protocol work between
// schedulers: boundaries validated on the final state alone, and chunks
// that aborted.
type probe struct {
	ctr engine.Counters

	mu          sync.Mutex
	finalMatch  []int // chunks whose EvValidated inspected one state and matched
	aborted     []int // chunks that aborted
	lastAborted bool
	lastChunk   int
}

func (p *probe) Event(e engine.Event) {
	p.ctr.Event(e)
	p.mu.Lock()
	defer p.mu.Unlock()
	switch {
	case e.Kind == engine.EvValidated && e.N == 1 && e.Matched:
		p.finalMatch = append(p.finalMatch, e.Chunk)
	case e.Kind == engine.EvAborted:
		p.aborted = append(p.aborted, e.Chunk)
		p.lastAborted = p.lastAborted || e.Chunk == p.lastChunk
	}
}

// TestCrossExecutorEquivalence is the refactor's contract: all eight
// benchmarks, run through the batch, streaming, and simulated-machine
// schedulers with the same seed and chunk boundaries, commit byte-identical
// output sequences and the same commits and aborts. Batch and stream are
// both the streaming pipeline, at a worker per chunk and at three
// workers, so their protocol-work totals, from the one canonical event
// stream, are exactly equal. The simulated machine runs the independent
// batch body, and its totals differ from the pipeline's only where the
// protocol lets them; each difference is stated exactly rather than
// waved through:
//
//   - A pipeline chunk never knows it is last, so the pipeline takes one
//     more snapshot than the batch body (two when the last chunk aborted
//     and was re-executed).
//   - The simulated machine builds every run's replicas eagerly (Fig. 5).
//     The pipeline builds them only where a boundary needs them, so sim
//     does ExtraStates replicas, each replaying the chunk's window, more
//     for every boundary that matched on the final state, and for every
//     non-last chunk whose speculative run aborted before a boundary
//     could read its replicas.
func TestCrossExecutorEquivalence(t *testing.T) {
	names := bench.Names()
	if len(names) != 8 {
		t.Fatalf("expected 8 registered benchmarks, have %d: %v", len(names), names)
	}
	const (
		nInputs = 72
		seed    = 5
	)
	cfg := engine.Config{Chunks: 6, Lookback: 4, ExtraStates: 1, InnerWidth: 1, Seed: seed}

	for _, name := range names {
		t.Run(name, func(t *testing.T) {
			b, err := bench.New(name)
			if err != nil {
				t.Fatal(err)
			}
			inputs := b.Inputs(rng.New(1))
			if len(inputs) > nInputs {
				inputs = inputs[:nInputs]
			}
			bounds := engine.Partition(len(inputs), cfg.Chunks)
			last := len(bounds) - 1
			window := func(j int) int64 { return int64(min(cfg.Lookback, bounds[j][1]-bounds[j][0])) }

			batchPr := &probe{lastChunk: last}
			streamPr := &probe{lastChunk: last}
			var simCtr engine.Counters

			batch := &engine.BatchScheduler{Sink: batchPr}
			stream := &engine.StreamScheduler{Workers: 3, Sink: streamPr}
			sim := &engine.SimScheduler{Config: machine.DefaultConfig(8), Sink: &simCtr}

			repBatch, err := batch.RunSlice(b, inputs, cfg)
			if err != nil {
				t.Fatalf("batch: %v", err)
			}
			repStream, err := stream.RunSlice(b, inputs, cfg)
			if err != nil {
				t.Fatalf("stream: %v", err)
			}
			repSim, err := sim.RunSlice(b, inputs, cfg)
			if err != nil {
				t.Fatalf("sim: %v", err)
			}

			for _, other := range []struct {
				name string
				rep  *engine.Report
			}{{"stream", repStream}, {"sim", repSim}} {
				if len(other.rep.Outputs) != len(repBatch.Outputs) {
					t.Fatalf("%s emitted %d outputs, batch %d",
						other.name, len(other.rep.Outputs), len(repBatch.Outputs))
				}
				for i := range repBatch.Outputs {
					if !reflect.DeepEqual(other.rep.Outputs[i], repBatch.Outputs[i]) {
						t.Fatalf("output %d differs:\n %s: %#v\n batch:  %#v",
							i, other.name, other.rep.Outputs[i], repBatch.Outputs[i])
					}
				}
				if other.rep.Commits != repBatch.Commits || other.rep.Aborts != repBatch.Aborts {
					t.Fatalf("%s commits/aborts %d/%d, batch %d/%d", other.name,
						other.rep.Commits, other.rep.Aborts, repBatch.Commits, repBatch.Aborts)
				}
			}

			// Batch and stream run the same pipeline at different worker
			// counts: their totals agree exactly.
			bSnap := batchPr.ctr.Snapshot()
			if sSnap := streamPr.ctr.Snapshot(); sSnap != bSnap {
				t.Fatalf("stream counter snapshot differs from batch:\nstream: %+v\nbatch:  %+v", sSnap, bSnap)
			}

			// The simulated scheduler's totals, less the replicas it built
			// eagerly, are the pipeline's less the last chunk's snapshot
			// (doubled when it was re-executed).
			adjSim := simCtr.Snapshot()
			eager := func(j int) {
				adjSim.OrigReplicas -= int64(cfg.ExtraStates)
				adjSim.OrigUpdates -= int64(cfg.ExtraStates) * window(j)
			}
			for _, c := range batchPr.finalMatch {
				eager(c - 1) // the boundary before chunk c reads chunk c-1's lineage
			}
			for _, a := range batchPr.aborted {
				if a != last {
					eager(a)
				}
			}
			adjNative := bSnap
			adjNative.Snapshots--
			if batchPr.lastAborted {
				adjNative.Snapshots--
			}
			t.Logf("%d boundaries matched on the final state, %d chunks aborted", len(batchPr.finalMatch), len(batchPr.aborted))
			if adjSim != adjNative {
				t.Fatalf("sim counter snapshot (eager replicas adjusted) differs from the pipeline's (last chunk adjusted):\nsim:      %+v\npipeline: %+v", adjSim, adjNative)
			}
			if adjSim.Overheads() != adjNative.Overheads() {
				t.Fatalf("overhead totals differ:\nsim:      %+v\npipeline: %+v",
					adjSim.Overheads(), adjNative.Overheads())
			}
		})
	}
}
