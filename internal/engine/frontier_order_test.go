package engine_test

import (
	"bytes"
	"reflect"
	"sync"
	"testing"
	"time"

	"gostats/internal/bench"
	_ "gostats/internal/bench/all"
	"gostats/internal/engine"
	"gostats/internal/rng"
)

// orderSink records, in arrival order, the chunk index of every commit
// decision and output emission. All decision events come from the single
// commit-stage goroutine, but other event kinds arrive concurrently from
// workers, so the sink locks.
type orderSink struct {
	mu        sync.Mutex
	decisions []int // EvCommitted / EvAborted
	outputs   []int // EvOutputs
}

func (s *orderSink) Event(e engine.Event) {
	s.mu.Lock()
	defer s.mu.Unlock()
	switch e.Kind {
	case engine.EvCommitted, engine.EvAborted:
		s.decisions = append(s.decisions, e.Chunk)
	case engine.EvOutputs:
		s.outputs = append(s.outputs, e.Chunk)
	}
}

// TestFrontierCommitOrder is the commit stage's end-to-end ordering
// property: in whatever order the workers finish their chunks, the
// commit/abort decisions and the output emissions are applied in strict
// input order, exactly one decision per chunk, and the committed byte
// sequence matches the sequential batch reference.
func TestFrontierCommitOrder(t *testing.T) {
	for _, name := range []string{"facetrack", "streamclassifier"} {
		for _, workers := range []int{2, 3, 5} {
			for _, seed := range []uint64{3, 9} {
				t.Run(name, func(t *testing.T) {
					b, err := bench.New(name)
					if err != nil {
						t.Fatal(err)
					}
					inputs := b.Inputs(rng.New(1))
					if len(inputs) > 96 {
						inputs = inputs[:96]
					}
					cfg := engine.Config{Chunks: 8, Lookback: 4, ExtraStates: 1, InnerWidth: 1, Seed: seed}

					ref, err := (&engine.BatchScheduler{}).RunSlice(b, inputs, cfg)
					if err != nil {
						t.Fatalf("batch reference: %v", err)
					}

					sink := &orderSink{}
					rep, err := (&engine.StreamScheduler{Workers: workers, Sink: sink}).RunSlice(b, inputs, cfg)
					if err != nil {
						t.Fatalf("stream (workers=%d seed=%d): %v", workers, seed, err)
					}

					for _, seq := range []struct {
						what string
						got  []int
					}{{"decision", sink.decisions}, {"output", sink.outputs}} {
						if len(seq.got) != cfg.Chunks {
							t.Fatalf("workers=%d seed=%d: %d %s events, want %d",
								workers, seed, len(seq.got), seq.what, cfg.Chunks)
						}
						for j, c := range seq.got {
							if c != j {
								t.Fatalf("workers=%d seed=%d: %s %d was for chunk %d, want input order",
									workers, seed, seq.what, j, c)
							}
						}
					}

					if len(rep.Outputs) != len(ref.Outputs) {
						t.Fatalf("workers=%d seed=%d: %d outputs, batch %d",
							workers, seed, len(rep.Outputs), len(ref.Outputs))
					}
					for i := range ref.Outputs {
						if !reflect.DeepEqual(rep.Outputs[i], ref.Outputs[i]) {
							t.Fatalf("workers=%d seed=%d: output %d differs from batch",
								workers, seed, i)
						}
					}
				})
			}
		}
	}
}

// TestRecordReuseStress is the net under chunk-record reuse. A record is
// handed producer → worker → commit stage and refilled a lap later with
// nothing guarding it but the window arithmetic (newRecords), so the test
// makes every premature reuse either a race the detector reports or a
// wrong byte: the smallest record arrays (Workers 1 and 2: 4 and 8
// records), a Plan of 3-, 40- and 3-input chunks — a period of three over
// arrays of even length, so every record meets both sizes and each of its
// buffers is re-sliced both ways — streamclassifier so most chunks abort
// and recovery rewrites outs and origs in place, a checkpoint at
// every commit so the tracker reads inputs, outs and the lineage each
// time, and a consumer slower than the two-chunk output buffer so the
// commit stage parks while the producer and the workers run ahead. Its
// outputs and every chunk's untimed event sequence must be those of the
// same Plan over 32 records (Workers 8), where next to nothing is reused
// while it could still be read. A capture builds a lineage's deferred
// replicas, so the plan runs a second time without checkpoints: there a
// record keeps its replica seed until its successor's boundary builds or
// drops it, and a record whose seed outlived its turn would hand the
// snapshot to the next lap.
func TestRecordReuseStress(t *testing.T) {
	const name, chunks = "streamclassifier", 201
	plan, n := make([]int, chunks), 0
	for j := range plan {
		plan[j] = []int{3, 40, 3}[j%3]
		n += plan[j]
	}
	inputs := bench.MustNew(name).Inputs(rng.New(1))
	for len(inputs) < n {
		inputs = append(inputs, inputs...)
	}
	inputs = inputs[:n]
	wc, err := bench.WireFor(name)
	if err != nil {
		t.Fatal(err)
	}

	run := func(workers int, pace func(int), ckpt engine.CheckpointConfig) ([]byte, map[int][]untimed) {
		log := &chunkLog{}
		lines, snaps, st := sessionRunPaced(t, name, engine.StreamConfig{
			ChunkSize: 3, Plan: plan, Lookback: 4, ExtraStates: 1, Workers: workers, Seed: 11, Sink: log,
			Checkpoint: ckpt,
		}, inputs, pace)
		if st.Chunks != chunks || st.Chunks != st.Commits+st.Aborts || st.Outputs != int64(n) {
			t.Fatalf("workers=%d: %d chunks = %d commits + %d aborts, %d outputs; want %d chunks, %d outputs",
				workers, st.Chunks, st.Commits, st.Aborts, st.Outputs, chunks, n)
		}
		wantSnaps := 0
		if ckpt.Codec != nil {
			wantSnaps = chunks
		}
		if st.Aborts < chunks/2 || st.Commits < 2 || len(snaps) != wantSnaps {
			t.Fatalf("workers=%d: %d aborts, %d commits, %d snapshots: the session no longer stresses recovery and the tracker",
				workers, st.Aborts, st.Commits, len(snaps))
		}
		t.Logf("workers=%d: %d commits, %d aborts", workers, st.Commits, st.Aborts)
		return joinLines(lines), log.byChunk
	}
	slow := func(n int) {
		if n%7 == 0 {
			time.Sleep(20 * time.Microsecond)
		}
	}

	for _, ckpt := range []engine.CheckpointConfig{{EveryCommits: 1, Codec: wc}, {}} {
		wantOut, wantLog := run(8, nil, ckpt)
		for _, workers := range []int{1, 2} {
			gotOut, gotLog := run(workers, slow, ckpt)
			if !bytes.Equal(gotOut, wantOut) {
				t.Errorf("workers=%d checkpoints=%t: committed output bytes differ from the workers=8 session's", workers, ckpt.Codec != nil)
			}
			if !reflect.DeepEqual(gotLog, wantLog) {
				for j := 0; j < chunks; j++ {
					if !reflect.DeepEqual(gotLog[j], wantLog[j]) {
						t.Fatalf("workers=%d checkpoints=%t: chunk %d's events differ:\n got: %v\nwant: %v", workers, ckpt.Codec != nil, j, gotLog[j], wantLog[j])
					}
				}
				t.Fatalf("workers=%d checkpoints=%t reported %d chunks, workers=8 %d", workers, ckpt.Codec != nil, len(gotLog), len(wantLog))
			}
		}
	}
}
