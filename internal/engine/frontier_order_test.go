package engine_test

import (
	"bytes"
	"context"
	"errors"
	"reflect"
	"sync"
	"testing"
	"time"

	"gostats/internal/bench"
	_ "gostats/internal/bench/all"
	"gostats/internal/checkpoint"
	"gostats/internal/engine"
	"gostats/internal/machine"
	"gostats/internal/rng"
)

// orderSink records, in arrival order, the chunk index of every commit
// decision and output emission. Decision events come from whichever
// worker holds the frontier role, one holder at a time, while other event
// kinds arrive concurrently from the other workers, so the sink locks.
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

// TestFrontierCommitOrder is the commit frontier's end-to-end ordering
// property: in whatever order the workers finish their chunks, the
// commit/abort decisions and the output emissions are applied in strict
// input order, exactly one decision per chunk, and the committed byte
// sequence matches the batch reference — the simulated machine's batch
// body, the one runtime independent of the pipeline.
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

					ref, err := (&engine.SimScheduler{Config: machine.DefaultConfig(8)}).RunSlice(b, inputs, cfg)
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

// panicSink counts decision events. It panics on the commitAt-th
// EvCommitted when commitAt is set, and counts the decisions that arrive
// after a panic at the frontier — its own, or one marked by the caller.
type panicSink struct {
	mu       sync.Mutex
	commitAt int
	commits  int
	panicked bool
	late     int // decision events after the panicking one
}

func (s *panicSink) Event(e engine.Event) {
	if e.Kind != engine.EvCommitted && e.Kind != engine.EvAborted {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.panicked {
		s.late++
		return
	}
	if e.Kind == engine.EvCommitted {
		if s.commits++; s.commits == s.commitAt {
			s.panicked = true
			panic("sink: a panicking commit observer")
		}
	}
}

// mark records that the frontier is about to panic outside the sink.
func (s *panicSink) mark() {
	s.mu.Lock()
	s.panicked = true
	s.mu.Unlock()
}

// TestFrontierPanicFailsSession: a panic on the worker holding the
// frontier role — in a snapshot observer or a sink — fails the session at
// SiteCommit instead of crashing the process. Push reports the FaultError
// within a chunk, Outputs closes, no decision follows the panicking one,
// and every goroutine of the session exits.
func TestFrontierPanicFailsSession(t *testing.T) {
	const chunk = 8
	prog, inputs := wakeInputs(t, 64)
	wc, err := bench.WireFor("streamcluster")
	if err != nil {
		t.Fatal(err)
	}
	base := goroutineBase()
	for _, tc := range []struct {
		name string
		cfg  func(*panicSink) engine.StreamConfig
	}{
		{"third snapshot", func(s *panicSink) engine.StreamConfig {
			snaps := 0 // the frontier's alone, one holder at a time
			return engine.StreamConfig{Sink: s, Checkpoint: engine.CheckpointConfig{
				Codec: wc, EveryCommits: 1, OnSnapshot: func(*checkpoint.Snapshot) {
					if snaps++; snaps == 3 {
						s.mark()
						panic("a panicking snapshot observer")
					}
				}}}
		}},
		{"fifth commit event", func(s *panicSink) engine.StreamConfig {
			s.commitAt = 5
			return engine.StreamConfig{Sink: s}
		}},
	} {
		for _, workers := range []int{1, 2, 4} {
			sink := &panicSink{}
			cfg := tc.cfg(sink)
			cfg.ChunkSize, cfg.Lookback, cfg.ExtraStates, cfg.Workers, cfg.Seed = chunk, 4, 1, workers, 3
			p, err := engine.NewStream(context.Background(), prog, cfg)
			if err != nil {
				t.Fatal(err)
			}
			pushed := make(chan error, 1)
			go func() {
				for i := 0; ; i++ {
					if err := p.Push(context.Background(), inputs[i%len(inputs)]); err != nil {
						pushed <- err
						return
					}
				}
			}()
			within(t, tc.name+": a failed session's Outputs", func() {
				for range p.Outputs() {
				}
			})
			_, werr := p.Wait()
			var fe *engine.FaultError
			if !errors.As(werr, &fe) || fe.Fault.Site != engine.SiteCommit {
				t.Fatalf("%s, workers=%d: Wait = %v, want a FaultError at %s", tc.name, workers, werr, engine.SiteCommit)
			}
			var perr error
			within(t, tc.name+": the producer", func() { perr = <-pushed })
			if !errors.Is(perr, werr) {
				t.Errorf("%s, workers=%d: the producer saw %v, want the session's FaultError", tc.name, workers, perr)
			}
			if n, err := pushUntilErr(p, inputs[0], chunk); !errors.Is(err, werr) {
				t.Errorf("%s, workers=%d: Push after the fault = %v after %d pushes, want the FaultError within a chunk", tc.name, workers, err, n)
			}
			sink.mu.Lock()
			panicked, late := sink.panicked, sink.late
			sink.mu.Unlock()
			if !panicked || late != 0 {
				t.Errorf("%s, workers=%d: panicked %t, %d decision events after the panic; want a panic and none after it", tc.name, workers, panicked, late)
			}
			if n := goroutines(base); n != base {
				t.Errorf("%s, workers=%d: %d goroutines after Wait, %d before the session", tc.name, workers, n, base)
			}
		}
	}
}

// TestRecordReuseStress is the net under chunk-record reuse. A record is
// handed producer → worker → frontier and refilled a lap later with
// nothing guarding it but the window arithmetic (newRecords), so the test
// makes every premature reuse either a race the detector reports or a
// wrong byte: the smallest record arrays (Workers 1 and 2: 4 and 8
// records), a Plan of 3-, 40- and 3-input chunks — a period of three over
// arrays of even length, so every record meets both sizes and each of its
// buffers is re-sliced both ways — streamclassifier so most chunks abort
// and recovery rewrites outs and origs in place, a checkpoint at
// every commit so the tracker reads inputs, outs and the lineage each
// time, and a consumer slower than the two-chunk output buffer so the
// worker holding the frontier parks while the producer and the other
// workers run ahead. Its
// outputs and every chunk's untimed event sequence must be those of the
// same Plan over 32 records (Workers 8), where next to nothing is reused
// while it could still be read. A record keeps its replica seed until its
// successor's boundary builds or drops it, and a capture encodes the
// seed's snapshot in between without building anything, so a record
// whose seed outlived its turn would hand the snapshot to the next lap or
// to the tracker. The plan runs a second time without checkpoints, where
// only the boundary reads the seed and the frontier never stalls on a
// capture.
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
