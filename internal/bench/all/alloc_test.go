package all

import (
	"context"
	"runtime"
	"sync"
	"testing"

	"gostats/internal/bench"
	"gostats/internal/engine"
	"gostats/internal/rng"
	"gostats/internal/workload"
)

// allocs reports the allocations of one call of f.
func allocs(f func()) float64 { return testing.AllocsPerRun(10, f) }

// sample is one benchmark's codec with an input, the output and state it
// leads to, and the three encoded.
type sample struct {
	wc                      bench.WireCodec
	out                     engine.Output
	st                      engine.State
	inLine, outLine, stLine []byte
}

func newSample(t *testing.T, name string) (s sample) {
	t.Helper()
	b := bench.MustNew(name)
	var err error
	if s.wc, err = bench.WireFor(name); err != nil {
		t.Fatal(err)
	}
	in := b.Inputs(rng.New(7))[3]
	s.st, s.out = b.Update(b.Initial(rng.New(1)), in, rng.New(2))
	if s.inLine, err = s.wc.EncodeInput(in); err != nil {
		t.Fatal(err)
	}
	if s.outLine, err = s.wc.EncodeOutput(s.out); err != nil {
		t.Fatal(err)
	}
	if s.stLine, err = s.wc.EncodeState(s.st); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestCodecAllocations pins what the hand-written codecs are for. Every
// decoder must take its own encoder's line without encoding/json — seen
// from outside as allocating less than the same line behind a space,
// which json.Unmarshal decodes — and the hot ones have absolute budgets.
func TestCodecAllocations(t *testing.T) {
	for _, name := range bench.WireNames() {
		t.Run(name, func(t *testing.T) {
			s := newSample(t, name)
			for _, d := range []struct {
				what   string
				line   []byte
				decode func([]byte) error
			}{
				{"DecodeInput", s.inLine, func(l []byte) error { _, err := s.wc.DecodeInput(l); return err }},
				{"DecodeOutput", s.outLine, func(l []byte) error { _, err := s.wc.DecodeOutput(l); return err }},
				{"DecodeState", s.stLine, func(l []byte) error { _, err := s.wc.DecodeState(l); return err }},
			} {
				slowLine := append([]byte(" "), d.line...)
				if err := d.decode(slowLine); err != nil {
					t.Fatalf("%s: %v", d.what, err)
				}
				fast := allocs(func() { _ = d.decode(d.line) })
				slow := allocs(func() { _ = d.decode(slowLine) })
				if fast >= slow {
					t.Errorf("%s: %v allocations for the canonical line, %v through encoding/json: the scanner is not taking it", d.what, fast, slow)
				}
			}
		})
	}

	sc := newSample(t, "streamcluster")
	if n := allocs(func() { _, _ = sc.wc.DecodeInput(sc.inLine) }); n > 2 {
		t.Errorf("streamcluster DecodeInput: %v allocations, want at most 2 (the points and the interface box)", n)
	}
	if n := allocs(func() { _, _ = sc.wc.EncodeOutput(sc.out) }); n > 1 {
		t.Errorf("streamcluster EncodeOutput: %v allocations, want at most 1 (the line)", n)
	}
	dd := newSample(t, "dedupstream")
	if n := allocs(func() { _, _ = dd.wc.EncodeState(dd.st) }); n > 1 {
		t.Errorf("dedupstream EncodeState: %v allocations, want at most 1 (the line)", n)
	}
}

// mallocs returns the number of heap objects f allocates, on any
// goroutine, after the garbage collector has been made to settle.
func mallocs(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

// TestPipelineAllocations pins what the engine itself allocates for a
// chunk on the fault-free path: nothing. A warmed streamcluster pipeline's
// heap objects per chunk, less those the kernel allocates for the same
// inputs in a sequential run, are what the protocol's extra Update calls
// allocate — the lookback replays of the alternative producer and of the
// replica and an aborted chunk's re-execution box an output apiece, and
// every chunk builds a cold state — and measure 12.1–12.6 at either
// worker count (42.5 before chunk records, RNG streams and replica
// hand-offs stopped being allocated per chunk). One object more per chunk
// in the engine fails. The producer side is inside the measurement: Push
// fills and dispatches every chunk, parks on the speculation window with
// a cancellable context of its own, and — in the adaptive case, pinned to
// the same boundaries — records an outcome into the controller under the
// boundary lock once a chunk.
func TestPipelineAllocations(t *testing.T) {
	const (
		chunkSize   = 16
		warm, timed = 47, 128 // chunks
		budget      = 13.0
	)
	b := bench.MustNew("streamcluster")
	inputs := workload.SessionInputs(b, (warm+timed)*chunkSize, 11)
	if len(inputs) != (warm+timed)*chunkSize {
		t.Fatalf("streamcluster has %d inputs, the test wants %d", len(inputs), (warm+timed)*chunkSize)
	}
	timedIn := inputs[warm*chunkSize:]
	kernel := mallocs(func() { engine.RunSequential(engine.NewNativeExec(), b, timedIn, 3) })

	for _, tc := range []struct {
		workers int
		adapt   bool
	}{{1, false}, {2, false}, {2, true}} {
		workers := tc.workers
		ctx, cancel := context.WithCancel(context.Background())
		p, err := engine.NewStream(ctx, b, engine.StreamConfig{
			ChunkSize: chunkSize, Lookback: 4, ExtraStates: 1, Workers: workers, Seed: 3,
			Adapt: tc.adapt, MinChunk: chunkSize, MaxChunk: chunkSize})
		if err != nil {
			t.Fatal(err)
		}
		// Whole chunks in, as many outputs out: the pipeline is idle at a
		// chunk boundary on either side of the measurement. Each round's
		// producer has returned before the next one starts: Push has one
		// caller at a time.
		var pushed sync.WaitGroup
		run := func(ins []engine.Input) {
			pushed.Add(1)
			go func() {
				defer pushed.Done()
				for _, in := range ins {
					if p.Push(ctx, in) != nil {
						return
					}
				}
			}()
			for range ins {
				if _, ok := <-p.Outputs(); !ok {
					t.Fatal("pipeline closed early")
				}
			}
			pushed.Wait()
		}
		run(inputs[:warm*chunkSize])
		// The count's noise is one-sided — a state cloned while the pool
		// happened to be empty — so the least of three rounds is the figure.
		got := mallocs(func() { run(timedIn) })
		for round := 1; round < 3; round++ {
			got = min(got, mallocs(func() { run(timedIn) }))
		}
		p.Close()
		for range p.Outputs() {
		}
		st, err := p.Wait()
		cancel()
		if err != nil || st.Faults != 0 || st.Chunks != warm+3*timed {
			t.Fatalf("workers=%d adapt=%v: err %v, %d faults, %d chunks (want %d)", workers, tc.adapt, err, st.Faults, st.Chunks, warm+3*timed)
		}
		if perChunk := (float64(got) - float64(kernel)) / timed; perChunk > budget {
			t.Errorf("workers=%d adapt=%v: %.2f heap objects per chunk beyond the kernel's own (%d objects over %d chunks, kernel %d), want at most %.0f",
				workers, tc.adapt, perChunk, got, timed, kernel, budget)
		}
	}
}
