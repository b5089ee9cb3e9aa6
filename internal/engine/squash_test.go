package engine_test

import (
	"context"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gostats/internal/bench"
	_ "gostats/internal/bench/all"
	"gostats/internal/engine"
	"gostats/internal/rng"
)

// tagged is an input with its position in the session.
type tagged struct {
	i  int
	in engine.Input
}

// squashProbe wraps a benchmark so that every boundary misses, and lets a
// test hold one Update until another has begun: the first Update of the
// input at a position hold names waits for the first Update of the input
// at the position hold maps it to. It counts every position's Updates.
// The wrapper hides the benchmark's optional interfaces; committed bytes
// do not depend on them.
type squashProbe struct {
	engine.Program
	gates map[int]chan struct{} // position → closed at its first Update
	hold  map[int]int           // held position → the position it waits for

	mu       sync.Mutex
	calls    map[int]int
	timedOut atomic.Bool
}

func newSquashProbe(prog engine.Program, hold map[int]int) *squashProbe {
	p := &squashProbe{Program: prog, gates: map[int]chan struct{}{}, hold: hold, calls: map[int]int{}}
	for _, until := range hold {
		p.gates[until] = make(chan struct{})
	}
	return p
}

func (p *squashProbe) Match(a, b engine.State) bool { return false }

func (p *squashProbe) Update(s engine.State, in engine.Input, r *rng.Stream) (engine.State, engine.Output) {
	tg := in.(tagged)
	p.mu.Lock()
	p.calls[tg.i]++
	first := p.calls[tg.i] == 1
	p.mu.Unlock()
	if gate, ok := p.gates[tg.i]; ok && first {
		close(gate)
	}
	if until, ok := p.hold[tg.i]; ok && first {
		select {
		case <-p.gates[until]:
		case <-time.After(10 * time.Second):
			p.timedOut.Store(true)
		}
	}
	return p.Program.Update(s, tg.in, r)
}

// squashLog keeps every EvSquashed a session reports.
type squashLog struct {
	mu sync.Mutex
	ev []engine.Event
}

func (l *squashLog) Event(e engine.Event) {
	if e.Kind == engine.EvSquashed {
		l.mu.Lock()
		l.ev = append(l.ev, e)
		l.mu.Unlock()
	}
}

// TestSquashStopsDoomedBody pins the early verdict on the pipeline. Three
// chunks of four inputs, lookback 1, every boundary a miss, two workers.
// Chunk 0's body waits at its third input until chunk 1's body has begun,
// so chunk 1's copy is published before chunk 0 is applied; chunk 1's
// body waits at its second input until chunk 2's alternative producer
// replays chunk 1's last input, which the worker that applied chunk 0
// does only after it ran out of records and decided boundary 1. So the
// frontier decides boundary 1 while chunk 1's body is held, and the body
// must stop at its next input: it reports two of its four inputs run. The
// committed outputs must be a one-worker session's, where the worker that
// publishes a copy decides its boundary itself and no doomed body runs an
// input, and no goroutine of either session may be left.
func TestSquashStopsDoomedBody(t *testing.T) {
	const size, chunks = 4, 3
	b := bench.MustNew("streamcluster")
	raw := b.Inputs(rng.New(1))[:size*chunks]
	inputs := make([]engine.Input, len(raw))
	for i, in := range raw {
		inputs[i] = tagged{i, in}
	}
	base := goroutineBase()
	run := func(workers int, prog *squashProbe) ([]engine.Output, []engine.Event) {
		log := &squashLog{}
		p, err := engine.NewStream(context.Background(), prog, engine.StreamConfig{
			ChunkSize: size, Lookback: 1, ExtraStates: 1, Workers: workers, Seed: 3, Sink: log})
		if err != nil {
			t.Fatal(err)
		}
		go func() {
			for _, in := range inputs {
				if err := p.Push(context.Background(), in); err != nil {
					return
				}
			}
			p.Close()
		}()
		var outs []engine.Output
		within(t, "the session's outputs", func() {
			for out := range p.Outputs() {
				outs = append(outs, out)
			}
		})
		st, err := p.Wait()
		if err != nil {
			t.Fatal(err)
		}
		if st.Aborts != chunks-1 || prog.timedOut.Load() {
			t.Fatalf("workers=%d: %d aborts (want %d), a held Update timed out: %t", workers, st.Aborts, chunks-1, prog.timedOut.Load())
		}
		return outs, log.ev
	}

	want, ref := run(1, newSquashProbe(b, nil))
	if len(ref) != chunks-1 {
		t.Fatalf("workers=1: %d squashed runs reported, want %d", len(ref), chunks-1)
	}
	for _, e := range ref {
		if e.Ran != 0 || e.N != size {
			t.Errorf("workers=1: chunk %d's squashed run ran %d of %d inputs, want 0 of %d", e.Chunk, e.Ran, e.N, size)
		}
	}

	// Chunk 0's third input waits for chunk 1's first, chunk 1's second
	// for chunk 1's last, whose first Update is chunk 2's alternative
	// producer: chunk 1's body is held, and does not reach it.
	prog := newSquashProbe(b, map[int]int{2: size, size + 1: 2*size - 1})
	got, squashed := run(2, prog)
	if !reflect.DeepEqual(got, want) {
		t.Error("workers=2: committed outputs differ from the one-worker session's")
	}
	for _, e := range squashed {
		if e.Chunk == 1 && (e.Ran != 2 || e.N != size) {
			t.Errorf("chunk 1's squashed run ran %d of %d inputs, want 2 of %d: its body did not stop at the input after the verdict", e.Ran, e.N, size)
		}
	}
	if len(squashed) != chunks-1 {
		t.Errorf("workers=2: %d squashed runs reported, want %d", len(squashed), chunks-1)
	}
	if n := prog.calls[size+2]; n != 1 {
		t.Errorf("chunk 1's third input went through Update %d times, want once, in the re-execution", n)
	}
	if n := goroutines(base); n != base {
		t.Errorf("%d goroutines after both sessions, %d before", n, base)
	}
}
