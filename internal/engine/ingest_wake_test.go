package engine_test

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"gostats/internal/bench"
	_ "gostats/internal/bench/all"
	"gostats/internal/engine"
	"gostats/internal/rng"
)

// The assembler parks until the rest of its chunk is buffered, not until
// the next input is (ring.SPSC.Await). These tests hold every other way
// out of that wait to its contract: Close flushes exactly the partial
// chunk, Halt and cancellation dispatch nothing partial, and no mix of
// push bursts, chunk sizes and ring sizes leaves either side parked.

// chunkSizes records the size of every chunk the assembler dispatched.
type chunkSizes struct {
	mu sync.Mutex
	n  []int
}

func (s *chunkSizes) Event(e engine.Event) {
	if e.Kind == engine.EvChunk {
		s.mu.Lock()
		s.n = append(s.n, e.N)
		s.mu.Unlock()
	}
}

func wakeInputs(t *testing.T, n int) (engine.Program, []engine.Input) {
	t.Helper()
	b := bench.MustNew("streamcluster")
	inputs := b.Inputs(rng.New(5))
	if len(inputs) < n {
		t.Fatalf("streamcluster has %d inputs, the test wants %d", len(inputs), n)
	}
	return b, inputs[:n]
}

// within fails the test if f has not returned after a generous bound: a
// wake-up that never comes must fail here, not at the package timeout.
func within(t *testing.T, what string, f func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		f()
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatalf("%s: still waiting after 30s", what)
	}
}

func TestIngestWakeCloseFlushesPartialChunk(t *testing.T) {
	for _, tail := range []int{1, 5, 15} {
		// settle: let the assembler reach its park before Close arrives, or
		// close on its heels; either way the flush is the same.
		for _, settle := range []bool{false, true} {
			prog, inputs := wakeInputs(t, 16+tail)
			sizes := &chunkSizes{}
			p, err := engine.NewStream(context.Background(), prog, engine.StreamConfig{
				ChunkSize: 16, Lookback: 4, ExtraStates: 1, Workers: 2, Seed: 3, Sink: sizes})
			if err != nil {
				t.Fatal(err)
			}
			within(t, "close with a partial chunk buffered", func() {
				for _, in := range inputs {
					if err := p.Push(context.Background(), in); err != nil {
						t.Errorf("push: %v", err)
					}
				}
				got := 0
				if settle {
					for ; got < 16; got++ {
						<-p.Outputs()
					}
				}
				p.Close()
				for range p.Outputs() {
					got++
				}
				if got != len(inputs) {
					t.Errorf("tail %d: %d outputs, want %d", tail, got, len(inputs))
				}
			})
			if _, err := p.Wait(); err != nil {
				t.Fatal(err)
			}
			if want := []int{16, tail}; !reflect.DeepEqual(sizes.n, want) {
				t.Errorf("tail %d settle %v: dispatched chunks %v, want %v", tail, settle, sizes.n, want)
			}
			if err := p.Push(context.Background(), inputs[0]); err != engine.ErrClosed {
				t.Errorf("Push after Close = %v, want ErrClosed", err)
			}
		}
	}
}

func TestIngestWakeHaltMidChunk(t *testing.T) {
	prog, inputs := wakeInputs(t, 16+5)
	sizes := &chunkSizes{}
	p, err := engine.NewStream(context.Background(), prog, engine.StreamConfig{
		ChunkSize: 16, Lookback: 4, ExtraStates: 1, Workers: 2, Seed: 3, Sink: sizes})
	if err != nil {
		t.Fatal(err)
	}
	within(t, "halt with a partial chunk buffered", func() {
		for _, in := range inputs {
			if err := p.Push(context.Background(), in); err != nil {
				t.Errorf("push: %v", err)
			}
		}
		// Chunk 0's outputs put the assembler in chunk 1, five inputs in
		// hand and waiting for eleven more.
		for i := 0; i < 16; i++ {
			<-p.Outputs()
		}
		p.Halt()
		for range p.Outputs() {
			t.Error("a halted session emitted an output of its partial chunk")
		}
	})
	st, err := p.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if want := []int{16}; !reflect.DeepEqual(sizes.n, want) || st.Chunks != 1 {
		t.Errorf("dispatched chunks %v (%d), want %v: Halt must not flush a partial chunk", sizes.n, st.Chunks, want)
	}
	if err := p.Push(context.Background(), inputs[0]); err != engine.ErrClosed {
		t.Errorf("Push after Halt = %v, want ErrClosed", err)
	}
}

func TestIngestWakeCancelMidChunk(t *testing.T) {
	prog, inputs := wakeInputs(t, 16+5)
	sizes := &chunkSizes{}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	const depth = 8
	p, err := engine.NewStream(ctx, prog, engine.StreamConfig{
		ChunkSize: 16, Lookback: 4, ExtraStates: 1, Workers: 2, QueueDepth: depth, Seed: 3, Sink: sizes})
	if err != nil {
		t.Fatal(err)
	}
	within(t, "cancel with a partial chunk buffered", func() {
		for _, in := range inputs {
			if err := p.Push(ctx, in); err != nil {
				t.Errorf("push: %v", err)
			}
		}
		for i := 0; i < 16; i++ {
			<-p.Outputs()
		}
		cancel()
		for range p.Outputs() {
			t.Error("a canceled session emitted an output of its partial chunk")
		}
		// The assembler is gone, so the ring can only fill: the context's
		// error must surface before a ring's worth of further pushes.
		var err error
		for i := 0; err == nil && i <= depth; i++ {
			err = p.Push(ctx, inputs[0])
		}
		if !errors.Is(err, context.Canceled) {
			t.Errorf("Push into a canceled pipeline = %v, want context.Canceled", err)
		}
	})
	st, err := p.Wait()
	if !errors.Is(err, context.Canceled) {
		t.Errorf("Wait = %v, want context.Canceled", err)
	}
	if want := []int{16}; !reflect.DeepEqual(sizes.n, want) || st.Chunks != 1 {
		t.Errorf("dispatched chunks %v (%d), want %v: a canceled session must not flush a partial chunk", sizes.n, st.Chunks, want)
	}
}

// TestIngestWakeBurstsNeverHang drives chunks wider than the ingest ring
// with random push bursts: the assembler's batch wait is clamped to the
// ring, so a full ring always releases it. Boundaries are planned, so the
// outputs must be those of the same plan behind a roomy ring.
func TestIngestWakeBurstsNeverHang(t *testing.T) {
	prog, inputs := wakeInputs(t, 600)
	plan := []int{13, 1, 40, 7, 64, 2, 33}
	run := func(depth int, seed int64) []engine.Output {
		p, err := engine.NewStream(context.Background(), prog, engine.StreamConfig{
			ChunkSize: 24, Plan: plan, Lookback: 4, ExtraStates: 1, Workers: 2, QueueDepth: depth, Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		var outs []engine.Output
		within(t, "bursts against a ring narrower than the chunk", func() {
			go func() {
				defer p.Close()
				r := rand.New(rand.NewSource(seed))
				for i := 0; i < len(inputs); {
					for burst := 1 + r.Intn(50); burst > 0 && i < len(inputs); burst-- {
						if err := p.Push(context.Background(), inputs[i]); err != nil {
							t.Errorf("push %d: %v", i, err)
							return
						}
						i++
					}
					runtime.Gosched()
				}
			}()
			for o := range p.Outputs() {
				outs = append(outs, o)
			}
		})
		if _, err := p.Wait(); err != nil {
			t.Fatal(err)
		}
		return outs
	}
	want := run(0, 1)
	if len(want) != len(inputs) {
		t.Fatalf("reference run: %d outputs, want %d", len(want), len(inputs))
	}
	for _, depth := range []int{2, 4, 16} {
		for seed := int64(1); seed <= 3; seed++ {
			if got := run(depth, seed); !reflect.DeepEqual(got, want) {
				t.Errorf("QueueDepth %d, bursts %d: outputs differ from the roomy ring's", depth, seed)
			}
		}
	}
}
