package engine_test

import (
	"bytes"
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
	"gostats/internal/checkpoint"
	"gostats/internal/engine"
	"gostats/internal/faultinject"
	"gostats/internal/rng"
)

// The producer side's contract. Push assembles chunks on its caller's
// goroutine and blocks only where a chunk starts, on the speculation
// window; these tests hold every way out of a chunk to its contract.
// Close flushes exactly the partial chunk; Halt, cancellation and a
// terminal fault dispatch nothing partial and stop the session taking
// input within one chunk; a Halt that races the producer never drops a
// chunk it announced; no push pattern moves a boundary; and a session
// costs Workers+1 goroutines, all gone after Wait. (The TestIngestWake
// names date from the assembler stage these tests first covered.)

// chunkSizes records the size of every chunk the producer announced.
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

func (s *chunkSizes) sizes() []int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]int(nil), s.n...)
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

// goroutineBase is the goroutine count once it has held still for 20 ms:
// earlier tests' goroutines exit asynchronously.
func goroutineBase() int {
	base := runtime.NumGoroutine()
	for stable := 0; stable < 20; stable++ {
		time.Sleep(time.Millisecond)
		if n := runtime.NumGoroutine(); n != base {
			base, stable = n, 0
		}
	}
	return base
}

// goroutines waits up to 5 s for the goroutine count to reach want and
// returns the last count it read: a session's reaper is still on its way
// out when Wait returns.
func goroutines(want int) int {
	n := runtime.NumGoroutine()
	for deadline := time.Now().Add(5 * time.Second); n != want && time.Now().Before(deadline); n = runtime.NumGoroutine() {
		time.Sleep(time.Millisecond)
	}
	return n
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

// pushUntilErr pushes in until Push refuses it, at most limit times.
func pushUntilErr(p *engine.Pipeline, in engine.Input, limit int) (int, error) {
	for i := 1; i <= limit; i++ {
		if err := p.Push(context.Background(), in); err != nil {
			return i, err
		}
	}
	return limit, nil
}

func TestIngestWakeCloseFlushesPartialChunk(t *testing.T) {
	for _, tail := range []int{1, 5, 15} {
		// settle: Close with chunk 0 already committed, or on the heels of
		// the last Push; either way the flush is the same.
		for _, settle := range []bool{false, true} {
			prog, inputs := wakeInputs(t, 16+tail)
			sizes := &chunkSizes{}
			p, err := engine.NewStream(context.Background(), prog, engine.StreamConfig{
				ChunkSize: 16, Lookback: 4, ExtraStates: 1, Workers: 2, Seed: 3, Sink: sizes})
			if err != nil {
				t.Fatal(err)
			}
			within(t, "close with a partial chunk in hand", func() {
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
			if want := []int{16, tail}; !reflect.DeepEqual(sizes.sizes(), want) {
				t.Errorf("tail %d settle %v: dispatched chunks %v, want %v", tail, settle, sizes.sizes(), want)
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
	within(t, "halt with a partial chunk in hand", func() {
		for _, in := range inputs {
			if err := p.Push(context.Background(), in); err != nil {
				t.Errorf("push: %v", err)
			}
		}
		// Chunk 0 is out; the producer holds five inputs of chunk 1.
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
	if want := []int{16}; !reflect.DeepEqual(sizes.sizes(), want) || st.Chunks != 1 {
		t.Errorf("dispatched chunks %v (%d), want %v: Halt must not flush a partial chunk", sizes.sizes(), st.Chunks, want)
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
	p, err := engine.NewStream(ctx, prog, engine.StreamConfig{
		ChunkSize: 16, Lookback: 4, ExtraStates: 1, Workers: 2, Seed: 3, Sink: sizes})
	if err != nil {
		t.Fatal(err)
	}
	within(t, "cancel with a partial chunk in hand", func() {
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
		// A dead session stops taking input: the context's error surfaces
		// no later than the boundary of the chunk in hand — eleven inputs
		// away — and that chunk is never announced.
		n, err := pushUntilErr(p, inputs[0], 16)
		if !errors.Is(err, context.Canceled) {
			t.Errorf("Push into a canceled pipeline = %v after %d pushes, want context.Canceled within a chunk", err, n)
		}
	})
	st, err := p.Wait()
	if !errors.Is(err, context.Canceled) {
		t.Errorf("Wait = %v, want context.Canceled", err)
	}
	if want := []int{16}; !reflect.DeepEqual(sizes.sizes(), want) || st.Chunks != 1 {
		t.Errorf("dispatched chunks %v (%d), want %v: a canceled session must not flush a partial chunk", sizes.sizes(), st.Chunks, want)
	}
}

// TestProducerFaultStopsInput: a session that failed terminally reports
// the FaultError to its producer within one chunk, and announces nothing
// after it.
func TestProducerFaultStopsInput(t *testing.T) {
	prog, inputs := wakeInputs(t, 32)
	plan := faultinject.New(
		faultinject.Fault{Site: engine.SiteBody, Chunk: 1, Kind: faultinject.Panic, Attempts: 99},
		faultinject.Fault{Site: engine.SiteReexec, Chunk: 1, Kind: faultinject.Panic, Attempts: 99},
	)
	sizes := &chunkSizes{}
	p, err := engine.NewStream(context.Background(), plan.Wrap(prog), engine.StreamConfig{
		ChunkSize: 16, Lookback: 4, ExtraStates: 1, Workers: 2, Seed: 3, Sink: sizes})
	if err != nil {
		t.Fatal(err)
	}
	var fe *engine.FaultError
	within(t, "a persistent fault in chunk 1", func() {
		for _, in := range inputs {
			if err := p.Push(context.Background(), in); err != nil {
				t.Errorf("push: %v", err)
			}
		}
		// The session dies with chunk 1; only chunk 0 comes out.
		got := 0
		for range p.Outputs() {
			got++
		}
		if got != 16 {
			t.Errorf("%d outputs before the fault, want chunk 0's 16", got)
		}
		n, err := pushUntilErr(p, inputs[0], 16)
		if !errors.As(err, &fe) {
			t.Errorf("Push into a failed pipeline = %v after %d pushes, want the FaultError within a chunk", err, n)
		}
	})
	if _, err := p.Wait(); !errors.As(err, &fe) || fe.Fault.Chunk != 1 {
		t.Errorf("Wait = %v, want chunk 1's FaultError", err)
	}
	if want := []int{16, 16}; !reflect.DeepEqual(sizes.sizes(), want) {
		t.Errorf("announced chunks %v, want %v: nothing is announced after the fault", sizes.sizes(), want)
	}
}

// brokenInitial panics building the initial state — the one piece of the
// program the producer side runs.
type brokenInitial struct{ engine.Program }

func (brokenInitial) Initial(*rng.Stream) engine.State { panic("no initial state") }

// TestProducerInitialPanicFailsSession: the panic does not reach the Push
// caller; the session fails with a structured error at chunk 0's boundary.
func TestProducerInitialPanicFailsSession(t *testing.T) {
	prog, inputs := wakeInputs(t, 4)
	p, err := engine.NewStream(context.Background(), brokenInitial{prog}, engine.StreamConfig{
		ChunkSize: 4, Lookback: 2, ExtraStates: 1, Workers: 1, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	var fe *engine.FaultError
	for i, in := range inputs {
		err := p.Push(context.Background(), in)
		if last := i == len(inputs)-1; last != errors.As(err, &fe) {
			t.Fatalf("push %d = %v, want the FaultError at the chunk boundary and only there", i, err)
		}
	}
	if fe.Fault.Site != engine.SiteAssemble {
		t.Errorf("fault at site %s, want %s", fe.Fault.Site, engine.SiteAssemble)
	}
	for range p.Outputs() {
		t.Error("a session without an initial state emitted an output")
	}
	if st, err := p.Wait(); !errors.As(err, &fe) || st.Chunks != 0 {
		t.Errorf("Wait = %v with %d chunks announced, want the FaultError and none", err, st.Chunks)
	}
}

// TestIngestWakeBurstsNeverHang: chunk boundaries are a function of the
// input sequence alone. Whatever the push pattern — random bursts with
// the processor yielded between them, or every call on a deadline so
// short that calls are cut off in the window wait and repeated — the
// outputs are those of a plain push loop over the same plan.
func TestIngestWakeBurstsNeverHang(t *testing.T) {
	prog, inputs := wakeInputs(t, 600)
	plan := []int{13, 1, 40, 7, 64, 2, 33}
	run := func(push func(p *engine.Pipeline, i int) error, pause func()) []engine.Output {
		p, err := engine.NewStream(context.Background(), prog, engine.StreamConfig{
			ChunkSize: 24, Plan: plan, Lookback: 4, ExtraStates: 1, Workers: 2, Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		var outs []engine.Output
		within(t, "a push pattern", func() {
			go func() {
				defer p.Close()
				for i := range inputs {
					if err := push(p, i); err != nil {
						t.Errorf("push %d: %v", i, err)
						return
					}
					pause()
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
	plain := func(p *engine.Pipeline, i int) error { return p.Push(context.Background(), inputs[i]) }
	want := run(plain, func() {})
	if len(want) != len(inputs) {
		t.Fatalf("reference run: %d outputs, want %d", len(want), len(inputs))
	}
	for seed := int64(1); seed <= 3; seed++ {
		r := rand.New(rand.NewSource(seed))
		burst := 0
		got := run(plain, func() {
			if burst--; burst <= 0 {
				burst = 1 + r.Intn(50)
				runtime.Gosched()
			}
		})
		if !reflect.DeepEqual(got, want) {
			t.Errorf("bursts %d: outputs differ from the plain loop's", seed)
		}
	}
	cut := 0
	impatient := func(p *engine.Pipeline, i int) error {
		for {
			ctx, cancel := context.WithTimeout(context.Background(), 20*time.Microsecond)
			err := p.Push(ctx, inputs[i])
			cancel()
			if !errors.Is(err, context.DeadlineExceeded) {
				return err
			}
			cut++ // the call consumed nothing: repeat it
		}
	}
	if got := run(impatient, func() {}); !reflect.DeepEqual(got, want) {
		t.Errorf("pushes on a deadline (%d cut off and repeated): outputs differ from the plain loop's", cut)
	}
}

// TestProducerHaltRacesPush fires Halt from a second goroutine at every
// offset of a running producer's chunk. Whichever side wins the boundary,
// every chunk that was announced is executed and its outputs delivered,
// nothing partial is, and the final snapshot resumes into the bytes of
// the uninterrupted run.
func TestProducerHaltRacesPush(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  engine.StreamConfig
	}{
		{"streamcluster", engine.StreamConfig{ChunkSize: 5, Lookback: 2, ExtraStates: 1, Workers: 2, Seed: 41}},
		{"streamclassifier", engine.StreamConfig{ChunkSize: 6, Lookback: 3, ExtraStates: 1, Workers: 3, Seed: 31}},
	} {
		b := bench.MustNew(tc.name)
		inputs := b.Inputs(rng.New(3))[:72]
		wc, err := bench.WireFor(tc.name)
		if err != nil {
			t.Fatal(err)
		}
		ref, _, _ := sessionRun(t, tc.name, tc.cfg, inputs)
		want := joinLines(ref)
		for at := 18; at < 18+2*tc.cfg.ChunkSize; at++ {
			sizes := &chunkSizes{}
			var mu sync.Mutex
			var last *checkpoint.Snapshot
			cfg := tc.cfg
			cfg.Sink = sizes
			cfg.Checkpoint = engine.CheckpointConfig{Codec: wc, OnSnapshot: func(s *checkpoint.Snapshot) {
				mu.Lock()
				last = s
				mu.Unlock()
			}}
			p, err := engine.NewStream(context.Background(), bench.MustNew(tc.name), cfg)
			if err != nil {
				t.Fatal(err)
			}
			fire := make(chan struct{})
			go func() {
				<-fire
				p.Halt()
			}()
			pushed := make(chan error, 1)
			go func() {
				// The producer does not stop for the halt and never
				// closes: the halt ends the session wherever it lands.
				for i, in := range inputs {
					if i == at {
						close(fire)
					}
					if err := p.Push(context.Background(), in); err != nil {
						pushed <- err
						return
					}
				}
				pushed <- nil
			}()
			var lines [][]byte
			within(t, "a halt racing the producer", func() {
				for out := range p.Outputs() {
					line, err := wc.EncodeOutput(out)
					if err != nil {
						t.Error(err)
					}
					lines = append(lines, line)
				}
			})
			st, err := p.Wait()
			if err != nil {
				t.Fatal(err)
			}
			if err := <-pushed; err != nil && err != engine.ErrClosed {
				t.Errorf("%s halt at %d: the producer saw %v, want ErrClosed", tc.name, at, err)
			}
			announced := 0
			for _, n := range sizes.sizes() {
				announced += n
			}
			if st.Chunks != st.Commits+st.Aborts || len(lines) != announced {
				t.Errorf("%s halt at %d: %d chunks announced (%d inputs), %d committed + %d aborted, %d outputs",
					tc.name, at, st.Chunks, announced, st.Commits, st.Aborts, len(lines))
			}
			mu.Lock()
			snap := last
			mu.Unlock()
			if snap == nil || snap.Inputs != int64(len(lines)) {
				t.Fatalf("%s halt at %d: final snapshot %+v does not cover the %d outputs", tc.name, at, snap, len(lines))
			}
			tail := resumeRun(t, tc.name, reseal(t, snap), inputs)
			if got := joinLines(append(lines, tail...)); !bytes.Equal(got, want) {
				t.Errorf("%s halt at %d: halted + resumed session diverged from the uninterrupted run", tc.name, at)
			}
		}
	}
}

// TestProducerWaitRacesPush is serve's unwind: one goroutine cancels,
// drains Outputs and calls Wait while the other is still inside Push. The
// race detector is the assertion.
func TestProducerWaitRacesPush(t *testing.T) {
	b := bench.MustNew("streamclassifier")
	inputs := b.Inputs(rng.New(3))
	for _, drain := range []int{-1, 0, 7, 40, 200} {
		ctx, cancel := context.WithCancel(context.Background())
		p, err := engine.NewStream(ctx, b, engine.StreamConfig{
			ChunkSize: 6, Lookback: 3, ExtraStates: 1, Workers: 2, Seed: 31})
		if err != nil {
			t.Fatal(err)
		}
		pushed := make(chan error, 1)
		go func() {
			for i := 0; ; i++ {
				if err := p.Push(ctx, inputs[i%len(inputs)]); err != nil {
					pushed <- err
					return
				}
			}
		}()
		within(t, "cancel, drain and Wait against a producer in Push", func() {
			if drain < 0 {
				// Nobody reads Outputs: the pipeline backs up until the
				// producer is parked on the window.
				for n := int64(-1); ; time.Sleep(5 * time.Millisecond) {
					if now := p.StatsSnapshot().Inputs; now == n && n > 0 {
						break
					} else {
						n = now
					}
				}
			}
			for i := 0; i < drain; i++ {
				<-p.Outputs()
			}
			cancel()
			for range p.Outputs() {
			}
			if _, err := p.Wait(); !errors.Is(err, context.Canceled) {
				t.Errorf("Wait = %v, want context.Canceled", err)
			}
			if err := <-pushed; !errors.Is(err, context.Canceled) {
				t.Errorf("the producer saw %v, want context.Canceled", err)
			}
		})
	}
}

// TestProducerAbandonSettlesGauges: a collector shared by many sessions
// reads no chunk in flight and no session active once they have all
// ended, however they ended. A drained session resolves every chunk it
// announced; one abandoned with its window full — nobody reads Outputs,
// so the producer runs as far ahead as it may and parks — announced
// chunks that will never be resolved, and its EvSessionEnd has to take
// them off the gauge.
func TestProducerAbandonSettlesGauges(t *testing.T) {
	prog, inputs := wakeInputs(t, 100)
	m := engine.NewMetrics()
	settled := func(what string) {
		t.Helper()
		if f, a := m.InFlight.Load(), m.Active.Load(); f != 0 || a != 0 {
			t.Fatalf("after %s: %d chunks in flight, %d sessions active, want 0 and 0", what, f, a)
		}
	}
	start := func(ctx context.Context, workers int) *engine.Pipeline {
		t.Helper()
		p, err := engine.NewStream(ctx, prog, engine.StreamConfig{
			ChunkSize: 4, Lookback: 2, ExtraStates: 1, Workers: workers, Seed: 3, Sink: m})
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	for _, workers := range []int{1, 4, 1, 4, 1, 4} {
		p := start(context.Background(), workers)
		within(t, "a drained session", func() {
			go func() {
				defer p.Close()
				for _, in := range inputs {
					if err := p.Push(context.Background(), in); err != nil {
						t.Errorf("push: %v", err)
						return
					}
				}
			}()
			for range p.Outputs() {
			}
			if _, err := p.Wait(); err != nil {
				t.Errorf("Wait = %v", err)
			}
		})
		settled("a drained session")
	}
	if c := m.Snapshot(); c.Sessions != 6 || c.Chunks != c.Commits+c.Aborts || c.Emitted != int64(6*len(inputs)) {
		t.Fatalf("six drained sessions: %+v, want every announced chunk committed or aborted and every output out", c)
	}
	for _, workers := range []int{1, 4, 1, 4, 1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		p := start(ctx, workers)
		pushed := make(chan error, 1)
		go func() {
			for i := 0; ; i++ {
				if err := p.Push(ctx, inputs[i%len(inputs)]); err != nil {
					pushed <- err
					return
				}
			}
		}()
		within(t, "an abandoned session", func() {
			// The gauge's ceiling: a window of 2·workers chunks past the
			// last outcome the producer consumed, and the one that outcome
			// let in.
			for m.InFlight.Load() <= int64(2*workers) {
				time.Sleep(time.Millisecond)
			}
			cancel()
			if _, err := p.Wait(); !errors.Is(err, context.Canceled) {
				t.Errorf("Wait = %v, want context.Canceled", err)
			}
		})
		// Read before the producer is known to be out of Push: Wait alone
		// is the promise.
		settled("an abandoned session")
		if err := <-pushed; !errors.Is(err, context.Canceled) {
			t.Errorf("the producer saw %v, want context.Canceled", err)
		}
	}
	if c := m.Snapshot(); c.Sessions != 12 || c.Chunks < c.Commits+c.Aborts {
		t.Fatalf("twelve sessions, six abandoned: %+v, want no chunk committed or aborted that was not announced", c)
	}
	settled("every session")
}

// TestProducerGoroutines: a live session is its worker pool and the
// reaper — no assembler, no commit goroutine (a worker applies the
// frontier), no janitors — and Wait returns only after the last of them
// is on its way out.
func TestProducerGoroutines(t *testing.T) {
	prog, inputs := wakeInputs(t, 40)
	base := goroutineBase()
	for _, w := range []int{1, 3} {
		p, err := engine.NewStream(context.Background(), prog, engine.StreamConfig{
			ChunkSize: 16, Lookback: 4, ExtraStates: 1, Workers: w, Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		if n := goroutines(base + w + 1); n != base+w+1 {
			t.Errorf("Workers %d: a live session runs %d goroutines, want %d", w, n-base, w+1)
		}
		for _, in := range inputs {
			if err := p.Push(context.Background(), in); err != nil {
				t.Fatal(err)
			}
		}
		p.Close()
		for range p.Outputs() {
		}
		if _, err := p.Wait(); err != nil {
			t.Fatal(err)
		}
		if n := goroutines(base); n != base {
			t.Errorf("Workers %d: %d goroutines after Wait, %d before the session", w, n, base)
		}
	}
}
