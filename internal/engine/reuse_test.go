package engine_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"gostats/internal/bench"
	"gostats/internal/checkpoint"
	"gostats/internal/engine"
	"gostats/internal/rng"
)

// reuseRun is one session of TestSessionStorageReuse: its committed
// output lines, the untimed events of each chunk when it has a sink, and
// how it ended.
type reuseRun struct {
	out    []byte
	events map[int][]untimed
	err    error
	halted bool
	p      *engine.Pipeline
}

// runReuse runs one session over inputs and returns once its producer's
// Close has returned and Wait has, so the session's storage is back on
// the engine's free list when the next one starts. With lines set the
// producer ingests them through PushFrom, decoding each into the input
// its record slot retires; otherwise it pushes inputs. stop, when set,
// is called on the producer's goroutine after each input with the count
// so far and the context's cancel, and ends the input stream early if it
// returns true.
func runReuse(t *testing.T, name string, cfg engine.StreamConfig, inputs []engine.Input, lines [][]byte,
	stop func(n int, p *engine.Pipeline, cancel context.CancelFunc) bool) reuseRun {
	t.Helper()
	wc, err := bench.WireFor(name)
	if err != nil {
		t.Fatal(err)
	}
	var log *chunkLog
	if cfg.Sink != nil {
		log = &chunkLog{}
		cfg.Sink = log
	}
	if cfg.Checkpoint.Codec != nil {
		cfg.Checkpoint.OnSnapshot = func(*checkpoint.Snapshot) {}
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	p, err := engine.NewStream(ctx, bench.MustNew(name), cfg)
	if err != nil {
		t.Fatal(err)
	}
	rc := bench.Reusing(wc)
	pushed := make(chan struct{})
	go func() {
		defer close(pushed)
		defer p.Close()
		n := len(inputs)
		if lines != nil {
			n = len(lines)
		}
		for i := 0; i < n; i++ {
			var err error
			if lines != nil {
				err = p.PushFrom(ctx, func(spare engine.Input) (engine.Input, error) {
					return rc.DecodeInputInto(lines[i], spare)
				})
			} else {
				err = p.Push(ctx, inputs[i])
			}
			if err != nil || (stop != nil && stop(i+1, p, cancel)) {
				return
			}
		}
	}()
	r := reuseRun{p: p}
	for o := range p.Outputs() {
		line, err := wc.EncodeOutput(o)
		if err != nil {
			t.Fatal(err)
		}
		r.out = append(append(r.out, line...), '\n')
	}
	<-pushed
	_, r.err = p.Wait()
	r.halted = p.Halted()
	if log != nil {
		r.events = log.byChunk
	}
	return r
}

// TestSessionStorageReuse holds a session that starts on the storage an
// earlier one handed back to what a session on storage of its own
// commits. Each shape's reference runs on an emptied free list; then the
// shapes run back to back, twice round, and all at once, twice each:
// Workers 1, 2 and 4 (records of 4, 8 and 16), so some shapes share a
// store and some do not, a Plan, with and without a sink, and
// checkpointing. Each must commit its reference's bytes, and a
// session with a sink report its reference's events chunk by chunk.
//
// The next session numbers its chunks from 0 again, so a record handed
// back with the chunk index of its published copy (pub) or of its verdict
// still in it lies about chunk j of the next one, until the next session's
// own chunk overwrites it. The plan's three chunks leave records 1 and 2
// holding indices 1 and 2, which the next Workers 1 session finds in its
// first lap: its one worker, applying chunk 0, looks at record 1 before
// it has run chunk 1, and a record read as published, or as decided, by
// a chunk that has not run aborts it where its reference committed.
//
// Sessions that end early hand their storage back too: one halted at its
// frontier, whose producer's Close loses the closed flag to Halt, and one
// canceled mid-push. A session fed by Push hands no caller's input to the
// next session's PushFrom as a spare. And a handle whose session has ended
// takes no input and touches no store.
func TestSessionStorageReuse(t *testing.T) {
	const name = "streamcluster"
	inputs := bench.MustNew(name).Inputs(rng.New(9))[:60]
	other := bench.MustNew(name).Inputs(rng.New(10))[:60]
	wc, err := bench.WireFor(name)
	if err != nil {
		t.Fatal(err)
	}
	base := engine.StreamConfig{ChunkSize: 6, Lookback: 3, ExtraStates: 1, Seed: 21}
	shape := func(workers int, f func(*engine.StreamConfig)) engine.StreamConfig {
		c := base
		c.Workers = workers
		if f != nil {
			f(&c)
		}
		return c
	}
	sink := func(c *engine.StreamConfig) { c.Sink = &chunkLog{} }
	shapes := []struct {
		name string
		cfg  engine.StreamConfig
	}{
		{"w1", shape(1, nil)},
		{"w1/sink", shape(1, sink)},
		{"w1/plan", shape(1, func(c *engine.StreamConfig) { c.Plan = []int{25, 9, 26} })},
		{"w2", shape(2, nil)},
		{"w4", shape(4, nil)},
		{"w4/checkpoint", shape(4, func(c *engine.StreamConfig) { c.Checkpoint = engine.CheckpointConfig{Codec: wc, EveryCommits: 2} })},
	}

	refs := make([]reuseRun, len(shapes))
	for i, s := range shapes {
		engine.DropStores()
		refs[i] = runReuse(t, name, s.cfg, inputs, nil, nil)
		if refs[i].err != nil || len(bytes.Split(refs[i].out, []byte("\n"))) != len(inputs)+1 {
			t.Fatalf("%s reference: %v, %d bytes", s.name, refs[i].err, len(refs[i].out))
		}
		if got := engine.FreeStores(); got != 1 {
			t.Fatalf("%s reference: the free list holds %d stores after it, want 1", s.name, got)
		}
	}
	check := func(what string, i int, r reuseRun) {
		t.Helper()
		if r.err != nil {
			t.Errorf("%s: %s: %v", what, shapes[i].name, r.err)
		}
		if !bytes.Equal(r.out, refs[i].out) {
			t.Errorf("%s: %s committed bytes that differ from its reference's", what, shapes[i].name)
		}
		if !reflect.DeepEqual(r.events, refs[i].events) {
			t.Errorf("%s: %s reported events that differ from its reference's", what, shapes[i].name)
		}
	}

	engine.DropStores()
	for round := 0; round < 2; round++ {
		for i, s := range shapes {
			check(fmt.Sprintf("back to back, round %d", round), i, runReuse(t, name, s.cfg, inputs, nil, nil))
		}
	}
	var wg sync.WaitGroup
	runs := make([]reuseRun, 2*len(shapes))
	for k := range runs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			runs[k] = runReuse(t, name, shapes[k%len(shapes)].cfg, inputs, nil, nil)
		}()
	}
	wg.Wait()
	for k, r := range runs {
		check("concurrently", k%len(shapes), r)
	}

	// Sessions that end early: each hands its store back, and the
	// session after it, on that store, commits its reference's bytes.
	for _, tc := range []struct {
		what string
		stop func(n int, p *engine.Pipeline, cancel context.CancelFunc) bool
		want error
	}{
		{"halted at its frontier", func(n int, p *engine.Pipeline, _ context.CancelFunc) bool {
			if n == 25 {
				p.Halt()
			}
			return n == 25
		}, nil},
		{"canceled mid-push", func(n int, _ *engine.Pipeline, cancel context.CancelFunc) bool {
			if n == 25 {
				cancel()
			}
			return n == 25
		}, context.Canceled},
	} {
		engine.DropStores()
		r := runReuse(t, name, shapes[0].cfg, inputs, nil, tc.stop)
		if !errors.Is(r.err, tc.want) || r.halted != (tc.want == nil) || !bytes.HasPrefix(refs[0].out, r.out) {
			t.Fatalf("%s: err %v, halted %t, %d bytes not a prefix of the reference's", tc.what, r.err, r.halted, len(r.out))
		}
		if got := engine.FreeStores(); got != 1 {
			t.Fatalf("%s: the free list holds %d stores after it, want 1", tc.what, got)
		}
		check("after a session "+tc.what, 0, runReuse(t, name, shapes[0].cfg, inputs, nil, nil))
	}

	// A Push-fed session, then a PushFrom session of its shape over a
	// reusing codec: the first caller's inputs are the first caller's.
	lines := make([][]byte, len(other))
	for i, in := range other {
		if lines[i], err = wc.EncodeInput(in); err != nil {
			t.Fatal(err)
		}
	}
	engine.DropStores()
	wantOther := runReuse(t, name, shapes[3].cfg, other, nil, nil)
	owned := make([]engine.Input, len(inputs))
	before := make([]engine.Input, len(inputs))
	for i, in := range inputs {
		line, err := wc.EncodeInput(in)
		if err != nil {
			t.Fatal(err)
		}
		if owned[i], err = wc.DecodeInput(line); err != nil {
			t.Fatal(err)
		}
		if before[i], err = wc.DecodeInput(line); err != nil {
			t.Fatal(err)
		}
	}
	engine.DropStores()
	check("Push-fed", 3, runReuse(t, name, shapes[3].cfg, owned, nil, nil))
	if got := runReuse(t, name, shapes[3].cfg, nil, lines, nil); got.err != nil || !bytes.Equal(got.out, wantOther.out) {
		t.Errorf("PushFrom after a Push-fed session: %v, or committed bytes that differ from its reference's", got.err)
	}
	if !reflect.DeepEqual(owned, before) {
		t.Errorf("a PushFrom session decoded its lines into the inputs the Push-fed session before it was handed")
	}

	// A handle whose session has ended.
	engine.DropStores()
	ctx := context.Background()
	p := runReuse(t, name, shapes[3].cfg, inputs, nil, nil).p
	if got := engine.FreeStores(); got != 1 {
		t.Fatalf("the free list holds %d stores after a session ended, want 1", got)
	}
	if err := p.Push(ctx, inputs[0]); err != engine.ErrClosed {
		t.Errorf("Push on an ended handle: %v, want ErrClosed", err)
	}
	if err := p.PushFrom(ctx, func(engine.Input) (engine.Input, error) { return inputs[0], nil }); err != engine.ErrClosed {
		t.Errorf("PushFrom on an ended handle: %v, want ErrClosed", err)
	}
	p.Close()
	p.Halt()
	if got := engine.FreeStores(); got != 1 {
		t.Errorf("the free list holds %d stores after an ended handle was pushed to, closed and halted, want 1", got)
	}
	check("after an ended handle was used", 3, runReuse(t, name, shapes[3].cfg, inputs, nil, nil))
}
