package faultinject_test

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"gostats/internal/bench"
	_ "gostats/internal/bench/all"
	"gostats/internal/engine"
	"gostats/internal/faultinject"
	"gostats/internal/machine"
	"gostats/internal/rng"
)

// abortProbe records which chunks aborted in a run (the chunks whose
// committed outputs come from recovery re-execution rather than
// speculation). Events arrive from multiple goroutines.
type abortProbe struct {
	mu      sync.Mutex
	aborted []int
	seen    map[int]bool
}

func (p *abortProbe) Event(e engine.Event) {
	if e.Kind != engine.EvAborted {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.seen == nil {
		p.seen = map[int]bool{}
	}
	if !p.seen[e.Chunk] {
		p.seen[e.Chunk] = true
		p.aborted = append(p.aborted, e.Chunk)
	}
}

// orderSink checks the protocol's event order chunk by chunk, on the
// stream a run really emits:
//
//   - each chunk gets exactly one EvCommitted or EvAborted;
//   - for j > 0, EvCommitted follows the chunk's EvValidated with Matched,
//     and EvAborted follows an unmatched EvValidated or an EvDegraded;
//   - every EvRetry and EvDegraded follows an EvFault for the same chunk;
//   - EvOutputs follows the verdict.
//
// Events arrive from several goroutines, but every protocol step emits
// before it hands its result to the step that depends on it (a ring push,
// a condition broadcast), so arrival order under the mutex respects the
// protocol's happens-before.
type orderSink struct {
	mu     sync.Mutex
	chunks map[int]*chunkOrder
	errs   []string
}

// chunkOrder is what one chunk has emitted so far.
type chunkOrder struct {
	faulted, degraded, validated, matched bool
	verdicts                              int
}

func (o *orderSink) Event(e engine.Event) {
	if e.Chunk < 0 {
		return
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.chunks == nil {
		o.chunks = map[int]*chunkOrder{}
	}
	c := o.chunks[e.Chunk]
	if c == nil {
		c = &chunkOrder{}
		o.chunks[e.Chunk] = c
	}
	bad := func(why string) {
		o.errs = append(o.errs, fmt.Sprintf("chunk %d: %s %s", e.Chunk, e.Kind, why))
	}
	switch e.Kind {
	case engine.EvFault:
		c.faulted = true
	case engine.EvRetry, engine.EvDegraded:
		if !c.faulted {
			bad("without an EvFault before it")
		}
		c.degraded = c.degraded || e.Kind == engine.EvDegraded
	case engine.EvValidated:
		c.validated, c.matched = true, e.Matched
	case engine.EvCommitted, engine.EvAborted:
		if c.verdicts++; c.verdicts > 1 {
			bad("is a second verdict")
		}
		if e.Chunk > 0 && e.Kind == engine.EvCommitted && !(c.validated && c.matched) {
			bad("without a matched EvValidated before it")
		}
		if e.Chunk > 0 && e.Kind == engine.EvAborted && !(c.validated && !c.matched) && !c.degraded {
			bad("without an unmatched EvValidated or an EvDegraded before it")
		}
	case engine.EvOutputs:
		if c.verdicts == 0 {
			bad("before the verdict")
		}
	}
}

// problems lists every order violation, and every way the stream fails
// to give each of the run's chunks exactly one verdict.
func (o *orderSink) problems(chunks int) []string {
	o.mu.Lock()
	defer o.mu.Unlock()
	out := append([]string(nil), o.errs...)
	if len(o.chunks) != chunks {
		out = append(out, fmt.Sprintf("events for %d chunks, the run made %d", len(o.chunks), chunks))
	}
	for j, c := range o.chunks {
		if c.verdicts != 1 {
			out = append(out, fmt.Sprintf("chunk %d has %d verdicts, want 1", j, c.verdicts))
		}
	}
	return out
}

// TestChaosOrderSink checks the order check itself on hand-built streams:
// each rule passes the streams the protocol allows and names the event
// that breaks it, so a clean TestChaosEquivalence means the runs obeyed
// the rules, not that the sink saw nothing.
func TestChaosOrderSink(t *testing.T) {
	ev := func(k engine.Kind, chunk int) engine.Event { return engine.Event{Kind: k, Chunk: chunk} }
	valid := func(chunk int, ok bool) engine.Event {
		return engine.Event{Kind: engine.EvValidated, Chunk: chunk, Matched: ok}
	}
	cases := []struct {
		name   string
		events []engine.Event
		chunks int
		want   string // a substring of the first problem; "" for a clean stream
	}{
		{"chunk 0 commits unvalidated", []engine.Event{ev(engine.EvCommitted, 0), ev(engine.EvOutputs, 0)}, 1, ""},
		{"commit after match", []engine.Event{ev(engine.EvCommitted, 0), valid(1, true), ev(engine.EvCommitted, 1), ev(engine.EvOutputs, 1)}, 2, ""},
		{"abort after mismatch", []engine.Event{ev(engine.EvCommitted, 0), valid(1, false), ev(engine.EvAborted, 1), ev(engine.EvOutputs, 1)}, 2, ""},
		{"retry then degrade then abort", []engine.Event{ev(engine.EvCommitted, 0), ev(engine.EvFault, 1), ev(engine.EvRetry, 1), ev(engine.EvDegraded, 1), ev(engine.EvAborted, 1)}, 2, ""},
		{"session events ignored", []engine.Event{ev(engine.EvRetry, -1), ev(engine.EvCommitted, 0)}, 1, ""},
		{"commit without validation", []engine.Event{ev(engine.EvCommitted, 0), ev(engine.EvCommitted, 1)}, 2, "chunk 1: " + engine.EvCommitted.String() + " without a matched EvValidated"},
		{"commit after mismatch", []engine.Event{ev(engine.EvCommitted, 0), valid(1, false), ev(engine.EvCommitted, 1)}, 2, "without a matched EvValidated"},
		{"abort after match", []engine.Event{ev(engine.EvCommitted, 0), valid(1, true), ev(engine.EvAborted, 1)}, 2, "without an unmatched EvValidated or an EvDegraded"},
		{"retry without fault", []engine.Event{ev(engine.EvRetry, 0), ev(engine.EvCommitted, 0)}, 1, "without an EvFault"},
		{"degrade without fault", []engine.Event{ev(engine.EvDegraded, 0), ev(engine.EvAborted, 0)}, 1, "without an EvFault"},
		{"outputs before verdict", []engine.Event{ev(engine.EvOutputs, 0), ev(engine.EvCommitted, 0)}, 1, "before the verdict"},
		{"second verdict", []engine.Event{ev(engine.EvCommitted, 0), ev(engine.EvAborted, 0)}, 1, "is a second verdict"},
		{"missing verdict", []engine.Event{ev(engine.EvCommitted, 0), valid(1, true)}, 2, "chunk 1 has 0 verdicts"},
		{"missing chunk", []engine.Event{ev(engine.EvCommitted, 0)}, 2, "events for 1 chunks, the run made 2"},
	}
	for _, tc := range cases {
		var o orderSink
		for _, e := range tc.events {
			o.Event(e)
		}
		got := o.problems(tc.chunks)
		switch {
		case tc.want == "" && len(got) != 0:
			t.Errorf("%s: clean stream flagged: %q", tc.name, got)
		case tc.want != "" && (len(got) == 0 || !strings.Contains(got[0], tc.want)):
			t.Errorf("%s: problems %q, want the first to contain %q", tc.name, got, tc.want)
		}
	}
}

const (
	chaosInputs = 72
	chaosSeed   = 5
	chaosSlow   = 50 * time.Millisecond
)

// chaosConfig leaves ChunkDeadline unset: a wall-clock deadline tight
// enough to catch an injected stall would also trip on heavy benchmarks
// (and on the simulated executor, which serializes chunk bodies), turning
// naturally-committing chunks into degraded ones and changing committed
// bytes. The equivalence matrix therefore treats Slow faults as pure
// latency; TestChaosSlowChunkTripsDeadline covers the deadline path with
// generous margins on a fast benchmark.
func chaosConfig() engine.Config {
	return engine.Config{
		Chunks: 6, Lookback: 4, ExtraStates: 1, InnerWidth: 1, Seed: chaosSeed,
	}
}

func chaosInputsFor(t *testing.T, name string) (engine.Program, []engine.Input) {
	t.Helper()
	b, err := bench.New(name)
	if err != nil {
		t.Fatal(err)
	}
	inputs := b.Inputs(rng.New(1))
	if len(inputs) > chaosInputs {
		inputs = inputs[:chaosInputs]
	}
	return b, inputs
}

// chaosPlan builds a fault schedule that the engine must absorb without
// changing a single committed byte: transient panics and a stall
// (retried transparently), plus — at chunks that abort even fault-free —
// a corrupted speculative state, a panic during recovery re-execution,
// and a retry-exhausting panic that forces the degraded sequential
// fallback. Persistent faults are confined to naturally-aborting chunks
// because a degraded (or corrupted-then-recovered) chunk commits its
// recovery outputs, which only match the fault-free bytes when the
// fault-free run recovered that chunk too.
func chaosPlan(nChunks int, aborted []int) (*faultinject.Plan, bool, bool) {
	altPanicChunk := 1
	if len(aborted) > 0 && aborted[0] == 1 {
		altPanicChunk = 2
	}
	faults := []faultinject.Fault{
		{Site: engine.SiteBody, Chunk: 0, Kind: faultinject.Panic},
		{Site: engine.SiteAltProducer, Chunk: altPanicChunk, Kind: faultinject.Panic},
		{Site: engine.SiteOrigStates, Chunk: nChunks - 2, Kind: faultinject.Panic},
		{Site: engine.SiteBody, Chunk: nChunks - 1, Kind: faultinject.Slow, Delay: chaosSlow},
	}
	corrupts, degrades := false, false
	if len(aborted) > 0 {
		corrupts = true
		faults = append(faults,
			faultinject.Fault{Site: engine.SiteAltProducer, Chunk: aborted[0], Kind: faultinject.Corrupt},
			faultinject.Fault{Site: engine.SiteReexec, Chunk: aborted[0], Kind: faultinject.Panic},
		)
	}
	if len(aborted) > 1 {
		degrades = true
		faults = append(faults, faultinject.Fault{
			Site: engine.SiteBody, Chunk: aborted[1], Kind: faultinject.Panic,
			Attempts: engine.DefaultMaxRetries + 1,
		})
	}
	return faultinject.New(faults...), corrupts, degrades
}

// TestChaosEquivalence is the robustness contract: with seeded faults
// injected — panics at every protocol site, a stall tripping the chunk
// deadline, corrupted speculative states, exhausted retry budgets — all
// eight benchmarks on all three schedulers commit outputs byte-identical
// to the fault-free run, with identical commit/abort decisions, and the
// process never crashes.
func TestChaosEquivalence(t *testing.T) {
	names := bench.Names()
	if len(names) != 8 {
		t.Fatalf("expected 8 registered benchmarks, have %d: %v", len(names), names)
	}
	cfg := chaosConfig()
	sawCorrupt, sawDegrade := false, false
	for _, name := range names {
		t.Run(name, func(t *testing.T) {
			b, inputs := chaosInputsFor(t, name)

			probe := &abortProbe{}
			baseline, err := (&engine.BatchScheduler{Sink: probe}).RunSlice(b, inputs, cfg)
			if err != nil {
				t.Fatalf("fault-free run: %v", err)
			}
			plan, corrupts, degrades := chaosPlan(cfg.Chunks, probe.aborted)
			sawCorrupt = sawCorrupt || corrupts
			sawDegrade = sawDegrade || degrades

			order := []*orderSink{{}, {}, {}}
			schedulers := []engine.Scheduler{
				&engine.BatchScheduler{Sink: order[0]},
				&engine.StreamScheduler{Workers: 3, Sink: order[1]},
				&engine.SimScheduler{Config: machine.DefaultConfig(8), Sink: order[2]},
			}
			for i, sched := range schedulers {
				fp := plan.Wrap(b)
				rep, err := sched.RunSlice(fp, inputs, cfg)
				if err != nil {
					t.Fatalf("%s under chaos: %v", sched.Name(), err)
				}
				for _, msg := range order[i].problems(rep.Chunks) {
					t.Errorf("%s: %s", sched.Name(), msg)
				}
				if fp.Fired() == 0 {
					t.Fatalf("%s: no planned fault fired", sched.Name())
				}
				if len(rep.Outputs) != len(baseline.Outputs) {
					t.Fatalf("%s emitted %d outputs under chaos, fault-free %d",
						sched.Name(), len(rep.Outputs), len(baseline.Outputs))
				}
				for i := range baseline.Outputs {
					if !reflect.DeepEqual(rep.Outputs[i], baseline.Outputs[i]) {
						t.Fatalf("%s: output %d differs under chaos:\nchaos:      %#v\nfault-free: %#v",
							sched.Name(), i, rep.Outputs[i], baseline.Outputs[i])
					}
				}
				if rep.Commits != baseline.Commits || rep.Aborts != baseline.Aborts {
					t.Fatalf("%s: commits/aborts %d/%d under chaos, fault-free %d/%d",
						sched.Name(), rep.Commits, rep.Aborts, baseline.Commits, baseline.Aborts)
				}
			}
		})
	}
	if !sawCorrupt {
		t.Error("no benchmark aborted fault-free: corrupted-state injection never exercised")
	}
	if !sawDegrade {
		t.Error("fewer than two aborting chunks everywhere: degraded fallback never exercised")
	}
}

// TestChaosFaultCountersSurface checks the event stream reports what the
// fault layer did: isolated faults, retries after backoff, and degraded
// chunks all land in the canonical counters.
func TestChaosFaultCountersSurface(t *testing.T) {
	b, inputs := chaosInputsFor(t, "facetrack")
	cfg := chaosConfig()

	probe := &abortProbe{}
	if _, err := (&engine.BatchScheduler{Sink: probe}).RunSlice(b, inputs, cfg); err != nil {
		t.Fatal(err)
	}
	plan, _, degrades := chaosPlan(cfg.Chunks, probe.aborted)

	var ctr engine.Counters
	if _, err := (&engine.StreamScheduler{Workers: 3, Sink: &ctr}).RunSlice(plan.Wrap(b), inputs, cfg); err != nil {
		t.Fatal(err)
	}
	snap := ctr.Snapshot()
	if snap.Faults == 0 {
		t.Error("no faults counted")
	}
	if snap.Retries == 0 {
		t.Error("no retries counted")
	}
	if degrades && snap.Degraded == 0 {
		t.Error("degraded fallback ran but was not counted")
	}
}

// TestChaosSlowChunkTripsDeadline exercises the deadline path on its
// own: a stall far beyond the per-chunk deadline on an otherwise fast
// benchmark faults the attempt, the retry re-executes without the stall,
// and the committed bytes match the fault-free run. Native schedulers
// only — wall-clock deadlines are meaningless under the simulated
// executor, which serializes chunk bodies onto machine threads.
func TestChaosSlowChunkTripsDeadline(t *testing.T) {
	b, inputs := chaosInputsFor(t, "facetrack")
	cfg := engine.Config{
		Chunks: 6, Lookback: 4, ExtraStates: 1, InnerWidth: 1, Seed: chaosSeed,
		Fault: engine.FaultPolicy{
			ChunkDeadline: 500 * time.Millisecond,
		},
	}
	baseline, err := (&engine.BatchScheduler{}).RunSlice(b, inputs, cfg)
	if err != nil {
		t.Fatalf("fault-free run: %v", err)
	}
	plan := faultinject.New(faultinject.Fault{
		Site: engine.SiteBody, Chunk: cfg.Chunks - 1, Kind: faultinject.Slow,
		Delay: 2 * time.Second,
	})
	for _, mk := range []struct {
		name string
		make func(engine.Sink) engine.Scheduler
	}{
		{"batch", func(s engine.Sink) engine.Scheduler { return &engine.BatchScheduler{Sink: s} }},
		{"stream", func(s engine.Sink) engine.Scheduler { return &engine.StreamScheduler{Workers: 3, Sink: s} }},
	} {
		t.Run(mk.name, func(t *testing.T) {
			fp := plan.Wrap(b)
			var ctr engine.Counters
			rep, err := mk.make(&ctr).RunSlice(fp, inputs, cfg)
			if err != nil {
				t.Fatalf("run with stalled chunk: %v", err)
			}
			if fp.Slows.Load() == 0 {
				t.Fatal("planned stall never fired")
			}
			snap := ctr.Snapshot()
			if snap.Faults == 0 {
				t.Fatal("stall beyond the chunk deadline raised no fault")
			}
			if snap.Retries == 0 {
				t.Fatal("deadline fault was not retried")
			}
			if !reflect.DeepEqual(rep.Outputs, baseline.Outputs) {
				t.Fatal("outputs differ after deadline-triggered retry")
			}
		})
	}
}

// TestChaosTerminalFaultIsStructured: when a chunk faults persistently
// through every retry and the degraded re-execution, the session fails
// with a structured *FaultError on every scheduler — never a crash, never
// a hang.
func TestChaosTerminalFaultIsStructured(t *testing.T) {
	plan := faultinject.New(
		faultinject.Fault{Site: engine.SiteBody, Chunk: 1, Kind: faultinject.Panic, Attempts: 99},
		faultinject.Fault{Site: engine.SiteReexec, Chunk: 1, Kind: faultinject.Panic, Attempts: 99},
	)
	cfg := engine.Config{
		Chunks: 4, Lookback: 4, ExtraStates: 1, InnerWidth: 1, Seed: chaosSeed,
	}
	schedulers := []engine.Scheduler{
		&engine.BatchScheduler{},
		&engine.StreamScheduler{Workers: 3},
		&engine.SimScheduler{Config: machine.DefaultConfig(8)},
	}
	for _, sched := range schedulers {
		t.Run(sched.Name(), func(t *testing.T) {
			b, inputs := chaosInputsFor(t, "facetrack")
			_, err := sched.RunSlice(plan.Wrap(b), inputs, cfg)
			var fe *engine.FaultError
			if !errors.As(err, &fe) {
				t.Fatalf("want *engine.FaultError, got %T: %v", err, err)
			}
			if fe.Fault.Chunk != 1 {
				t.Fatalf("fault attributed to chunk %d, want 1", fe.Fault.Chunk)
			}
			if fe.Fault.Site != engine.SiteReexec {
				t.Fatalf("terminal fault at site %s, want reexec (the last rung)", fe.Fault.Site)
			}
		})
	}
}
