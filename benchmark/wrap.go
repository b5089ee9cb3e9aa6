package main

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"gostats/internal/bench"
	"gostats/internal/engine"
	"gostats/internal/rng"
)

// The traced run sees kernel and codec calls through forwarding wrappers:
// each wrapper calls the wrapped value and records the call in an opTimer.
// A wrapper exposes exactly the optional interfaces of what it wraps —
// the engine type-asserts StateRecycler, FreshRecycler and Fingerprinter to
// pick its fast paths, so hiding or inventing one would make the traced
// program a different program (TestWrapperFidelity).

const (
	sampleCalibration = 32                   // first calls, all timed
	sampleEvery       = 16                   // then 1 in 16 when calls are fast
	sampleAllFrom     = 2 * time.Microsecond // median at or above which every call is timed
)

// opTimer counts every call of one operation and times all of them or a
// sample: two clock reads cost ~50 ns, which would be a fifth of a 0.4 us
// Update, so fast operations are timed 1 call in 16 and scaled.
type opTimer struct {
	calls atomic.Int64
	every atomic.Int64 // 0 while calibrating

	mu      sync.Mutex
	samples []int64 // ns of each timed call
}

// begin counts the call and returns a start time, zero when this call is
// not timed.
func (o *opTimer) begin() time.Time {
	n := o.calls.Add(1)
	if ev := o.every.Load(); ev > 1 && n%ev != 0 {
		return time.Time{}
	}
	return time.Now()
}

func (o *opTimer) end(t0 time.Time) {
	if t0.IsZero() {
		return
	}
	d := int64(time.Since(t0))
	o.mu.Lock()
	o.samples = append(o.samples, d)
	if len(o.samples) == sampleCalibration && o.every.Load() == 0 {
		s := append([]int64(nil), o.samples...)
		sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
		if time.Duration(s[len(s)/2]) >= sampleAllFrom {
			o.every.Store(1)
		} else {
			o.every.Store(sampleEvery)
		}
	}
	o.mu.Unlock()
}

// opSummary is an opTimer read out after the run.
type opSummary struct {
	Calls  int64   `json:"calls"`
	Timed  int     `json:"timed"`
	P50ns  float64 `json:"p50_ns"`
	BusyNs float64 `json:"busy_ns"` // timed total scaled to all calls
}

func (o *opTimer) summary() opSummary {
	o.mu.Lock()
	defer o.mu.Unlock()
	s := opSummary{Calls: o.calls.Load(), Timed: len(o.samples)}
	var total float64
	ns := make([]float64, len(o.samples))
	for i, d := range o.samples {
		ns[i] = float64(d)
		total += ns[i]
	}
	s.P50ns = median(ns)
	if s.Timed > 0 {
		s.BusyNs = total * float64(s.Calls) / float64(s.Timed)
	}
	return s
}

// layerOps are the operations the wrappers see, by layer.
type layerOps struct {
	update, clone, match, fingerprint opTimer // bench
	decodeInput, encodeInput          opTimer // codec
	encodeOutput, decodeOutput        opTimer
	encodeState, decodeState          opTimer
	snapshot                          opTimer // checkpoint framing in OnSnapshot
}

func (l *layerOps) codecBusyNs() float64 {
	var t float64
	for _, o := range []*opTimer{&l.decodeInput, &l.encodeInput, &l.encodeOutput, &l.decodeOutput, &l.encodeState, &l.decodeState} {
		t += o.summary().BusyNs
	}
	return t
}

// tracedProg forwards a benchmark, timing the three operations every
// program has.
type tracedProg struct {
	bench.Benchmark
	ops *layerOps
}

func (p *tracedProg) Update(s engine.State, in engine.Input, r *rng.Stream) (engine.State, engine.Output) {
	t0 := p.ops.update.begin()
	ns, out := p.Benchmark.Update(s, in, r)
	p.ops.update.end(t0)
	return ns, out
}

func (p *tracedProg) Clone(s engine.State) engine.State {
	t0 := p.ops.clone.begin()
	c := p.Benchmark.Clone(s)
	p.ops.clone.end(t0)
	return c
}

func (p *tracedProg) Match(a, b engine.State) bool {
	t0 := p.ops.match.begin()
	ok := p.Benchmark.Match(a, b)
	p.ops.match.end(t0)
	return ok
}

// The optional extensions, one forwarding type each.

type tracedRecycler struct {
	rec engine.StateRecycler
	ops *layerOps
}

func (t tracedRecycler) CloneInto(dst, src engine.State) engine.State {
	t0 := t.ops.clone.begin()
	c := t.rec.CloneInto(dst, src)
	t.ops.clone.end(t0)
	return c
}

type tracedFresher struct{ fr engine.FreshRecycler }

func (t tracedFresher) FreshInto(dst engine.State, r *rng.Stream) engine.State {
	return t.fr.FreshInto(dst, r)
}

type tracedPrinter struct {
	fp  engine.Fingerprinter
	ops *layerOps
}

func (t tracedPrinter) Fingerprint(s engine.State) uint64 {
	t0 := t.ops.fingerprint.begin()
	d := t.fp.Fingerprint(s)
	t.ops.fingerprint.end(t0)
	return d
}

// wrapProgram returns b behind a tracedProg whose method set has b's
// optional extensions and no others.
func wrapProgram(b bench.Benchmark, ops *layerOps) bench.Benchmark {
	base := &tracedProg{Benchmark: b, ops: ops}
	rec, isRec := b.(engine.StateRecycler)
	fr, isFr := b.(engine.FreshRecycler)
	fp, isFp := b.(engine.Fingerprinter)
	r, f, p := tracedRecycler{rec, ops}, tracedFresher{fr}, tracedPrinter{fp, ops}
	switch {
	case isRec && isFr && isFp:
		return struct {
			*tracedProg
			tracedRecycler
			tracedFresher
			tracedPrinter
		}{base, r, f, p}
	case isRec && isFr:
		return struct {
			*tracedProg
			tracedRecycler
			tracedFresher
		}{base, r, f}
	case isRec && isFp:
		return struct {
			*tracedProg
			tracedRecycler
			tracedPrinter
		}{base, r, p}
	case isFr && isFp:
		return struct {
			*tracedProg
			tracedFresher
			tracedPrinter
		}{base, f, p}
	case isRec:
		return struct {
			*tracedProg
			tracedRecycler
		}{base, r}
	case isFr:
		return struct {
			*tracedProg
			tracedFresher
		}{base, f}
	case isFp:
		return struct {
			*tracedProg
			tracedPrinter
		}{base, p}
	}
	return base
}

// tracedCodec forwards a stream codec, timing every call.
type tracedCodec struct {
	c   bench.StreamCodec
	ops *layerOps
}

func (t tracedCodec) DecodeInput(data []byte) (engine.Input, error) {
	t0 := t.ops.decodeInput.begin()
	in, err := t.c.DecodeInput(data)
	t.ops.decodeInput.end(t0)
	return in, err
}

func (t tracedCodec) EncodeInput(in engine.Input) ([]byte, error) {
	t0 := t.ops.encodeInput.begin()
	b, err := t.c.EncodeInput(in)
	t.ops.encodeInput.end(t0)
	return b, err
}

func (t tracedCodec) EncodeOutput(out engine.Output) ([]byte, error) {
	t0 := t.ops.encodeOutput.begin()
	b, err := t.c.EncodeOutput(out)
	t.ops.encodeOutput.end(t0)
	return b, err
}

// tracedWire adds the state half of a wire codec.
type tracedWire struct {
	tracedCodec
	w bench.WireCodec
}

func wrapWire(w bench.WireCodec, ops *layerOps) bench.WireCodec {
	return tracedWire{tracedCodec{w, ops}, w}
}

func (t tracedWire) DecodeOutput(data []byte) (engine.Output, error) {
	t0 := t.ops.decodeOutput.begin()
	out, err := t.w.DecodeOutput(data)
	t.ops.decodeOutput.end(t0)
	return out, err
}

func (t tracedWire) EncodeState(s engine.State) ([]byte, error) {
	t0 := t.ops.encodeState.begin()
	b, err := t.w.EncodeState(s)
	t.ops.encodeState.end(t0)
	return b, err
}

func (t tracedWire) DecodeState(data []byte) (engine.State, error) {
	t0 := t.ops.decodeState.begin()
	s, err := t.w.DecodeState(data)
	t.ops.decodeState.end(t0)
	return s, err
}

// tracedRoute is the registry name under which a benchmark's traced twin is
// served. serve builds a session's program and codec from the registry by
// the name in the request path, so the wire workload's traced sessions ask
// for the twin; the twin forwards Name(), so rng derivations and outputs are
// the wrapped benchmark's.
func tracedRoute(name string) string { return "traced." + name }

var (
	twinOnce sync.Map                 // benchmark name -> *sync.Once
	twinOps  atomic.Pointer[layerOps] // where twins built from now on record
)

// registerTraced adds name's traced twin (program and stream codec) to the
// bench registry, once per process, and points twins at ops. The registry is
// process-wide, so this is too; a run has one tracer.
func registerTraced(name string, ops *layerOps) {
	twinOps.Store(ops)
	once, _ := twinOnce.LoadOrStore(name, new(sync.Once))
	once.(*sync.Once).Do(func() {
		bench.Register(tracedRoute(name), func() bench.Benchmark {
			return wrapProgram(bench.MustNew(name), twinOps.Load())
		})
		bench.RegisterCodec(tracedRoute(name), func() bench.StreamCodec {
			c, err := bench.CodecFor(name)
			if err != nil {
				panic(err) // name was validated at set-up
			}
			return tracedCodec{c, twinOps.Load()}
		})
	})
}
