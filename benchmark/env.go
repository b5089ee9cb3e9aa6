package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"time"

	"gostats/internal/bench"
	_ "gostats/internal/bench/all"
	"gostats/internal/checkpoint"
	"gostats/internal/engine"
	"gostats/internal/rng"
	"gostats/internal/serve"
	wl "gostats/internal/workload"
)

// session is one STATS session of a pass: a benchmark, its inputs and what
// the reference run says the outputs must hash to.
type session struct {
	bench  string
	plain  bench.Benchmark
	traced bench.Benchmark // plain behind the tracing wrapper; nil on untraced runs
	codec  bench.StreamCodec
	wire   bench.WireCodec // state codec, on checkpointing workloads
	inputs []engine.Input
	body   []byte   // the inputs as an NDJSON request body, on wire workloads
	want   [32]byte // SHA-256 of the reference run's output lines

	// What the latest STATS session returned, verified after the clock stops.
	outs  []engine.Output
	stats engine.StreamStats
	wres  wireResult
	err   error
}

// env is one set-up of a workload: generated inputs, reference hashes and,
// on the wire workload, a serve backend in the harness and a statsgate child.
type env struct {
	w        workload
	workers  int
	tr       *tracer // nil on untraced runs
	sessions []*session
	inputs   int // inputs of one pass over the sessions

	backend *backend
	gate    *child
	gateURL string
	client  *http.Client

	generate time.Duration // input generation's part of set-up
}

func numWorkers() int { return min(runtime.NumCPU(), maxWorkers) }

// streamConfig is the engine configuration of every STATS session.
func streamConfig(workers int) engine.StreamConfig {
	return engine.StreamConfig{
		ChunkSize: chunkSize, Lookback: lookback, ExtraStates: extraStates,
		Workers: workers, Seed: engineSeed,
	}
}

// sessionSeed derives the input seed of one session from the run's --seed.
func sessionSeed(seed uint64, benchName string, i int) uint64 {
	return rng.New(seed).DeriveN("session:"+benchName, i).Uint64()
}

// newSession generates one session's inputs and computes its reference hash
// with a Workers:1 pipeline of the same configuration: committed outputs are
// a function of seed, inputs and chunk boundaries, not of the worker count.
func newSession(ctx context.Context, w workload, benchName string, n int, seed uint64, tr *tracer) (*session, time.Duration, error) {
	s := &session{bench: benchName}
	var err error
	if s.plain, err = bench.New(benchName); err != nil {
		return nil, 0, err
	}
	if s.codec, err = bench.CodecFor(benchName); err != nil {
		return nil, 0, err
	}
	if w.Checkpoint {
		if s.wire, err = bench.WireFor(benchName); err != nil {
			return nil, 0, err
		}
	}
	if tr != nil {
		s.traced = wrapProgram(s.plain, &tr.ops)
	}
	t0 := time.Now()
	s.inputs = wl.SessionInputs(s.plain, n, seed)
	gen := time.Since(t0)
	if len(s.inputs) != n {
		return nil, 0, fmt.Errorf("%s: native stream has %d inputs, the table asks for %d", benchName, len(s.inputs), n)
	}
	s.outs = make([]engine.Output, 0, n)
	if w.Wire {
		var buf bytes.Buffer
		if err := wl.WriteNDJSON(&buf, s.codec, s.inputs); err != nil {
			return nil, 0, err
		}
		s.body = buf.Bytes()
	}
	ref := &session{bench: benchName, plain: s.plain, codec: s.codec, inputs: s.inputs}
	runNative(ctx, ref, streamConfig(1), ref.plain)
	if ref.err != nil {
		return nil, 0, fmt.Errorf("%s: reference run: %w", benchName, ref.err)
	}
	if err := checkStats(ref.stats, n); err != nil {
		return nil, 0, fmt.Errorf("%s: reference run: %w", benchName, err)
	}
	if s.want, err = hashOutputs(s.codec, ref.outs); err != nil {
		return nil, 0, err
	}
	return s, gen, nil
}

// setup builds a workload's environment from seed. It is everything a fresh
// deployment pays before its first session: input generation, NDJSON
// pre-encoding, the reference run, and on the wire workload the backend and
// the gate child up to a 200 from /readyz. The caller adds the warm-up pairs.
func setup(ctx context.Context, w workload, seed uint64, tr *tracer) (*env, error) {
	e := &env{w: w, workers: numWorkers(), tr: tr}
	for _, p := range w.Parts {
		for i := 0; i < p.Sessions; i++ {
			s, gen, err := newSession(ctx, w, p.Bench, p.Inputs, sessionSeed(seed, p.Bench, i), tr)
			if err != nil {
				e.close()
				return nil, err
			}
			e.sessions = append(e.sessions, s)
			e.inputs += p.Inputs
			e.generate += gen
		}
	}
	if w.Wire {
		if tr != nil {
			for _, p := range w.Parts {
				registerTraced(p.Bench, &tr.ops)
			}
		}
		if err := e.startWire(ctx); err != nil {
			e.close()
			return nil, err
		}
	}
	return e, nil
}

// startWire starts the in-harness backend and the gate child in front of it.
func (e *env) startWire(ctx context.Context, gateFlags ...string) error {
	var sink engine.Sink
	if e.tr != nil {
		sink = e.tr
	}
	var err error
	if e.backend, err = startBackend(e.workers, sink); err != nil {
		return err
	}
	if e.gate, e.gateURL, err = startGate(ctx, e.backend.url, gateFlags...); err != nil {
		return err
	}
	// One keep-alive connection: one session in flight.
	e.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1}}
	return nil
}

// close stops what setup started; it is safe on a partly built env.
func (e *env) close() {
	if e.client != nil {
		e.client.CloseIdleConnections()
	}
	if e.gate != nil {
		e.gate.stop()
	}
	if e.backend != nil {
		e.backend.stop()
	}
}

// backend is a serve.Server on a loopback listener inside the harness, so
// that its CPU and allocations are the harness process's own.
type backend struct {
	srv  *http.Server
	url  string
	done chan struct{}
}

func startBackend(workers int, sink engine.Sink) (*backend, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	cfg := streamConfig(workers)
	cfg.Sink = sink
	b := &backend{
		srv:  &http.Server{Handler: serve.New(cfg, serve.Options{}).Handler()},
		url:  "http://" + l.Addr().String(),
		done: make(chan struct{}),
	}
	go func() {
		defer close(b.done)
		_ = b.srv.Serve(l) // returns ErrServerClosed from stop
	}()
	return b, nil
}

func (b *backend) stop() {
	_ = b.srv.Close() // the sessions are over; nothing to drain
	<-b.done
}

// startGate starts a statsgate child in front of one backend, default policy
// and probing, and waits until it is ready.
func startGate(ctx context.Context, backendURL string, flags ...string) (*child, string, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, "", err
	}
	argv := append([]string{binPath("statsgate"), "-addr", addr, "-backends", backendURL}, flags...)
	c, err := startChild(nil, argv...)
	if err != nil {
		return nil, "", err
	}
	url := "http://" + addr
	if err := waitReady(ctx, c, url+"/readyz", 10*time.Second); err != nil {
		c.stop()
		return nil, "", err
	}
	return c, url, nil
}

// pass is one timed pass over the sessions.
type pass struct {
	wall     time.Duration
	cpu      time.Duration // harness process plus gate child
	selfCPU  time.Duration // harness process alone
	allocB   uint64        // bytes allocated by the harness process
	allocN   uint64        // objects allocated
	inputs   int
	sessions int
	failed   int
	sums     streamSums // STATS passes: the sessions' engine statistics
}

// streamSums adds up the StreamStats fields the per-layer rows use.
type streamSums struct{ states, reused, faults int64 }

func (s *streamSums) add(o streamSums) {
	s.states += o.states
	s.reused += o.reused
	s.faults += o.faults
}

func (p pass) nsPerInput() float64  { return float64(p.wall) / float64(p.inputs) }
func (p pass) cpuPerInput() float64 { return float64(p.cpu) / float64(p.inputs) }

// readAllocs returns the bytes and objects allocated so far. ReadMemStats
// stops the world to flush every P's allocation cache, which is what makes a
// small pass's delta exact; it runs outside the clock.
func readAllocs() (bytes, objects uint64) {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.TotalAlloc, m.Mallocs
}

// clock measures one pass: wall time, CPU of the harness process plus the
// gate child if there is one, and allocation volume. The collection before
// the clock starts keeps one pass's garbage out of the next pass's time.
type clock struct {
	t0           time.Time
	self0, gate0 time.Duration
	b0, n0       uint64
}

// gateCPU is the gate child's CPU time so far, 0 without a gate.
func (e *env) gateCPU() time.Duration {
	if e.gate == nil {
		return 0
	}
	cpu, err := e.gate.cpu()
	if err != nil {
		return 0 // the gate is gone; gate.exited fails the pair
	}
	return cpu
}

func (e *env) startClock() clock {
	runtime.GC()
	var c clock
	c.b0, c.n0 = readAllocs()
	c.self0, c.gate0 = selfCPU(), e.gateCPU()
	c.t0 = time.Now()
	return c
}

func (e *env) stopClock(c clock, p *pass) {
	p.wall = time.Since(c.t0)
	p.selfCPU = selfCPU() - c.self0
	p.cpu = p.selfCPU + e.gateCPU() - c.gate0
	b, n := readAllocs()
	p.allocB, p.allocN = b-c.b0, n-c.n0
}

// seqPass is the baseline every figure is relative to: the unmodified
// sequential program, engine.RunSequential on the native executor, over the
// pass's sessions.
func (e *env) seqPass() (pass, error) {
	p := pass{}
	c := e.startClock()
	for r := 0; r < e.w.SeqRepeat; r++ {
		for _, s := range e.sessions {
			rep := engine.RunSequential(engine.NewNativeExec(), s.plain, s.inputs, engineSeed)
			if len(rep.Outputs) != len(s.inputs) {
				return p, fmt.Errorf("%s: sequential run returned %d outputs for %d inputs", s.bench, len(rep.Outputs), len(s.inputs))
			}
			p.inputs += len(s.inputs)
		}
	}
	e.stopClock(c, &p)
	return p, nil
}

// statsPass runs the pass's sessions under STATS, one after another, and
// verifies each once the clock has stopped. parent is the enclosing span on
// a traced pass, 0 on an untraced one.
func (e *env) statsPass(ctx context.Context, parent int) pass {
	traced := parent != 0
	if traced {
		e.tr.on.Store(true)
		defer e.tr.on.Store(false)
	}
	p := pass{inputs: e.inputs, sessions: len(e.sessions)}
	c := e.startClock()
	for _, s := range e.sessions {
		sp := e.tr.child("session", parent)
		if traced {
			e.tr.session.Store(int64(sp))
		}
		if e.w.Wire {
			route := s.bench
			if traced {
				route = tracedRoute(s.bench)
			}
			e.runWire(ctx, s, e.gateURL, route, sp)
		} else {
			prog, cfg := s.plain, streamConfig(e.workers)
			if traced {
				prog, cfg.Sink = s.traced, e.tr
			}
			if e.w.Checkpoint {
				cfg.Checkpoint = e.checkpointConfig(s, traced)
			}
			runNative(ctx, s, cfg, prog)
		}
		e.tr.end(sp)
		if traced {
			e.tr.session.Store(0)
		}
	}
	e.stopClock(c, &p)
	for _, s := range e.sessions {
		if s.err == nil {
			if e.w.Wire {
				s.err = verifyWire(s.wres, len(s.inputs), s.want)
			} else {
				s.err = verifyNative(s.codec, s.outs, s.stats, len(s.inputs), s.want)
			}
		}
		if s.err != nil {
			p.failed++
			fmt.Printf("FAILED session %s: %v\n", s.bench, s.err)
		}
		st := s.stats
		if e.w.Wire {
			st = s.wres.trailer.Stats
		}
		p.sums.add(streamSums{st.States, st.Reused, st.Faults + st.Retries + st.Degraded})
	}
	return p
}

// checkpointConfig cuts a snapshot every 2 commits and frames it into a
// discard buffer: the state layer's write path without a disk behind it.
func (e *env) checkpointConfig(s *session, traced bool) engine.CheckpointConfig {
	cfg := engine.CheckpointConfig{Codec: s.wire, EveryCommits: 2}
	frame := func(snap *checkpoint.Snapshot) {
		// Encode fails only on a snapshot its own Validate rejects, which
		// would be an engine bug the resume probe and tier-1 catch.
		if data, err := checkpoint.Encode(snap); err == nil {
			_, _ = io.Discard.Write(data)
		}
	}
	cfg.OnSnapshot = frame
	if traced {
		cfg.Codec = wrapWire(s.wire, &e.tr.ops)
		cfg.OnSnapshot = func(snap *checkpoint.Snapshot) {
			t0 := e.tr.ops.snapshot.begin()
			frame(snap)
			e.tr.ops.snapshot.end(t0)
			if !t0.IsZero() { // framing takes far over 2 us, so every call is timed
				e.tr.add(spanSnapshot, t0, time.Since(t0))
			}
		}
	}
	return cfg
}

// runNative runs one session through an in-process pipeline and leaves
// outputs, statistics and any error in s.
func runNative(ctx context.Context, s *session, cfg engine.StreamConfig, prog engine.Program) {
	s.outs, s.err = s.outs[:0], nil
	p, err := engine.NewStream(ctx, prog, cfg)
	if err != nil {
		s.err = err
		return
	}
	go func() {
		defer p.Close()
		for _, in := range s.inputs {
			if p.Push(ctx, in) != nil {
				return // the pipeline is down; Wait reports why
			}
		}
	}()
	for o := range p.Outputs() {
		s.outs = append(s.outs, o)
	}
	s.stats, s.err = p.Wait()
}

// runWire posts one session's NDJSON body to base (the gate, or a backend
// directly) and reads the response to its trailer.
func (e *env) runWire(ctx context.Context, s *session, base, route string, parent int) (first, total time.Duration) {
	s.err = nil
	if e.gate != nil {
		if err := e.gate.exited(); err != nil {
			s.err = err
			return
		}
	}
	defer e.tr.end(e.tr.child(spanRequest, parent))
	t0 := time.Now()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/v1/stream/"+route, bytes.NewReader(s.body))
	if err != nil {
		s.err = err
		return
	}
	req.Header.Set("Content-Type", "application/x-ndjson")
	resp, err := e.client.Do(req)
	if err != nil {
		s.err = err
		return
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		s.err = fmt.Errorf("HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(msg))
		return
	}
	s.wres, s.err = readWire(resp.Body, func() { first = time.Since(t0) })
	return first, time.Since(t0)
}
