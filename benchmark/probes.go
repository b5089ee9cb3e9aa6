package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"sync"
	"time"

	"gostats/internal/checkpoint"
	"gostats/internal/cluster"
	"gostats/internal/critpath"
	"gostats/internal/engine"
	"gostats/internal/machine"
	"gostats/internal/procexec"
	"gostats/internal/ring"
	"gostats/internal/rng"
	"gostats/internal/trace"
)

// Direct probes: a fixed-size exercise of one layer's public functions on
// one session of the workload's own inputs, ProbeInputs long. They supply
// the rows of layers the workload's own passes do not go through (a native
// workload never touches the gate) and the rows that need a controlled
// comparison (sinks attached / not). Like the pairs, every comparison is
// made in rounds — the variants run back to back within a round, the ratio
// is taken per round, and the median over rounds is reported — because a
// ratio of two times taken seconds apart measures the host, not the code.

const (
	engineRounds = 5  // rounds behind each engine ratio
	wireRounds   = 31 // rounds behind each wire ratio: by the ten-beyond rule p50 and p68
)

// ladder is the rungs from the sequential loop to the gate that
// ladderClosure multiplies up.
type ladder struct {
	nativeVsSeq float64 // in-process pipeline / sequential loop
	gateVsSeq   float64 // via-gate session / sequential loop, measured on its own
}

// timed runs fn after a collection and returns its wall time in ns.
func timed(fn func()) float64 {
	runtime.GC()
	t0 := time.Now()
	fn()
	return float64(time.Since(t0))
}

// prober carries what the probes share.
type prober struct {
	ctx     context.Context
	m       map[string]float64
	samples map[string]int // sample counts behind percentiles, for the trace file
	s       *session
	workers int
	all     *pairLog
}

// check counts a probe session like any other: attempted, and failed if it
// did not verify.
func (p *prober) check(what string, err error) {
	p.all.attempted++
	if err != nil {
		p.all.failed++
		fmt.Printf("FAILED probe session %s: %v\n", what, err)
	}
}

// native runs the probe session through an in-process pipeline, verifies it
// outside the returned time, and returns the wall time in ns.
func (p *prober) native(what string, cfg engine.StreamConfig) float64 {
	s := p.s
	d := timed(func() { runNative(p.ctx, s, cfg, s.plain) })
	if s.err == nil {
		s.err = verifyNative(s.codec, s.outs, s.stats, len(s.inputs), s.want)
	}
	p.check(what, s.err)
	return d
}

func (p *prober) sequential() float64 {
	return timed(func() { engine.RunSequential(engine.NewNativeExec(), p.s.plain, p.s.inputs, engineSeed) })
}

// directProbes fills every direct row of m.
func directProbes(ctx context.Context, m map[string]float64, samples map[string]int, w workload, seed uint64, all *pairLog) (ladder, error) {
	pw := w
	pw.Wire, pw.Checkpoint = true, true // the probe session needs an NDJSON body and a state codec
	benchName := w.Parts[0].Bench
	s, _, err := newSession(ctx, pw, benchName, w.ProbeInputs, sessionSeed(seed, benchName, 0), nil)
	if err != nil {
		return ladder{}, err
	}
	p := &prober{ctx: ctx, m: m, samples: samples, s: s, workers: numWorkers(), all: all}
	if err := p.engineProbes(); err != nil {
		return ladder{}, err
	}
	p.breakdownProbe()
	ringProbes(m)
	if err := p.codecProbes(); err != nil {
		return ladder{}, err
	}
	if err := p.checkpointProbes(); err != nil {
		return ladder{}, err
	}
	l, err := p.wireProbes()
	if err != nil {
		return ladder{}, err
	}
	return l, p.machineProbe()
}

// engineProbes compares the scheduler with the sequential loop and with
// itself: one worker, the batch mapping, sinks attached, chunks run by
// statsworker children.
func (p *prober) engineProbes() error {
	s, n := p.s, len(p.s.inputs)
	sinkCfg := streamConfig(p.workers)
	sinks := newTracer() // the traced run's own sink, spans and counters
	sinks.on.Store(true)
	sinkCfg.Sink = sinks

	pool, err := procexec.NewPool(procexec.Config{
		Command: []string{binPath("statsworker")}, Procs: p.workers, Codec: s.wire,
		Session: procexec.Session{Benchmark: s.bench, Seed: engineSeed, Lookback: lookback, ExtraStates: extraStates, InnerWidth: 1},
	})
	if err != nil {
		return err
	}
	unregister := registerCleanup(pool.Close)
	defer func() {
		unregister()
		pool.Close()
	}()
	runnerCfg := streamConfig(p.workers)
	runnerCfg.Runner = pool

	bcfg := engine.Config{Chunks: (n + chunkSize - 1) / chunkSize, Lookback: lookback, ExtraStates: extraStates, InnerWidth: 1, Seed: engineSeed}
	var schedErr error
	sched := func(sc engine.Scheduler) float64 {
		return timed(func() {
			if rep, err := sc.RunSlice(s.plain, s.inputs, bcfg); err != nil {
				schedErr = err
			} else if len(rep.Outputs) != n {
				schedErr = fmt.Errorf("%s scheduler: %d outputs for %d inputs", sc.Name(), len(rep.Outputs), n)
			}
		})
	}

	var w1, sink, batch, runner []float64
	for r := 0; r < engineRounds; r++ {
		seq := p.sequential()
		native := p.native("engine.native", streamConfig(p.workers))
		w1 = append(w1, p.native("engine.w1", streamConfig(1))/seq)
		sink = append(sink, p.native("engine.sinks", sinkCfg)/native)
		runner = append(runner, p.native("procexec.runner", runnerCfg)/native)
		batch = append(batch, sched(&engine.BatchScheduler{})/sched(&engine.StreamScheduler{Ctx: p.ctx, Workers: p.workers}))
	}
	if schedErr != nil {
		return schedErr
	}
	p.m["engine.w1_vs_seq"] = median(w1)
	p.m["engine.sink_overhead_ratio"] = median(sink)
	p.m["engine.batch_vs_stream"] = median(batch)
	p.m["procexec.runner_vs_local"] = median(runner)
	return nil
}

// breakdownProbe is the paper's six-category loss breakdown of one session
// on real goroutines. Recorder.Breakdown rejects the trace when a
// prevalidated verdict overlaps a frontier interval (ROADMAP item 1); that
// is reported as breakdown_ok 0 with zero rows, never as a failed run.
func (p *prober) breakdownProbe() {
	rec := engine.NewRecorder()
	cfg := streamConfig(p.workers)
	cfg.Sink = rec
	p.native("engine.breakdown", cfg)
	var lost [critpath.NumLosses]float64
	var extra [critpath.NumExtraParts]float64
	p.m["engine.breakdown_ok"] = 0
	if b, err := rec.Breakdown(p.workers + 1); err == nil {
		lost, extra = b.LostPct, b.ExtraPct
		p.m["engine.breakdown_ok"] = 1
	} else {
		fmt.Printf("engine.breakdown_ok 0: %v\n", err)
	}
	// The decomposition counts state copies inside extra computation, as
	// Fig. 10 does, and itemises them in ExtraPct; here copy is its own row
	// and extra is the rest.
	p.m["engine.loss_pct.copy"] = extra[critpath.PartStateCopy]
	p.m["engine.loss_pct.extra"] = lost[critpath.LossExtraComputation] - extra[critpath.PartStateCopy]
	p.m["engine.loss_pct.sync"] = lost[critpath.LossSync]
	p.m["engine.loss_pct.seqcode"] = lost[critpath.LossSeqCode]
	p.m["engine.loss_pct.imbalance"] = lost[critpath.LossImbalance]
	p.m["engine.loss_pct.misspec"] = lost[critpath.LossMispeculation]
}

// ringProbes times one hop through each ring with one producer and one
// consumer goroutine, as the pipeline uses them.
func ringProbes(m map[string]float64) {
	const items = 200_000
	hop := func(push func(int), pop func() int) float64 {
		rounds := make([]float64, 3)
		for i := range rounds {
			rounds[i] = timed(func() {
				var wg sync.WaitGroup
				wg.Add(1)
				go func() {
					defer wg.Done()
					for got := 0; got < items; {
						got += pop()
					}
				}()
				for i := 0; i < items; i++ {
					push(i)
				}
				wg.Wait()
			})
		}
		return median(rounds) / items
	}
	// Push and Pop cannot fail here: no done channel, and nobody closes.
	spsc := ring.NewSPSC[int](256)
	m["ring.spsc_hop_ns"] = hop(
		func(v int) { _ = spsc.Push(nil, v) },
		func() int { _, _ = spsc.Pop(nil); return 1 })
	batch := ring.NewSPSC[int](256)
	buf := make([]int, 64)
	m["ring.spsc_batch_hop_ns"] = hop(
		func(v int) { _ = batch.Push(nil, v) },
		func() int {
			// The pipeline's wave idiom: Pop blocks for the first element,
			// PopBatch takes what else is there.
			_, _ = batch.Pop(nil)
			return 1 + batch.PopBatch(buf)
		})
	mpmc := ring.NewMPMC[int](256)
	m["ring.mpmc_hop_ns"] = hop(
		func(v int) { _ = mpmc.Push(nil, v) },
		func() int { _, _ = mpmc.Pop(nil); return 1 })
}

// perCall times fn once per item and returns the p50 in ns.
func perCall(n int, fn func(i int) error) (float64, error) {
	ds := make([]float64, n)
	for i := range ds {
		t0 := time.Now()
		if err := fn(i); err != nil {
			return 0, err
		}
		ds[i] = float64(time.Since(t0))
	}
	return median(ds), nil
}

// codecProbes times the benchmark's codec call by call on the probe
// session's own lines, outputs and end state.
func (p *prober) codecProbes() error {
	s, m := p.s, p.m
	n := len(s.inputs)
	lines := bytes.Split(bytes.TrimSuffix(s.body, []byte{'\n'}), []byte{'\n'})
	var err error
	if m["codec.decode_input_ns"], err = perCall(n, func(i int) error { _, err := s.codec.DecodeInput(lines[i]); return err }); err != nil {
		return err
	}
	var outBytes int
	if m["codec.encode_output_ns"], err = perCall(len(s.outs), func(i int) error {
		b, err := s.codec.EncodeOutput(s.outs[i])
		outBytes += len(b) + 1
		return err
	}); err != nil {
		return err
	}
	m["codec.input_bytes_per_input"] = float64(len(s.body)) / float64(n)
	m["codec.output_bytes_per_input"] = float64(outBytes) / float64(len(s.outs))

	// The state after the session's inputs, as a checkpoint would carry it.
	r := rng.New(engineSeed)
	st := s.plain.Initial(r)
	for _, in := range s.inputs {
		st, _ = s.plain.Update(st, in, r)
	}
	const reps = 11
	var enc []byte
	if m["codec.encode_state_ns"], err = perCall(reps, func(int) error { enc, err = s.wire.EncodeState(st); return err }); err != nil {
		return err
	}
	if m["codec.decode_state_ns"], err = perCall(reps, func(int) error { _, err := s.wire.DecodeState(enc); return err }); err != nil {
		return err
	}
	m["codec.state_bytes"] = float64(len(enc))
	p.samples["codec.decode_input_ns"], p.samples["codec.encode_output_ns"] = n, len(s.outs)
	p.samples["codec.encode_state_ns"], p.samples["codec.decode_state_ns"] = reps, reps
	return nil
}

// checkpointProbes cuts a snapshot every 2 commits of the probe session,
// times the snapshot framing both ways, and resumes from the middle one.
func (p *prober) checkpointProbes() error {
	s, m := p.s, p.m
	var snaps []*checkpoint.Snapshot
	cfg := streamConfig(p.workers)
	cfg.Checkpoint = engine.CheckpointConfig{Codec: s.wire, EveryCommits: 2,
		OnSnapshot: func(snap *checkpoint.Snapshot) { snaps = append(snaps, snap) }}
	p.native("checkpoint.session", cfg)
	if len(snaps) == 0 {
		return fmt.Errorf("checkpoint probe: no snapshot in %d inputs", len(s.inputs))
	}
	framed := make([][]byte, len(snaps))
	sizes := make([]float64, len(snaps))
	enc, err := perCall(len(snaps), func(i int) (err error) {
		framed[i], err = checkpoint.Encode(snaps[i])
		sizes[i] = float64(len(framed[i]))
		return err
	})
	if err != nil {
		return err
	}
	dec, err := perCall(len(snaps), func(i int) error { _, err := checkpoint.Decode(framed[i]); return err })
	if err != nil {
		return err
	}
	m["checkpoint.encode_us_p50"], m["checkpoint.decode_us_p50"] = enc/1e3, dec/1e3
	m["checkpoint.snapshot_bytes"] = median(sizes)
	m["checkpoint.snapshots_per_session"] = float64(len(snaps))
	p.samples["checkpoint.encode_us_p50"], p.samples["checkpoint.decode_us_p50"] = len(snaps), len(snaps)

	firsts := make([]float64, engineRounds)
	for i := range firsts {
		first, err := p.resumeOnce(snaps[len(snaps)/2])
		if err != nil {
			return fmt.Errorf("checkpoint probe: resume: %w", err)
		}
		firsts[i] = float64(first)
	}
	m["checkpoint.resume_ms_p50"] = median(firsts) / 1e6
	p.samples["checkpoint.resume_ms_p50"] = len(firsts)
	return nil
}

// resumeOnce restores snap into a fresh pipeline, feeds it the rest of the
// session and returns how long the first output took from NewStream.
func (p *prober) resumeOnce(snap *checkpoint.Snapshot) (time.Duration, error) {
	s := p.s
	rest := s.inputs[snap.Inputs:]
	cfg := streamConfig(p.workers)
	cfg.Resume = &engine.ResumeConfig{Snap: snap, Codec: s.wire}
	t0 := time.Now()
	pipe, err := engine.NewStream(p.ctx, s.plain, cfg)
	if err != nil {
		return 0, err
	}
	go func() {
		defer pipe.Close()
		for _, in := range rest {
			if pipe.Push(p.ctx, in) != nil {
				return
			}
		}
	}()
	var first time.Duration
	got := 0
	for range pipe.Outputs() {
		if got == 0 {
			first = time.Since(t0)
		}
		got++
	}
	if _, err := pipe.Wait(); err != nil {
		return 0, err
	}
	if got != len(rest) {
		return 0, fmt.Errorf("resumed session returned %d outputs for %d inputs", got, len(rest))
	}
	return first, nil
}

// wireProbes climbs the ladder in rounds: the probe session through the
// sequential loop, an in-process pipeline, straight to an in-harness
// backend, through a gate child, and through a gate child started with
// -migrate, back to back.
func (p *prober) wireProbes() (ladder, error) {
	s, m := p.s, p.m
	n := len(s.inputs)
	pe := &env{workers: p.workers}
	defer pe.close()
	if err := pe.startWire(p.ctx); err != nil {
		return ladder{}, err
	}
	// The same hop with the checkpointed-session protocol on and no
	// migration triggered: what session mobility costs when nothing moves.
	mig, migURL, err := startGate(p.ctx, pe.backend.url, "-migrate", "-ckpt-every", "8")
	if err != nil {
		return ladder{}, err
	}
	defer mig.stop()

	// wire returns first-output and whole-session time in ns.
	wire := func(what, base string) (first, total float64) {
		runtime.GC()
		f, t := pe.runWire(p.ctx, s, base, s.bench, 0)
		if s.err == nil {
			s.err = verifyWire(s.wres, n, s.want)
		}
		p.check(what, s.err)
		return float64(f), float64(t)
	}
	var firstMs, directMs, nativeVsSeq, directVsNative, gateVsDirect, migVsDirect, gateVsSeq []float64
	var gateSelf time.Duration // harness CPU while via-gate sessions ran
	gate0 := pe.gateCPU()
	for r := -1; r < wireRounds; r++ {
		seq := p.sequential()
		native := p.native("serve.native", streamConfig(p.workers))
		first, direct := wire("serve.direct", pe.backend.url)
		self0 := selfCPU()
		_, viaGate := wire("gate.hop", pe.gateURL)
		self := selfCPU() - self0
		_, viaMig := wire("gate.migrate", migURL)
		if err := mig.exited(); err != nil {
			return ladder{}, err
		}
		if r < 0 {
			gate0 = pe.gateCPU()
			continue // one unrecorded round opens the connections and fills the pools
		}
		gateSelf += self
		firstMs, directMs = append(firstMs, first/1e6), append(directMs, direct/1e6)
		nativeVsSeq = append(nativeVsSeq, native/seq)
		directVsNative = append(directVsNative, direct/native)
		gateVsDirect = append(gateVsDirect, viaGate/direct)
		migVsDirect = append(migVsDirect, viaMig/direct)
		gateVsSeq = append(gateVsSeq, viaGate/seq)
	}
	gateCPU := pe.gateCPU() - gate0 // the gate works only while a session goes through it

	m["serve.direct_vs_native"] = median(directVsNative)
	m["serve.first_output_ms_p50"] = median(firstMs)
	m["serve.session_ms_p50"] = median(directMs)
	hi, pct := hiPercentile(directMs)
	m["serve.session_ms_hi"] = hi
	fmt.Printf("serve.session_ms_hi is p%.1f of %d sessions\n", pct, len(directMs))
	m["gate.hop_ratio"] = median(gateVsDirect)
	m["gate.migrate_hop_ratio"] = median(migVsDirect)
	m["gate.cpu_share"] = float64(gateCPU) / float64(gateSelf+gateCPU)
	for _, name := range []string{"serve.direct_vs_native", "serve.first_output_ms_p50", "serve.session_ms_p50",
		"serve.session_ms_hi", "gate.hop_ratio", "gate.migrate_hop_ratio"} {
		p.samples[name] = wireRounds
	}

	backendMetrics, err := httpGet(p.ctx, pe.backend.url+"/metrics")
	if err != nil {
		return ladder{}, err
	}
	gateMetrics, err := httpGet(p.ctx, pe.gateURL+"/metrics")
	if err != nil {
		return ladder{}, err
	}
	m["serve.shed"] = float64(cluster.ParseMetrics(backendMetrics).Values["serve/counter[sessions_shed]"])
	m["gate.rerouted"] = float64(cluster.ParseMetrics(gateMetrics).Values["gate/counter[reroutes]"])
	m["cluster.parse_metrics_ns"], _ = perCall(wireRounds, func(int) error { cluster.ParseMetrics(backendMetrics); return nil })

	// The gate's routing decision: its default policy over eight candidates.
	policy, err := cluster.PolicyFor("roundrobin")
	if err != nil {
		return ladder{}, err
	}
	candidates := make([]cluster.Backend, 8)
	for i := range candidates {
		candidates[i] = cluster.Backend{ID: fmt.Sprintf("b%d", i)}
	}
	const picks = 100_000
	m["cluster.pick_ns"] = timed(func() {
		for i := 0; i < picks; i++ {
			pickSink += policy.Pick(candidates, cluster.SessionKey{Benchmark: s.bench, Seq: uint64(i)})
		}
	}) / picks
	return ladder{nativeVsSeq: median(nativeVsSeq), gateVsSeq: median(gateVsSeq)}, nil
}

var pickSink int // keeps the compiler from dropping the timed Pick calls

// machineProbe is the simulated reproduction path's one row: deterministic
// virtual time, off the serving path.
func (p *prober) machineProbe() error {
	inputs := p.s.inputs[:min(len(p.s.inputs), 4*chunkSize)]
	mt := trace.New()
	sim := &engine.SimScheduler{Config: machine.DefaultConfig(4), Options: []machine.Option{machine.WithTrace(mt)}}
	t0 := time.Now()
	if _, err := sim.RunSlice(p.s.plain, inputs, engine.Config{Chunks: 4, Lookback: lookback, ExtraStates: extraStates, InnerWidth: 1, Seed: engineSeed}); err != nil {
		return fmt.Errorf("machine probe: %w", err)
	}
	p.m["machine.events_per_s"] = float64(len(mt.Intervals)+len(mt.Edges)) / time.Since(t0).Seconds()
	return nil
}

func httpGet(ctx context.Context, url string) (string, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return "", err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("GET %s: HTTP %d", url, resp.StatusCode)
	}
	body, err := io.ReadAll(resp.Body)
	return string(body), err
}
