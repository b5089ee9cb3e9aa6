package engine

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"gostats/internal/machine"
	"gostats/internal/rng"
	"gostats/internal/trace"
)

// decision is the commit status of a chunk.
type decision int

const (
	decisionPending decision = iota
	decisionCommit
	decisionAbort
	// decisionFatal poisons the chain when a predecessor exhausted its
	// fault tolerance: the worker releases its states and propagates the
	// poison instead of committing.
	decisionFatal
)

// slot carries the cross-chunk coordination state for one chunk: the
// speculative state its worker publishes for checking, and the commit
// decision (plus recovery state) its predecessor publishes back.
type slot struct {
	mu *machine.Mutex
	cv *machine.Cond

	spec      State
	specReady bool
	// specFault marks that the worker exhausted its retries without ever
	// publishing a speculative state; the predecessor decides abort
	// without a comparison and the worker recovers from the true state.
	specFault bool

	dec       decision
	trueFinal State
	srcLoc    int
}

// run holds one execution of the STATS model.
type run struct {
	proto
	cfg    Config
	inputs []Input
	bounds [][2]int
	slots  []*slot
	outs   [][]Output

	commits atomic.Int64
	aborts  atomic.Int64

	fatalOnce sync.Once
	fatalErr  error // terminal fault; read only after the workers join
}

// setFatal records the session's terminal error (first one wins).
func (rt *run) setFatal(err error) {
	rt.fatalOnce.Do(func() { rt.fatalErr = err })
}

// Run executes the STATS execution model for p over inputs on the
// simulated machine's batch body — one thread per chunk, commit decisions
// passed down a mutex/cond chain (§II-B, Fig. 5) — returning the ordered
// outputs and resource/commit statistics. Must be called from inside
// machine.Run. Use SimScheduler to also receive the engine event stream;
// the native runtime is the streaming pipeline (BatchScheduler,
// StreamScheduler).
func Run(ex *SimExec, p Program, inputs []Input, cfg Config) (*Report, error) {
	return runBatch(ex, p, inputs, cfg, nil)
}

func runBatch(ex *SimExec, p Program, inputs []Input, cfg Config, sink Sink) (*Report, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(inputs) == 0 {
		return nil, fmt.Errorf("engine: empty input stream")
	}
	rt := &run{
		cfg:    cfg,
		inputs: inputs,
		bounds: Partition(len(inputs), cfg.Chunks),
	}
	rt.init(p, cfg.Seed, cfg.Lookback, cfg.ExtraStates, cfg.Fault, sink)
	chunks := len(rt.bounds)
	rt.slots = make([]*slot, chunks)
	rt.outs = make([][]Output, chunks)

	rt.emit(Event{Kind: EvSessionStart, Chunk: -1, Worker: -1})
	rt.emit(Event{Kind: EvIngest, Chunk: -1, Worker: -1, N: len(inputs)})

	// --- Sequential code before the STATS region (§III-D). ---
	ex.SetCat(trace.CatSeqCode)
	ex.Compute(p.PreRegionWork())

	// --- Setup: allocate runtime structures, prepare the initial state
	// (first state copy of Fig. 6 happens here). ---
	ex.SetCat(trace.CatSetup)
	ex.Compute(p.SetupWork(chunks))
	m := ex.th.Machine()
	for j := range rt.slots {
		mu := m.NewMutex()
		rt.slots[j] = &slot{mu: mu, cv: m.NewCond(mu), srcLoc: -1}
	}
	rt.slots[0].dec = decisionCommit
	initial := rt.initial()
	rt.countState()
	ex.Copy(p.StateBytes(), -1, p.Name()+".init")
	rt.countState() // the copy handed to the first worker

	// --- Spawn one worker per chunk. ---
	ex.SetCat(trace.CatChunkWork)
	handles := make([]*machine.Thread, chunks)
	for j := 0; j < chunks; j++ {
		j := j
		var start State
		if j == 0 {
			start = initial
		}
		handles[j] = ex.spawn(fmt.Sprintf("%s-w%d", p.Name(), j), func(we *SimExec) {
			rt.worker(we, j, start)
		})
		rt.countThread()
	}
	for _, h := range handles {
		ex.th.Join(h)
	}

	// --- Teardown and post-region sequential code. ---
	ex.SetCat(trace.CatSetup)
	ex.Compute(p.TeardownWork(chunks))
	ex.SetCat(trace.CatSeqCode)
	ex.Compute(p.PostRegionWork())

	rep := &Report{
		Chunks:         chunks,
		Commits:        int(rt.commits.Load()),
		Aborts:         int(rt.aborts.Load()),
		ThreadsCreated: int(rt.threads.Load()),
		StatesCreated:  int(rt.states.Load()),
		StateBytes:     p.StateBytes(),
	}
	for _, outs := range rt.outs {
		rep.Outputs = append(rep.Outputs, outs...)
	}
	rt.emit(Event{Kind: EvSessionEnd, Chunk: -1, Worker: -1})
	if rt.fatalErr != nil {
		return nil, rt.fatalErr
	}
	return rep, nil
}

// chunkInputs returns chunk j's input slice.
func (rt *run) chunkInputs(j int) []Input {
	b := rt.bounds[j]
	return rt.inputs[b[0]:b[1]]
}

// worker runs the lifecycle of chunk j (§II-B and Fig. 5 of the paper) on
// its own thread: the speculative attempt, the wait for its own commit
// decision, recovery if that decision (or an exhausted retry budget)
// demands it, and the decision for the successor. Only a fault in the
// recovery too fails the session (with a structured error, never a
// process crash).
func (rt *run) worker(ex *SimExec, j int, start State) {
	var c chunkRun
	c.bind(&rt.proto, ex, j, j)
	c.g = chunkGang(ex, rt.prog, j, rt.cfg.InnerWidth, &c.rng, rt.countThread)
	defer c.g.Close(ex)
	inputs := rt.chunkInputs(j)
	last := j == len(rt.bounds)-1
	rt.emit(Event{Kind: EvChunk, Chunk: j, Worker: j, N: len(inputs)})

	var prevWindow []Input
	if j > 0 {
		prevWindow = rt.window(rt.chunkInputs(j - 1))
	}
	var outs []Output
	var final State
	var origs []State
	published := false
	specFault := c.retry(context.Background(), SiteAltProducer, func() error {
		// The speculative copy is published once; retries reuse it, as it
		// is still the state validation must check.
		s, spec := c.start(start, prevWindow, !published)
		if spec != nil {
			// Publish it before the body runs, so the predecessor can check
			// it while this worker speculatively computes the chunk.
			rt.publish(ex, j, spec, false)
			published = true
		}
		outs, final, origs = c.finish(s, inputs, last, nil, nil)
		return nil
	})
	if specFault != nil && j > 0 && !published {
		// The predecessor is (or will be) waiting on a speculative state
		// that will never arrive; mark the slot faulted so it decides
		// abort without a comparison instead of blocking forever.
		rt.publish(ex, j, nil, true)
	}

	// Wait for this chunk's own commit decision (program order).
	dec, tf, srcLoc := decisionCommit, State(nil), -1
	if j > 0 {
		sl := rt.slots[j]
		sl.mu.Lock(ex.th)
		for sl.dec == decisionPending {
			sl.cv.Wait(ex.th)
		}
		dec, tf, srcLoc = sl.dec, sl.trueFinal, sl.srcLoc
		sl.mu.Unlock(ex.th)
	}
	if dec == decisionFatal {
		// A predecessor already failed the session; release what this
		// chunk holds and pass the poison down the chain.
		c.releaseRun(final, origs)
		rt.poison(ex, j)
		return
	}

	if dec == decisionAbort || specFault != nil {
		// Mispeculation (§III-E) or exhausted speculative retries: rerun
		// the chunk from the true state produced by the predecessor. The
		// speculative run's states — including its final state, origs[0],
		// and its replicas — are dead; retire them before
		// the recovery run re-materializes the set. (A faulted speculation
		// carries none.)
		rt.aborts.Add(1)
		if specFault != nil {
			rt.emit(Event{Kind: EvDegraded, Chunk: j, Worker: j, N: specFault.Attempt})
		}
		rt.emit(Event{Kind: EvAborted, Chunk: j, Worker: j})
		c.releaseRun(final, origs)
		rexFault := c.retry(context.Background(), SiteReexec, func() error {
			outs, final, origs = c.reexec(tf, srcLoc, inputs, last, nil, nil)
			return nil
		})
		if rexFault != nil {
			rt.setFatal(&FaultError{Fault: rexFault})
			rt.poison(ex, j)
			return
		}
	} else {
		rt.commits.Add(1)
		rt.emit(Event{Kind: EvCommitted, Chunk: j, Worker: j})
	}
	rt.outs[j] = outs
	rt.emit(Event{Kind: EvOutputs, Chunk: j, Worker: j, N: len(outs)})

	// Now committed: decide the successor chunk's fate by comparing its
	// speculative state against this chunk's original states (§II-B),
	// building the replicas the executor deferred only if it needs them.
	if !last {
		nxt := rt.slots[j+1]
		nxt.mu.Lock(ex.th)
		for !nxt.specReady {
			nxt.cv.Wait(ex.th)
		}
		spec, sFault := nxt.spec, nxt.specFault
		nxt.mu.Unlock(ex.th)

		matched := false
		if !sFault {
			v, fault := c.validateLineage(context.Background(), &origs, spec)
			if fault != nil {
				rt.setFatal(&FaultError{Fault: fault})
				rt.poison(ex, j)
				return
			}
			matched = v.ok
			rt.emit(Event{Kind: EvValidated, Chunk: j + 1, Worker: j,
				N: v.n, Matched: v.ok, Start: v.start, Dur: v.dur})
		}
		// The boundary is resolved: the replica originals, built or not,
		// and the successor's published speculative copy are both dead.
		// origs[0] (this chunk's final state) lives on as the successor's
		// recovery state. (spec is nil when the successor never published
		// one.)
		c.resolved(origs)
		rt.pool.Release(spec)
		nxt.mu.Lock(ex.th)
		nxt.trueFinal = final
		nxt.srcLoc = ex.Loc()
		if matched {
			nxt.dec = decisionCommit
		} else {
			nxt.dec = decisionAbort
		}
		nxt.cv.Broadcast(ex.th)
		nxt.mu.Unlock(ex.th)
	}
}

// publish hands chunk j's speculative copy to its predecessor — or, with
// fault set, the news that none will ever come.
func (rt *run) publish(ex *SimExec, j int, spec State, fault bool) {
	sl := rt.slots[j]
	sl.mu.Lock(ex.th)
	sl.spec = spec
	sl.specReady = true
	sl.specFault = fault
	sl.cv.Broadcast(ex.th)
	sl.mu.Unlock(ex.th)
}

// poison propagates a fatal failure to chunk j+1's decision slot so the
// rest of the chain unwinds instead of deadlocking on a decision that
// will never be published.
func (rt *run) poison(ex *SimExec, j int) {
	if j == len(rt.bounds)-1 {
		return
	}
	nxt := rt.slots[j+1]
	nxt.mu.Lock(ex.th)
	nxt.dec = decisionFatal
	nxt.cv.Broadcast(ex.th)
	nxt.mu.Unlock(ex.th)
}

// RunSequential executes the original sequential program (the Fig. 9
// baseline): no STATS runtime, no original TLP.
func RunSequential(ex Exec, p Program, inputs []Input, seed uint64) *Report {
	return runPlain(ex, p, inputs, 1, seed)
}

// RunOriginal executes the program with only its original TLP (the black
// bars of Fig. 9): a sequential outer loop whose updates run on a gang of
// the given width — on an executor that charges cost; a cost-free one
// runs no gang and spawns nothing.
func RunOriginal(ex Exec, p Program, inputs []Input, width int, seed uint64) *Report {
	return runPlain(ex, p, inputs, width, seed)
}

func runPlain(ex Exec, p Program, inputs []Input, width int, seed uint64) *Report {
	root := rng.New(seed).Derive("plain:" + p.Name())
	ex.SetCat(trace.CatSeqCode)
	ex.Compute(p.PreRegionWork())

	ex.SetCat(trace.CatChunkWork)
	threads := 0
	g := newGang(ex, p.Name()+"-orig", width, root.Sub("jitter"), func() { threads++ })
	s := p.Initial(root.Derive("init"))
	upd := root.Derive("updates")
	outs := make([]Output, 0, len(inputs))
	for _, in := range inputs {
		uw := p.UpdateCost(in, s)
		var out Output
		s, out = p.Update(s, in, upd)
		g.Run(ex, uw, trace.CatChunkWork)
		outs = append(outs, out)
	}
	g.Close(ex)

	ex.SetCat(trace.CatSeqCode)
	ex.Compute(p.PostRegionWork())
	return &Report{
		Outputs:        outs,
		Chunks:         1,
		Commits:        1,
		ThreadsCreated: threads,
		StatesCreated:  1,
		StateBytes:     p.StateBytes(),
	}
}
