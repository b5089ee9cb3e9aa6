package engine

import (
	"context"
	"fmt"

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
// speculative state its worker publishes for checking — nil when the
// worker exhausted its retries without one, which the predecessor's
// boundary decides as a miss — and the commit decision (plus recovery
// state) its predecessor publishes back.
type slot struct {
	mu *machine.Mutex
	cv *machine.Cond

	spec      State
	specReady bool

	dec       decision
	trueFinal State
	srcLoc    int
}

// run holds one execution of the STATS model on the simulated machine:
// the protocol (its tallies and terminal-error latch included), the
// partition, and the slot chain through which each chunk's thread hands
// its successor the boundary's decision.
type run struct {
	proto
	cfg    Config
	inputs []Input
	bounds [][2]int
	slots  []*slot
	outs   [][]Output
}

// runBatch executes the STATS execution model for p over inputs as the
// simulated machine's batch body, returning the ordered outputs and
// resource/commit statistics. SimScheduler is its one caller, from inside
// machine.Run.
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
	rt.init(p, cfg.Seed, cfg.Lookback, cfg.ExtraStates, sink)
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
	if err := rt.failErr(); err != nil {
		return nil, err
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
// decision, settlement — recovery if that decision (or an exhausted retry
// budget) demands it — and the boundary that decides the successor. Only
// a fault in the recovery too fails the session (with a structured error,
// never a process crash).
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
			rt.publish(ex, j, spec)
			published = true
		}
		outs, final, origs = c.finish(s, inputs, last, nil, nil)
		return nil
	})
	if specFault != nil && j > 0 && !published {
		// The predecessor is (or will be) waiting on a speculative state
		// that will never arrive; tell it none will, so it decides abort
		// without a comparison instead of blocking forever.
		rt.publish(ex, j, nil)
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

	// Commit, or — on mispeculation (§III-E) or exhausted speculative
	// retries — rerun the chunk from the true state the predecessor
	// produced.
	ok := dec == decisionCommit && specFault == nil
	if fault := c.settle(context.Background(), ok, specFault, final, origs, func() error {
		outs, final, origs = c.reexec(tf, srcLoc, inputs, last, nil, nil)
		return nil
	}); fault != nil {
		rt.fail(fault)
		rt.poison(ex, j)
		return
	}
	rt.outs[j] = outs
	rt.emit(Event{Kind: EvOutputs, Chunk: j, Worker: j, N: len(outs)})

	// Now committed: decide the successor chunk's fate by comparing its
	// speculative state against this chunk's original states (§II-B).
	// origs[0] (this chunk's final state) lives on as the successor's
	// recovery state.
	if !last {
		nxt := rt.slots[j+1]
		nxt.mu.Lock(ex.th)
		for !nxt.specReady {
			nxt.cv.Wait(ex.th)
		}
		spec := nxt.spec
		nxt.mu.Unlock(ex.th)

		matched, fault := c.boundary(context.Background(), &origs, spec, nil)
		if fault != nil {
			rt.fail(fault)
			rt.poison(ex, j)
			return
		}
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
// spec nil, the news that none will ever come.
func (rt *run) publish(ex *SimExec, j int, spec State) {
	sl := rt.slots[j]
	sl.mu.Lock(ex.th)
	sl.spec = spec
	sl.specReady = true
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
