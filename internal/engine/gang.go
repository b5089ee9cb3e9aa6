package engine

import (
	"fmt"
	"sync/atomic"

	"gostats/internal/machine"
	"gostats/internal/rng"
	"gostats/internal/trace"
)

// gang is a persistent worker pool implementing the program's *original*
// TLP inside one STATS chunk: each update's parallel part is split across
// the gang with a condvar barrier per update, the way the PARSEC pthread
// versions fork/join worker threads per frame. The per-update kernel
// round-trips are what makes the original TLP's synchronization overhead
// emerge in the simulation. A nil *gang is valid and runs everything on
// the calling context: width 1, or any executor but the simulated one,
// where helpers would meet at a barrier every update to compute nothing.
type gang struct {
	width   int
	jit     rng.Stream // share jitter; simulated cost only
	mu      *machine.Mutex
	start   *machine.Cond
	doneCv  *machine.Cond
	epoch   int64
	shares  []machine.Work
	cat     trace.Category
	done    int
	active  int
	stop    bool
	handles []*machine.Thread
}

// newGang spawns width-1 helper threads, reporting each spawn through
// counter; jit is the stream the per-share jitter draws from. A width of
// 1 or a cost-free executor returns nil (no gang needed).
func newGang(ex Exec, name string, width int, jit rng.Stream, counter func()) *gang {
	if width <= 1 || costFree(ex) {
		return nil
	}
	se := ex.(*SimExec)
	m := se.th.Machine()
	g := &gang{
		width:  width,
		jit:    jit,
		mu:     m.NewMutex(),
		shares: make([]machine.Work, width-1),
		cat:    trace.CatChunkWork,
	}
	g.start = m.NewCond(g.mu)
	g.doneCv = m.NewCond(g.mu)
	for i := 0; i < width-1; i++ {
		i := i
		h := se.th.Spawn(fmt.Sprintf("%s-g%d", name, i), func(th *machine.Thread) { g.helper(th, i) })
		g.handles = append(g.handles, h)
		counter()
	}
	return g
}

// chunkGang is newGang for chunk j's gang, named "<program>-w<j>", its
// jitter drawn from the "jitter" substream of the chunk's worker stream;
// the name is built only when there are helpers to carry it.
func chunkGang(ex Exec, p Program, j, width int, worker *rng.Stream, counter func()) *gang {
	if width <= 1 || costFree(ex) {
		return nil
	}
	return newGang(ex, fmt.Sprintf("%s-w%d", p.Name(), j), width, worker.Sub("jitter"), counter)
}

func (g *gang) helper(th *machine.Thread, i int) {
	var seen int64
	g.mu.Lock(th)
	for {
		for g.epoch == seen && !g.stop {
			g.start.Wait(th)
		}
		if g.stop {
			g.mu.Unlock(th)
			return
		}
		seen = g.epoch
		w := g.shares[i]
		cat := g.cat
		g.mu.Unlock(th)
		th.SetCat(cat)
		th.Compute(w)
		g.mu.Lock(th)
		g.done++
		if g.done == g.active {
			g.doneCv.Signal(th)
		}
	}
}

// Run executes one update's cost through the gang: the serial part on the
// master, the parallel part split across min(width, Grain) contexts with
// per-share jitter (input-dependent latency variation, a §III-A imbalance
// source).
func (g *gang) Run(ex Exec, uw UpdateWork, cat trace.Category) {
	ex.SetCat(cat)
	ex.Compute(uw.Serial)
	w := uw.Grain
	if w < 1 {
		w = 1
	}
	if g == nil || w == 1 {
		ex.Compute(uw.Parallel)
		return
	}
	if w > g.width {
		w = g.width
	}
	per := uw.Parallel.Instr / int64(w)
	th := ex.(*SimExec).th
	g.mu.Lock(th)
	g.cat = cat
	g.active = g.width - 1
	for i := range g.shares {
		if i < w-1 {
			share := uw.Parallel
			share.Instr = int64(g.jit.Jitter(float64(per), uw.ShareJitter))
			g.shares[i] = share
		} else {
			g.shares[i] = machine.Work{}
		}
	}
	g.epoch++
	g.done = 0
	g.start.Broadcast(th)
	g.mu.Unlock(th)

	my := uw.Parallel
	my.Instr = int64(g.jit.Jitter(float64(per), uw.ShareJitter))
	ex.Compute(my)

	g.mu.Lock(th)
	for g.done < g.active {
		g.doneCv.Wait(th)
	}
	g.mu.Unlock(th)
}

// Close stops and joins the helpers.
func (g *gang) Close(ex Exec) {
	if g == nil {
		return
	}
	th := ex.(*SimExec).th
	g.mu.Lock(th)
	g.stop = true
	g.start.Broadcast(th)
	g.mu.Unlock(th)
	for _, h := range g.handles {
		th.Join(h)
	}
}

// spawnReplicas runs the chunk's original-state replicas each on a thread
// of its own ("<program>-r<j>.<i>") and appends their states to origs —
// the shape of Fig. 5 on a substrate that charges for the work, where
// the replicas' overlap with each other is part of what is measured.
func (c *chunkRun) spawnReplicas(window []Input, snapshot State, rnd *rng.Stream, origs []State) []State {
	ex, p := c.ex.(*SimExec), c.guarded
	results := make([]State, c.extra)
	handles := make([]*machine.Thread, c.extra)
	myLoc := ex.Loc()
	// A panic on a replica thread cannot unwind into the owning worker's
	// recover; capture the first one here and re-raise it on the worker
	// after the joins, so the protocol's thread structure (spawn/join
	// pairing) is undisturbed by the fault.
	var rf atomic.Pointer[replicaFault]
	for i := range results {
		i := i
		rr := rnd.DeriveN("replica", i)
		handles[i] = ex.spawn(fmt.Sprintf("%s-r%d.%d", p.Name(), c.j, i), func(re *SimExec) {
			defer func() {
				if r := recover(); r != nil {
					rf.CompareAndSwap(nil, &replicaFault{val: r, stack: stack()})
				}
			}()
			re.SetCat(trace.CatOrigStates)
			sr := c.pool.Clone(snapshot)
			c.countState()
			re.Copy(p.StateBytes(), myLoc, p.Name()+".orig")
			results[i] = replay(re, p, sr, window, rr, trace.CatOrigStates)
		})
		c.countThread()
	}
	for _, h := range handles {
		ex.th.Join(h)
	}
	if f := rf.Load(); f != nil {
		panic(f)
	}
	return append(origs, results...)
}
