package machine

import (
	"fmt"
	"runtime/debug"

	"gostats/internal/memsim"
	"gostats/internal/trace"
)

// Work is a unit of charged computation.
type Work struct {
	// Instr is the charged instruction count (native-scale, per the
	// benchmark's cost model).
	Instr int64
	// ForceCycles, when positive, replaces Instr*BaseCPI as the base latency
	// (used for fixed-cost operations such as state copies). Instructions
	// are still accounted.
	ForceCycles int64
	// Access, when non-nil and a memory system is attached, runs the work
	// through the cache/branch simulators, adding stall cycles and
	// incrementing the Table II counters.
	Access *memsim.AccessProfile
	// Tag annotates the trace intervals produced by this work.
	Tag string
}

// Thread is a simulated thread of execution. All methods must be called
// from the thread's own goroutine (i.e. from within the function passed to
// Spawn/Run); they are not safe for cross-thread use.
type Thread struct {
	id   int
	name string
	m    *Machine
	core int

	wake       chan struct{}
	cat        trace.Category
	blockedOn  string
	blockStart int64
	startTime  int64
	endTime    int64
	done       bool
	joiners    []*Thread
}

// ID returns the thread's trace identifier.
func (t *Thread) ID() int { return t.id }

// Name returns the thread's name.
func (t *Thread) Name() string { return t.name }

// Core returns the core the thread is pinned to.
func (t *Thread) Core() int { return t.core }

// Now returns the current simulated time.
func (t *Thread) Now() int64 { return t.m.now }

// Machine returns the owning machine.
func (t *Thread) Machine() *Machine { return t.m }

// Cat returns the thread's current accounting category.
func (t *Thread) Cat() trace.Category { return t.cat }

// SetCat switches the thread's accounting category for subsequent work.
func (t *Thread) SetCat(c trace.Category) { t.cat = c }

// WithCat runs fn with the accounting category temporarily set to c.
func (t *Thread) WithCat(c trace.Category, fn func()) {
	prev := t.cat
	t.cat = c
	defer func() { t.cat = prev }()
	fn()
}

// block parks the thread until the driver resumes it.
func (t *Thread) block(reason string) {
	t.blockedOn = reason
	t.m.yield <- struct{}{}
	<-t.wake
	t.blockedOn = ""
}

// spawnAt registers a new thread. parent may be nil (the root thread).
// affinity < 0 picks the least-loaded core.
func (m *Machine) spawnAt(parent *Thread, name string, delay int64, affinity int, fn func(*Thread)) *Thread {
	core := affinity
	if core < 0 {
		core = m.pickCore()
	}
	if core >= m.cfg.Cores {
		panic(fmt.Sprintf("machine: affinity %d beyond last core %d", core, m.cfg.Cores-1))
	}
	th := &Thread{
		id:   len(m.threads),
		name: name,
		m:    m,
		core: core,
		wake: make(chan struct{}),
		cat:  trace.CatChunkWork,
	}
	m.threads = append(m.threads, th)
	m.cores[core].assigned++
	m.live++
	parentID := -1
	spawnTime := m.now
	if parent != nil {
		parentID = parent.id
	}
	go m.threadMain(th, fn)
	m.at(m.now+delay, func() {
		if parentID >= 0 {
			m.edge(trace.EdgeSpawn, parentID, spawnTime, th.id, m.now)
		}
		th.startTime = m.now
		m.runThread(th)
	})
	return th
}

func (m *Machine) threadMain(th *Thread, fn func(*Thread)) {
	defer func() {
		if r := recover(); r != nil {
			m.fail(fmt.Errorf("machine: thread %q panicked: %v\n%s", th.name, r, debug.Stack()))
			m.yield <- struct{}{}
		}
	}()
	<-th.wake
	fn(th)
	th.finish()
	m.yield <- struct{}{}
}

// finish marks the thread done and schedules joiner wakeups.
func (t *Thread) finish() {
	m := t.m
	t.done = true
	t.endTime = m.now
	m.cores[t.core].assigned--
	m.live--
	finishTime := m.now
	for _, w := range t.joiners {
		w := w
		lat := m.cfg.WakeLatency
		if m.socketOf(t.core) != m.socketOf(w.core) {
			lat += m.cfg.CrossSocketWakeExtra
		}
		m.at(finishTime+lat, func() {
			m.record(w.id, trace.CatSyncWait, w.blockStart, m.now, "join")
			m.edge(trace.EdgeJoin, t.id, finishTime, w.id, m.now)
			m.runThread(w)
		})
	}
	t.joiners = nil
}

// Spawn creates a new thread on the least-loaded core, charging the
// configured spawn cost to the caller.
func (t *Thread) Spawn(name string, fn func(*Thread)) *Thread {
	return t.spawnWith(name, -1, fn)
}

// SpawnOn creates a new thread pinned to the given core.
func (t *Thread) SpawnOn(name string, core int, fn func(*Thread)) *Thread {
	return t.spawnWith(name, core, fn)
}

func (t *Thread) spawnWith(name string, core int, fn func(*Thread)) *Thread {
	if t.m.cfg.SpawnCost > 0 {
		t.WithCat(trace.CatSpawn, func() {
			t.Compute(Work{ForceCycles: t.m.cfg.SpawnCost, Instr: t.m.cfg.SpawnCost / 2, Tag: "spawn"})
		})
	}
	return t.m.spawnAt(t, name, t.m.cfg.SpawnLatency, core, fn)
}

// Join blocks until other completes. Joining an already finished thread
// returns immediately and costs nothing.
func (t *Thread) Join(other *Thread) {
	if other.done {
		return
	}
	other.joiners = append(other.joiners, t)
	t.blockStart = t.m.now
	t.block("join:" + other.name)
}

// computeReq is a queued demand for CPU cycles on a core.
type computeReq struct {
	t         *Thread
	remaining int64
	cat       trace.Category
	tag       string
	readyAt   int64
}

// Compute charges w to the calling thread, blocking until the core has
// executed it. Preemption by other runnable threads on the same core is
// modelled with the configured quantum.
func (t *Thread) Compute(w Work) {
	m := t.m
	base := w.ForceCycles
	if base <= 0 {
		base = int64(float64(w.Instr) * m.cfg.BaseCPI)
	}
	if w.Instr < 0 {
		panic("machine: negative instruction count")
	}
	cycles := base
	if m.mem != nil && w.Access != nil && w.Instr > 0 {
		res := m.mem.Process(t.core, w.Instr, *w.Access)
		cycles += res.ExtraCycles
	}
	if cycles <= 0 {
		return
	}
	cat := t.cat
	m.acct.Instr[cat] += w.Instr
	m.acct.Cycles[cat] += cycles
	t.execute(cycles, cat, w.Tag)
}

// execute pushes a cycle demand through the core scheduler and blocks.
func (t *Thread) execute(cycles int64, cat trace.Category, tag string) {
	m := t.m
	core := m.cores[t.core]
	req := &computeReq{t: t, remaining: cycles, cat: cat, tag: tag, readyAt: m.now}
	core.queue = append(core.queue, req)
	core.loadCy += cycles
	if !core.busy {
		m.service(core)
	}
	t.block("cpu")
}

// service starts executing the next queued request on core, if any. It
// must only be called when the core is idle.
func (m *Machine) service(core *coreState) {
	if core.busy || len(core.queue) == 0 {
		return
	}
	core.busy = true
	req := core.queue[0]
	core.queue = core.queue[1:]
	if req.readyAt < m.now {
		// The thread sat runnable while the core served others.
		m.record(req.t.id, trace.CatSchedWait, req.readyAt, m.now, "")
	}
	// Always cap at the quantum: a thread that arrives mid-slice must be
	// able to interleave at the next quantum boundary even if the core was
	// idle when this slice started.
	slice := req.remaining
	if slice > m.cfg.Quantum {
		slice = m.cfg.Quantum
	}
	sliceStart := m.now
	m.after(slice, func() {
		core.busyCy += slice
		core.loadCy -= slice
		req.remaining -= slice
		m.record(req.t.id, req.cat, sliceStart, m.now, req.tag)
		req.readyAt = m.now
		core.busy = false
		if req.remaining == 0 {
			m.runThread(req.t)
		} else {
			core.queue = append(core.queue, req)
		}
		m.service(core)
	})
}

// CopyState charges a state copy of the given size. srcCore < 0 means the
// source is local (no cross-socket penalty); otherwise the penalty applies
// when srcCore and the thread's core are on different sockets. tag names
// the copied object for the trace and for stable cache regions.
func (t *Thread) CopyState(bytes int64, srcCore int, tag string) {
	if bytes <= 0 {
		return
	}
	m := t.m
	bw := m.cfg.CopyBytesPerCycle
	if srcCore >= 0 && m.socketOf(srcCore) != m.socketOf(t.core) {
		bw /= m.cfg.CrossSocketCopyFactor
	}
	cycles := m.cfg.CopySetupCost + int64(float64(bytes)/bw)
	instr := int64(float64(bytes) * m.cfg.InstrPerCopiedByte)
	var access *memsim.AccessProfile
	if m.mem != nil {
		access = &memsim.AccessProfile{
			Name:    "copy:" + tag,
			MemFrac: 1.0,
			Regions: []memsim.RegionRef{
				{Name: tag + ".src", Bytes: bytes, Frac: 0.5, Stride: 8},
				{Name: tag + ".dst", Bytes: bytes, Frac: 0.5, Stride: 8},
			},
			BranchFrac:  0.02,
			BranchBias:  0.99,
			BranchSites: 2,
		}
	}
	t.WithCat(trace.CatStateCopy, func() {
		t.Compute(Work{Instr: instr, ForceCycles: cycles, Access: access, Tag: tag})
	})
}

// chargeSync charges fixed synchronization cycles in the given category.
func (t *Thread) chargeSync(cycles int64, cat trace.Category, tag string) {
	if cycles <= 0 {
		return
	}
	m := t.m
	m.acct.Cycles[cat] += cycles
	// Synchronization instructions are few; account one per two cycles.
	m.acct.Instr[cat] += cycles / 2
	t.execute(cycles, cat, tag)
}
