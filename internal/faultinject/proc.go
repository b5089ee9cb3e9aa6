package faultinject

import "gostats/internal/rng"

// ProcKind enumerates process-level fault kinds for the out-of-process
// chunk executor (internal/procexec). Unlike the in-protocol kinds above,
// these kill, wedge, or corrupt the worker *process*: the parent observes
// them only through the transport (EOF, an ended context, unparseable
// reply) and must recover by killing, respawning, and re-deriving the
// chunk — or by degrading to the in-process path. Committed outputs stay
// byte-identical through every recovery route.
type ProcKind uint8

const (
	// ProcKill makes the worker exit mid-chunk without replying. The
	// parent sees a truncated stream and retries on a fresh process.
	ProcKill ProcKind = iota
	// ProcHang makes the worker wedge and never reply. The engine sets
	// no deadline of its own: recovery needs a RunChunk context that
	// ends — the session's, or one a caller's ChunkRunner bounds — on
	// which the pool kills the process and the engine retries.
	ProcHang
	// ProcGarbage makes the worker reply with a non-protocol line. The
	// parent rejects it, kills the process, and retries.
	ProcGarbage
)

// String names the kind for test output.
func (k ProcKind) String() string {
	switch k {
	case ProcKill:
		return "kill"
	case ProcHang:
		return "hang"
	case ProcGarbage:
		return "garbage"
	}
	return "unknown"
}

// ProcFault is one planned process-level injection.
type ProcFault struct {
	// Chunk is the target chunk index.
	Chunk int
	// Kind selects how the worker misbehaves.
	Kind ProcKind
	// Attempts is how many consecutive attempts fault (fires while
	// attempt < Attempts); 0 means 1. A value above the engine's retry
	// budget forces degradation to the in-process executor.
	Attempts int
}

// ProcPlan is a deterministic process-fault schedule, keyed by chunk.
// Like Plan it is a pure function of its construction arguments, so a
// faulted multi-process run is exactly reproducible. A nil *ProcPlan
// injects nothing.
type ProcPlan struct {
	faults map[int][]ProcFault
}

// NewProc builds a process-fault plan from an explicit fault list.
func NewProc(faults ...ProcFault) *ProcPlan {
	p := &ProcPlan{faults: make(map[int][]ProcFault, len(faults))}
	for _, f := range faults {
		p.faults[f.Chunk] = append(p.faults[f.Chunk], f)
	}
	return p
}

// SeededProc derives a pseudo-random process-fault plan over chunks
// [0, chunks): each chunk faults with probability rate, with the kind
// drawn from the seed. Pure function of its arguments.
func SeededProc(seed uint64, chunks int, rate float64) *ProcPlan {
	var faults []ProcFault
	root := rng.New(seed).Derive("faultinject-proc")
	for c := 0; c < chunks; c++ {
		r := root.DeriveN("chunk", c)
		if r.Float64() >= rate {
			continue
		}
		faults = append(faults, ProcFault{Chunk: c, Kind: ProcKind(r.Intn(3))})
	}
	return NewProc(faults...)
}

// At reports the fault planned for (chunk, attempt), if any. Safe on a
// nil plan.
func (p *ProcPlan) At(chunk, attempt int) (ProcKind, bool) {
	if p == nil {
		return 0, false
	}
	for _, f := range p.faults[chunk] {
		attempts := f.Attempts
		if attempts == 0 {
			attempts = 1
		}
		if attempt < attempts {
			return f.Kind, true
		}
	}
	return 0, false
}

// ProcLen reports how many process faults the plan schedules.
func (p *ProcPlan) ProcLen() int {
	if p == nil {
		return 0
	}
	n := 0
	for _, fs := range p.faults {
		n += len(fs)
	}
	return n
}
