// Package faultinject provides deterministic, seeded fault plans for
// chaos-testing the STATS engine.
//
// A Plan is a fixed set of faults — panics and corrupted speculative
// states — keyed by (protocol site, chunk index, attempt). Wrapping a
// Program with a plan attaches it at the engine's Injector seam: every
// scheduler (batch, streaming, simulated) consults the injector at the
// same protocol points, so one plan reproduces the same fault schedule on
// all three. Because injection is a pure function of (site, chunk,
// attempt), a faulted run is as reproducible as a fault-free one: the
// engine's retry/degrade machinery absorbs the faults and the committed
// outputs stay byte-identical to the fault-free run.
//
// The two fault kinds map onto the engine's fault domains:
//
//   - Panic: a crash inside the chunk protocol. The engine isolates it
//     and retries the attempt at once.
//   - Corrupt: a wrong-but-well-formed speculative start state (a cold
//     Fresh state substituted for the alternative producer's output,
//     before it is published). Boundary validation rejects it and the
//     chunk re-executes from the true predecessor state — the protocol's
//     own mispeculation recovery, exercised on demand.
//
// Corruption is only meaningful at the SiteAltProducer seam of chunks
// after the first: chunk 0 commits without validation, and a state
// swapped in after the speculative copy is published would evade the
// boundary check. New restricts Corrupt faults accordingly.
package faultinject

import (
	"fmt"
	"sync/atomic"

	"gostats/internal/engine"
	"gostats/internal/rng"
)

// Kind enumerates the injectable fault kinds.
type Kind uint8

const (
	// Panic crashes the protocol attempt with a recognizable value.
	Panic Kind = iota
	// Corrupt substitutes a cold Fresh state for the speculative start
	// state before it is published (SiteAltProducer, chunk > 0 only).
	Corrupt
)

// String names the kind for test output and panic values.
func (k Kind) String() string {
	switch k {
	case Panic:
		return "panic"
	case Corrupt:
		return "corrupt"
	}
	return "unknown"
}

// Fault is one planned injection.
type Fault struct {
	// Site is the protocol point the fault fires at.
	Site engine.FaultSite
	// Chunk is the target chunk index.
	Chunk int
	// Kind selects what happens.
	Kind Kind
	// Attempts is how many consecutive execution attempts fault (the
	// injector fires while attempt < Attempts). 0 means 1: only the first
	// attempt faults and the engine's first retry succeeds. A value above
	// the engine's retry budget exhausts it — speculative attempts then
	// degrade to sequential re-execution, and a large-enough value at
	// SiteReexec makes the fault terminal (a structured session failure).
	Attempts int
}

type planKey struct {
	site  engine.FaultSite
	chunk int
}

// Plan is a deterministic fault schedule. Plans are immutable after
// construction and safe to share across concurrent runs.
type Plan struct {
	faults map[planKey][]Fault
}

// New builds a plan from an explicit fault list. It panics on a Corrupt
// fault that the boundary check could not catch (site other than
// SiteAltProducer, or chunk 0) — such a plan would corrupt committed
// outputs instead of exercising recovery.
func New(faults ...Fault) *Plan {
	p := &Plan{faults: make(map[planKey][]Fault, len(faults))}
	for _, f := range faults {
		if f.Kind == Corrupt && (f.Site != engine.SiteAltProducer || f.Chunk == 0) {
			panic(fmt.Sprintf(
				"faultinject: Corrupt fault at chunk %d site %s would evade validation",
				f.Chunk, f.Site))
		}
		k := planKey{f.Site, f.Chunk}
		p.faults[k] = append(p.faults[k], f)
	}
	return p
}

// Program is a Program with a fault plan attached; it implements
// engine.Injector, so every engine scheduler consults the plan. The
// injection counters record what actually fired (atomic — workers inject
// concurrently).
type Program struct {
	engine.Program
	plan *Plan

	// Panics and Corrupts count fired injections by kind.
	Panics, Corrupts atomic.Int64
}

// Wrap attaches the plan to prog. The wrapper deliberately hides prog's
// optional recycling interfaces (StateRecycler, FreshRecycler): chaos runs
// measure recovery correctness, not allocator traffic, and dropping
// recycling exercises the portable code. Committed outputs are unaffected
// either way.
func (p *Plan) Wrap(prog engine.Program) *Program {
	return &Program{Program: prog, plan: p}
}

// Inject implements engine.Injector: a pure function of (site, chunk,
// attempt) apart from the monotonic counters.
func (fp *Program) Inject(site engine.FaultSite, chunk, attempt int, s engine.State) engine.State {
	for _, f := range fp.plan.faults[planKey{site, chunk}] {
		attempts := f.Attempts
		if attempts == 0 {
			attempts = 1
		}
		if attempt >= attempts {
			continue
		}
		switch f.Kind {
		case Panic:
			fp.Panics.Add(1)
			panic(fmt.Sprintf("faultinject: planned panic (chunk %d, site %s, attempt %d)",
				chunk, site, attempt))
		case Corrupt:
			if s == nil {
				continue // a site that carries no state; nothing to corrupt
			}
			fp.Corrupts.Add(1)
			// A cold state, derived deterministically per chunk: well-formed
			// but without the input history, exactly the kind of state the
			// paper's validation exists to reject.
			s = fp.Program.Fresh(rng.New(uint64(chunk)*0x9e3779b97f4a7c15 + 1).Derive("corrupt"))
		}
	}
	return s
}

// Fired reports the total injections that actually fired.
func (fp *Program) Fired() int64 {
	return fp.Panics.Load() + fp.Corrupts.Load()
}
