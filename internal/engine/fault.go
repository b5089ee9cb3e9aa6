package engine

import (
	"fmt"
	"runtime/debug"
)

// This file is the engine's fault-tolerance layer. The STATS protocol
// already treats one failure mode — mispeculation — as routine: the chunk
// aborts and re-executes from the true predecessor state (§III-E). The
// fault layer extends that same squash-and-replay discipline to crashes:
// a panic inside the chunk body, the alternative producer, or
// original-state generation becomes a chunk *fault* rather than a process
// death. A faulted attempt is retried at once, up to MaxRetries times;
// when the budget is spent, the runtime degrades to sequential
// re-execution from the last committed state (the streaming frontier's
// recovery path, or the simulated batch body's abort path), and only if
// that too faults does the whole session fail with a structured
// FaultError — the process itself never crashes.
//
// The layer reads no clock. A retried attempt re-derives the same RNG
// substreams as the original (rng derivation is pure), so a successful
// attempt produces byte-identical committed outputs no matter how many
// faulted attempts preceded it, and whether a chunk degrades is a pure
// function of the program, the fault plan and the inputs — never of how
// long an attempt took.

// MaxRetries is the number of re-attempts after a faulted execution, the
// same on every rung of the degrade ladder.
const MaxRetries = 2

// FaultSite locates a fault within the chunk protocol.
type FaultSite uint8

const (
	// SiteAltProducer is the alternative producer (speculative start-state
	// construction; for chunk 0, initial-state construction).
	SiteAltProducer FaultSite = iota
	// SiteBody is the speculative chunk body.
	SiteBody
	// SiteOrigStates is original-state generation (including its replica
	// threads, and the replicas a boundary builds on demand).
	SiteOrigStates
	// SiteReexec is recovery re-execution from the true predecessor state.
	SiteReexec
	// SiteAssemble (the producer side: the program's Initial, built as
	// Push dispatches chunk 0) and SiteCommit are the pipeline's non-worker
	// sites; they exist for recovery only, never for injection.
	SiteAssemble
	SiteCommit
	// SiteProc is an out-of-process chunk executor failing as a whole —
	// the worker process died, was killed when its context ended, or
	// returned a reply that would not parse. The attempt is retried against a fresh
	// process; after the budget the chunk degrades to the in-process
	// path.
	SiteProc

	numSites
)

var siteNames = [numSites]string{
	SiteAltProducer: "alt-producer",
	SiteBody:        "body",
	SiteOrigStates:  "orig-states",
	SiteReexec:      "reexec",
	SiteAssemble:    "assemble",
	SiteCommit:      "commit",
	SiteProc:        "proc",
}

// String returns the site's name.
func (s FaultSite) String() string {
	if s >= numSites {
		return "unknown"
	}
	return siteNames[s]
}

// ChunkFault describes one isolated fault: which chunk and protocol site
// faulted, on which execution attempt, and the panic value (or the error
// an executor returned) with its stack.
type ChunkFault struct {
	Chunk   int
	Site    FaultSite
	Attempt int
	Panic   any
	Stack   []byte
}

// Error implements error.
func (f *ChunkFault) Error() string {
	return fmt.Sprintf("engine: chunk %d panic at %s (attempt %d): %v",
		f.Chunk, f.Site, f.Attempt, f.Panic)
}

// FaultError is the terminal session error: every retry and the final
// degraded sequential re-execution faulted too. The session stops with
// this structured error instead of crashing the process.
type FaultError struct {
	Fault *ChunkFault
}

// Error implements error.
func (e *FaultError) Error() string {
	return "engine: fault tolerance exhausted: " + e.Fault.Error()
}

// Unwrap exposes the underlying chunk fault to errors.As.
func (e *FaultError) Unwrap() error { return e.Fault }

// Injector is an optional Program extension consulted at each protocol
// site of each execution attempt; the faultinject package implements it
// to run deterministic chaos plans. Inject may panic (a crash fault) or
// return a replacement state (state corruption); returning s unchanged
// injects nothing. For cross-scheduler determinism an implementation must
// behave as a pure function of (site, chunk, attempt). s is nil at sites
// that carry no state.
type Injector interface {
	Inject(site FaultSite, chunk, attempt int, s State) State
}

// injectAt consults inj, tolerating nil injectors and nil-state sites.
func injectAt(inj Injector, site FaultSite, chunk, attempt int, s State) State {
	if inj == nil {
		return s
	}
	return inj.Inject(site, chunk, attempt, s)
}

// replicaFault carries a panic recovered on an original-state replica
// thread back to the owning worker, which re-raises it after the joins so
// the protocol's thread structure is undisturbed.
type replicaFault struct {
	val   any
	stack []byte
}

// runProtected executes fn, converting a panic into a *ChunkFault
// attributed to chunk/attempt and the site *site held when the panic
// fired (fn advances *site as it crosses protocol phases). It returns
// fn's own error when fn completes.
func runProtected(chunk, attempt int, site *FaultSite, fn func() error) (fault *ChunkFault, err error) {
	defer func() {
		r := recover()
		if r == nil {
			return
		}
		fault = &ChunkFault{Chunk: chunk, Site: *site, Attempt: attempt, Panic: r}
		if v, ok := r.(*replicaFault); ok {
			fault.Panic, fault.Stack = v.val, v.stack
		} else {
			fault.Stack = debug.Stack()
		}
	}()
	return nil, fn()
}

// stack captures the current goroutine's stack for fault reports.
func stack() []byte { return debug.Stack() }
