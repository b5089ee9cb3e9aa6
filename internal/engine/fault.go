package engine

import (
	"context"
	"fmt"
	"runtime/debug"
	"time"

	"gostats/internal/rng"
)

// This file is the engine's fault-tolerance layer. The STATS protocol
// already treats one failure mode — mispeculation — as routine: the chunk
// aborts and re-executes from the true predecessor state (§III-E). The
// fault layer extends that same squash-and-replay discipline to crashes
// and stalls: a panic inside the chunk body, the alternative producer, or
// original-state generation, or a chunk overrunning its execution
// deadline, becomes a chunk *fault* rather than a process death. Faulted
// attempts are retried with exponential backoff and jitter; when retries
// exhaust, the runtime degrades to sequential re-execution from the last
// committed state (the streaming frontier's recovery path, or the batch
// abort path), and only if that too faults does the whole session fail
// with a structured FaultError — the process itself never crashes.
//
// Determinism is preserved throughout: a retried attempt re-derives the
// same RNG substreams as the original (rng derivation is pure), so a
// successful attempt produces byte-identical committed outputs no matter
// how many faulted attempts preceded it.

// FaultPolicy configures per-chunk fault handling. The zero value enables
// panic isolation with the default retry budget and no deadline.
type FaultPolicy struct {
	// ChunkDeadline bounds one execution attempt of one chunk; an attempt
	// exceeding it faults (and is retried like a panic). 0 disables
	// deadlines.
	ChunkDeadline time.Duration
	// MaxRetries is the number of re-attempts after a faulted execution:
	// 0 means the default (DefaultMaxRetries), negative disables retries
	// (a single fault immediately degrades or aborts).
	MaxRetries int
	// RetryBase and RetryMax bound the exponential backoff between
	// attempts (base*2^attempt, jittered ±50%, capped at max). Zero
	// values take the defaults.
	RetryBase, RetryMax time.Duration
}

// Fault-policy defaults.
const (
	DefaultMaxRetries = 2
	DefaultRetryBase  = time.Millisecond
	DefaultRetryMax   = 250 * time.Millisecond
)

// normalized maps the zero value onto defaults and negative MaxRetries
// onto zero retries.
func (f FaultPolicy) normalized() FaultPolicy {
	switch {
	case f.MaxRetries == 0:
		f.MaxRetries = DefaultMaxRetries
	case f.MaxRetries < 0:
		f.MaxRetries = 0
	}
	if f.RetryBase <= 0 {
		f.RetryBase = DefaultRetryBase
	}
	if f.RetryMax <= 0 {
		f.RetryMax = DefaultRetryMax
	}
	if f.RetryMax < f.RetryBase {
		f.RetryMax = f.RetryBase
	}
	return f
}

// validate reports configuration errors; scope names the embedding
// config in the message.
func (f FaultPolicy) validate(scope string) error {
	if f.ChunkDeadline < 0 {
		return fmt.Errorf("%s: Fault.ChunkDeadline must be >= 0, got %s", scope, f.ChunkDeadline)
	}
	if f.RetryBase < 0 || f.RetryMax < 0 {
		return fmt.Errorf("%s: negative Fault.RetryBase/RetryMax", scope)
	}
	return nil
}

// backoff returns the delay before re-attempt attempt+1: exponential in
// the attempt index, jittered ±50%, capped at RetryMax. The jitter
// draw comes from a stream derived from parent with the attempt index
// folded into the label, so consecutive retries of one chunk get
// independent jitter (deriving the same label fresh each attempt would
// replay the same first draw every time) while a recorded fault plan
// still replays every delay bit for bit: the whole schedule is a pure
// function of (seed, chunk, attempt).
func (f FaultPolicy) backoff(attempt int, parent *rng.Stream) time.Duration {
	d := f.RetryBase
	for i := 0; i < attempt && d < f.RetryMax; i++ {
		d *= 2
	}
	if d > f.RetryMax {
		d = f.RetryMax
	}
	// Jitter into [d/2, 3d/2), then re-cap.
	jit := parent.DeriveN("faultbackoff", attempt)
	d = d/2 + time.Duration(jit.Float64()*float64(d))
	if d > f.RetryMax {
		d = f.RetryMax
	}
	return d
}

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
	// the worker process died, hung past the deadline, or returned a
	// reply that would not parse. The attempt is retried against a fresh
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
// faulted, on which execution attempt, and whether it was a panic (Panic,
// Stack) or a missed deadline (Deadline).
type ChunkFault struct {
	Chunk    int
	Site     FaultSite
	Attempt  int
	Deadline bool
	Panic    any
	Stack    []byte
}

// Error implements error.
func (f *ChunkFault) Error() string {
	if f.Deadline {
		return fmt.Sprintf("engine: chunk %d deadline exceeded (site %s, attempt %d)",
			f.Chunk, f.Site, f.Attempt)
	}
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
// to run deterministic chaos plans. Inject may panic (a crash fault),
// sleep (a stall, caught by ChunkDeadline), or return a replacement state
// (state corruption); returning s unchanged injects nothing. For
// cross-scheduler determinism an implementation must behave as a pure
// function of (site, chunk, attempt). s is nil at sites that carry no
// state.
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

// deadlineExceeded is the panic sentinel the deadline guard raises; the
// recovery wrapper converts it into a deadline fault rather than a panic
// fault.
type deadlineExceeded struct{}

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
		f := &ChunkFault{Chunk: chunk, Site: *site, Attempt: attempt}
		switch v := r.(type) {
		case deadlineExceeded:
			f.Deadline = true
		case *replicaFault:
			if _, ok := v.val.(deadlineExceeded); ok {
				f.Deadline = true
			} else {
				f.Panic, f.Stack = v.val, v.stack
			}
		default:
			f.Panic, f.Stack = r, debug.Stack()
		}
		fault = f
	}()
	return nil, fn()
}

// deadlineProgram wraps a Program so every Update checks the attempt's
// wall-clock deadline first, panicking with the deadline sentinel on
// overrun; the protocol's recovery wrapper converts that into a deadline
// fault. Only Update is intercepted — cost, lifecycle, and identity
// delegate untouched.
type deadlineProgram struct {
	Program
	deadline time.Time
}

func (d *deadlineProgram) Update(s State, in Input, r *rng.Stream) (State, Output) {
	//statslint:allow detpath deadline guard is intentionally wall-clock; overruns become faults whose recovery preserves committed outputs
	if time.Now().After(d.deadline) {
		panic(deadlineExceeded{})
	}
	return d.Program.Update(s, in, r)
}

// guardProgram arms a fresh attempt deadline around p, or returns p
// itself when deadlines are disabled (the fault-free hot path pays
// nothing).
func guardProgram(p Program, deadline time.Duration) Program {
	if deadline <= 0 {
		return p
	}
	//statslint:allow detpath arming the wall-clock attempt deadline; see deadlineProgram.Update
	return &deadlineProgram{Program: p, deadline: time.Now().Add(deadline)}
}

// stack captures the current goroutine's stack for fault reports.
func stack() []byte { return debug.Stack() }

// sleepCtx sleeps for d or until ctx is done; it reports whether the full
// delay elapsed.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	if d <= 0 {
		return true
	}
	//statslint:allow detpath backoff sleep timer: no timer value reaches committed outputs
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	}
}
