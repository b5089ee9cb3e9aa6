package autotune

import "fmt"

// The offline tuner (Tune) reproduces OpenTuner's role in the paper: a
// search over the STATS design space against a profiled objective. A
// long-running streaming deployment (engine.Pipeline) cannot afford that
// loop per session, but it observes the one signal the offline objective
// only estimates — the actual commit/abort outcome of every chunk. Online
// is the feedback half of the tuner: a deterministic controller that
// retunes the chunk size from those outcomes while the pipeline runs.
//
// The rule follows the paper's speculation economics (§II-B, §III-E):
// aborts waste a whole chunk of re-execution, so a mispeculation spike is
// answered by growing chunks (fewer, cheaper-to-validate boundaries, more
// lookback amortization), while a clean commit streak shrinks chunks back
// toward the lower bound to expose more parallelism. The rule is fixed:
// its constants below and its bounds, a quarter to four times the
// initial size, are not configuration. Decisions are a pure function of
// the outcome sequence — no clocks, no sampling — so a pipeline that
// feeds outcomes in commit order stays bit-reproducible.
const (
	epoch     = 8    // outcomes per decision epoch
	abortHigh = 0.25 // epoch abort rate at or above which the size grows
	abortLow  = 0.05 // epoch abort rate at or below which the size shrinks
	step      = 1.5  // multiplicative resize factor
)

// bounds is the range the controller keeps a session of initial size
// within: a quarter to four times it, never below one input.
func bounds(initial int) (lo, hi int) { return max(1, initial/4), 4 * initial }

// Online retunes the streaming chunk size from commit/abort outcomes. It
// is NOT goroutine-safe by design: determinism requires a single owner
// (the pipeline's producer, inside Push) that records outcomes in commit
// order and reads ChunkSize at deterministic points between records.
type Online struct {
	lo, hi   int // bounds(initial size)
	size     int
	epochN   int // outcomes in the current epoch
	aborts   int // aborts in the current epoch
	outcomes int // total outcomes recorded (trajectory x-axis)
	resizes  int
	history  []SizeChange
}

// SizeChange is one point of the controller's chunk-size trajectory:
// after Outcome recorded chunk outcomes, the size became Size. The first
// entry is always {0, initial size}.
type SizeChange struct {
	Outcome int `json:"outcome"`
	Size    int `json:"size"`
}

// historyCap bounds the retained trajectory; a pathological oscillation
// drops its oldest points rather than growing without bound.
const historyCap = 512

// NewOnline builds a controller that starts at initial inputs a chunk.
func NewOnline(initial int) (*Online, error) {
	if initial < 1 {
		return nil, fmt.Errorf("autotune: online initial size must be >= 1, got %d", initial)
	}
	lo, hi := bounds(initial)
	return &Online{lo: lo, hi: hi, size: initial, history: []SizeChange{{Outcome: 0, Size: initial}}}, nil
}

// Record feeds one chunk outcome (in commit order) and reports whether it
// changed the chunk size. Every epoch outcomes the controller closes the
// epoch and may resize.
func (o *Online) Record(committed bool) bool {
	o.epochN++
	o.outcomes++
	if !committed {
		o.aborts++
	}
	if o.epochN < epoch {
		return false
	}
	rate := float64(o.aborts) / float64(o.epochN)
	o.epochN, o.aborts = 0, 0
	next := o.size
	switch {
	case rate >= abortHigh:
		next = min(int(float64(float64(o.size)*step)+0.5), o.hi)
	case rate <= abortLow:
		next = max(int(float64(o.size)/step), o.lo)
	}
	if next == o.size {
		return false
	}
	o.size = next
	o.resizes++
	if len(o.history) >= historyCap {
		o.history = o.history[1:]
	}
	o.history = append(o.history, SizeChange{Outcome: o.outcomes, Size: next})
	return true
}

// ChunkSize returns the size the next chunk should use.
func (o *Online) ChunkSize() int { return o.size }

// Resizes returns how many times the controller changed the chunk size.
func (o *Online) Resizes() int { return o.resizes }

// History returns a copy of the chunk-size trajectory: the initial size
// plus one point per resize, capped at the most recent 512 changes. Like
// every other accessor it must be read by the controller's single owner
// (or after the pipeline drained).
func (o *Online) History() []SizeChange {
	return append([]SizeChange(nil), o.history...)
}

// OnlineState is the controller's complete resumable state: everything a
// restored controller needs to make the exact same decisions a
// never-interrupted one would, given the same outcome suffix. It is part
// of the checkpoint snapshot payload (internal/checkpoint).
type OnlineState struct {
	Size     int          `json:"size"`
	EpochN   int          `json:"epoch_n"`
	Aborts   int          `json:"aborts"`
	Outcomes int          `json:"outcomes"`
	Resizes  int          `json:"resizes"`
	History  []SizeChange `json:"history"`
}

// Snapshot captures the controller state. Like every accessor it must be
// called by the controller's single owner.
func (o *Online) Snapshot() *OnlineState {
	return &OnlineState{
		Size:     o.size,
		EpochN:   o.epochN,
		Aborts:   o.aborts,
		Outcomes: o.outcomes,
		Resizes:  o.resizes,
		History:  append([]SizeChange(nil), o.history...),
	}
}

// RestoreOnline rebuilds a controller from a snapshot so that feeding it
// the outcome suffix of an interrupted session reproduces the exact
// decision sequence of the uninterrupted one. initial must be the
// session's initial size (the snapshot holds decisions, not bounds).
func RestoreOnline(initial int, st *OnlineState) (*Online, error) {
	o, err := NewOnline(initial)
	if err != nil || st == nil {
		return o, err
	}
	if st.Size < o.lo || st.Size > o.hi {
		return nil, fmt.Errorf("autotune: restored size %d outside [%d, %d]", st.Size, o.lo, o.hi)
	}
	if st.EpochN < 0 || st.EpochN >= epoch || st.Aborts < 0 || st.Aborts > st.EpochN {
		return nil, fmt.Errorf("autotune: restored epoch counters invalid (epoch_n=%d aborts=%d epoch=%d)", st.EpochN, st.Aborts, epoch)
	}
	o.size, o.epochN, o.aborts = st.Size, st.EpochN, st.Aborts
	o.outcomes, o.resizes = st.Outcomes, st.Resizes
	if len(st.History) > 0 {
		o.history = append([]SizeChange(nil), st.History...)
	}
	return o, nil
}
