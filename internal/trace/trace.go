// Package trace records typed execution intervals and cross-thread
// happens-before edges from simulated (or native) runs of the STATS
// execution model.
//
// It mirrors the instrumentation the paper describes in §V-B: timestamps
// around each alternative producer, each original-state generation block,
// the setup block, each synchronization block, each state-copy block, each
// chunk of program computation, and the region boundaries. The post-mortem
// critical-path analysis (package critpath) consumes these traces.
package trace

import (
	"fmt"
	"sort"
)

// Category classifies a slice of a thread's execution time. The values
// correspond to the paper's overhead taxonomy (§III).
type Category int

const (
	// CatChunkWork is the actual program computation (dark boxes in the
	// paper's Fig. 2b): the original update() calls processing a chunk.
	CatChunkWork Category = iota
	// CatAltProducer is the computation of alternative producers that
	// generate speculative states (§III-B "Generating speculative states").
	CatAltProducer
	// CatOrigStates is the replicated computation that generates multiple
	// original states at the end of each chunk (§III-B).
	CatOrigStates
	// CatCompare is the comparison of speculative states against the
	// multiple original states (§III-B "State comparisons").
	CatCompare
	// CatSetup is allocation/initialization/teardown of the STATS runtime
	// support structures (§III-B "Setup").
	CatSetup
	// CatStateCopy is time spent cloning computational states
	// (§III-B "State copying").
	CatStateCopy
	// CatSyncKernel is the CPU cost of synchronization operations that
	// enter the kernel, e.g. waking another thread (§III-C).
	CatSyncKernel
	// CatSyncWait is time blocked at a synchronization point waiting for
	// data or signals (§III-C). Wait intervals are "flexible" for
	// critical-path what-ifs: their length is determined by the incoming
	// wake edge, not by intrinsic work.
	CatSyncWait
	// CatSchedWait is time spent runnable but not executing because the
	// core is oversubscribed (threads > cores, as in Table I).
	CatSchedWait
	// CatSeqCode is program code outside the region parallelized by STATS
	// (§III-D).
	CatSeqCode
	// CatReexec is chunk re-execution after a mispeculation abort (§III-E).
	CatReexec
	// CatSpawn is thread-creation overhead.
	CatSpawn
	numCategories
)

// NumCategories is the number of distinct interval categories.
const NumCategories = int(numCategories)

var categoryNames = [...]string{
	CatChunkWork:   "chunk-work",
	CatAltProducer: "alt-producer",
	CatOrigStates:  "orig-states",
	CatCompare:     "state-compare",
	CatSetup:       "setup",
	CatStateCopy:   "state-copy",
	CatSyncKernel:  "sync-kernel",
	CatSyncWait:    "sync-wait",
	CatSchedWait:   "sched-wait",
	CatSeqCode:     "sequential-code",
	CatReexec:      "reexecution",
	CatSpawn:       "spawn",
}

// String returns the category's human-readable name.
func (c Category) String() string {
	if c < 0 || int(c) >= NumCategories {
		return fmt.Sprintf("category(%d)", int(c))
	}
	return categoryNames[c]
}

// Flexible reports whether intervals of this category have schedule-
// determined (rather than intrinsic) duration. Flexible intervals shrink
// or stretch when a what-if analysis removes work elsewhere.
func (c Category) Flexible() bool { return c == CatSyncWait || c == CatSchedWait }

// Overhead reports whether the category counts as STATS-induced overhead
// (everything except the actual program computation).
func (c Category) Overhead() bool { return c != CatChunkWork && c != CatSeqCode }

// Interval is one contiguous span of a thread's time attributed to a
// category. Start and End are in simulated cycles.
type Interval struct {
	Thread int
	Cat    Category
	Start  int64
	End    int64
	// Tag carries free-form provenance, e.g. "chunk3" or "replica1".
	Tag string
}

// Duration returns the interval length in cycles.
func (iv Interval) Duration() int64 { return iv.End - iv.Start }

// EdgeKind labels a cross-thread happens-before edge.
type EdgeKind int

const (
	// EdgeSpawn orders thread creation before the child's first action.
	EdgeSpawn EdgeKind = iota
	// EdgeWake orders a signal/unlock before the waiter's resumption.
	EdgeWake
	// EdgeJoin orders a thread's completion before its joiner's resumption.
	EdgeJoin
	// EdgeCommit orders chunk commit decisions in program order.
	EdgeCommit
)

func (k EdgeKind) String() string {
	switch k {
	case EdgeSpawn:
		return "spawn"
	case EdgeWake:
		return "wake"
	case EdgeJoin:
		return "join"
	case EdgeCommit:
		return "commit"
	}
	return fmt.Sprintf("edge(%d)", int(k))
}

// Edge is a cross-thread happens-before constraint: the point (FromThread,
// FromTime) must precede (ToThread, ToTime).
type Edge struct {
	Kind       EdgeKind
	FromThread int
	FromTime   int64
	ToThread   int
	ToTime     int64
}

// Trace is the complete record of one simulated run.
type Trace struct {
	Intervals []Interval
	Edges     []Edge
	// Threads is the number of threads that appear in the trace.
	Threads int
	// Span is the observed makespan in cycles.
	Span int64

	// lastIdx maps a thread to its most recently recorded interval so
	// adjacent same-category slices (quantum-granular execution) merge
	// into one interval instead of thousands.
	lastIdx map[int]int
}

// New returns an empty trace.
func New() *Trace { return &Trace{} }

// Record appends an interval. Zero-length intervals are dropped.
func (t *Trace) Record(thread int, cat Category, start, end int64, tag string) {
	if end < start {
		panic(fmt.Sprintf("trace: interval ends (%d) before it starts (%d)", end, start))
	}
	if end == start {
		return
	}
	if t.lastIdx == nil {
		t.lastIdx = make(map[int]int)
	}
	if li, ok := t.lastIdx[thread]; ok {
		last := &t.Intervals[li]
		if last.Cat == cat && last.Tag == tag && last.End == start {
			last.End = end
			if end > t.Span {
				t.Span = end
			}
			return
		}
	}
	t.lastIdx[thread] = len(t.Intervals)
	t.Intervals = append(t.Intervals, Interval{Thread: thread, Cat: cat, Start: start, End: end, Tag: tag})
	if thread+1 > t.Threads {
		t.Threads = thread + 1
	}
	if end > t.Span {
		t.Span = end
	}
}

// AddEdge appends a cross-thread happens-before edge.
func (t *Trace) AddEdge(kind EdgeKind, fromThread int, fromTime int64, toThread int, toTime int64) {
	t.Edges = append(t.Edges, Edge{Kind: kind, FromThread: fromThread, FromTime: fromTime, ToThread: toThread, ToTime: toTime})
	if fromThread+1 > t.Threads {
		t.Threads = fromThread + 1
	}
	if toThread+1 > t.Threads {
		t.Threads = toThread + 1
	}
}

// CyclesByCategory sums interval durations per category.
func (t *Trace) CyclesByCategory() [NumCategories]int64 {
	var out [NumCategories]int64
	for _, iv := range t.Intervals {
		out[iv.Cat] += iv.Duration()
	}
	return out
}

// ThreadIntervals returns the intervals of one thread sorted by start
// time. The returned slice is freshly allocated.
func (t *Trace) ThreadIntervals(thread int) []Interval {
	var out []Interval
	for _, iv := range t.Intervals {
		if iv.Thread == thread {
			out = append(out, iv)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Start != out[j].Start {
			return out[i].Start < out[j].Start
		}
		return out[i].End < out[j].End
	})
	return out
}

// BusyCycles returns the total non-wait cycles across all threads.
func (t *Trace) BusyCycles() int64 {
	var total int64
	for _, iv := range t.Intervals {
		if !iv.Cat.Flexible() {
			total += iv.Duration()
		}
	}
	return total
}

// Validate checks internal consistency: non-negative times, intervals of a
// thread non-overlapping, edges pointing at plausible times.
func (t *Trace) Validate() error {
	for i, iv := range t.Intervals {
		if iv.Start < 0 || iv.End < iv.Start {
			return fmt.Errorf("trace: interval %d has invalid bounds [%d,%d]", i, iv.Start, iv.End)
		}
		if iv.Thread < 0 || iv.Thread >= t.Threads {
			return fmt.Errorf("trace: interval %d names unknown thread %d", i, iv.Thread)
		}
	}
	for th := 0; th < t.Threads; th++ {
		ivs := t.ThreadIntervals(th)
		for i := 1; i < len(ivs); i++ {
			if ivs[i].Start < ivs[i-1].End {
				return fmt.Errorf("trace: thread %d intervals overlap: [%d,%d] then [%d,%d]",
					th, ivs[i-1].Start, ivs[i-1].End, ivs[i].Start, ivs[i].End)
			}
		}
	}
	for i, e := range t.Edges {
		if e.FromTime < 0 || e.ToTime < 0 {
			return fmt.Errorf("trace: edge %d has negative time", i)
		}
		if e.FromTime > e.ToTime {
			return fmt.Errorf("trace: edge %d goes backwards in time (%d -> %d)", i, e.FromTime, e.ToTime)
		}
	}
	return nil
}
