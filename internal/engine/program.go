package engine

import (
	"gostats/internal/machine"
	"gostats/internal/rng"
)

// State is an opaque computational state (the data carried by a state
// dependence).
type State = any

// Input is one element of the program's input stream.
type Input = any

// Output is the result of processing one input.
type Output = any

// StateDependence is the contract a program exposes to STATS, mirroring
// the information the paper's language extension captures (§II-A plus the
// pieces the middle-end compiler derives).
type StateDependence interface {
	// Name identifies the dependence (used for trace tags and stable
	// cache-region names).
	Name() string
	// Initial returns the program's initial state (the state the original
	// sequential code starts from).
	Initial(r *rng.Stream) State
	// Fresh returns a cold state for an alternative producer: a state
	// constructible without any input history (e.g. bodytrack's uniformly
	// distributed guesses when there is no previous frame).
	Fresh(r *rng.Stream) State
	// Update performs one state update: it consumes state s and input in,
	// returning the successor state and the output for in. Update owns s
	// and may mutate it. r is the source of the program's nondeterminism.
	// Update only borrows in: neither the state nor the output may keep a
	// reference into it once Update returns. A pipeline may decode a later
	// input into the storage in points to as soon as the chunk after in's
	// has committed (Pipeline.PushFrom), while an output is still queued
	// for its consumer.
	Update(s State, in Input, r *rng.Stream) (State, Output)
	// Clone deep-copies a state (the state-copy operator of §III-B).
	Clone(s State) State
	// Match reports whether two states are equivalent for commit purposes:
	// whether b could have been produced by a nondeterministic execution
	// that also produced a (the runtime's state comparison, §II-B).
	Match(a, b State) bool
	// StateBytes is the serialized size of one state (Table I), charged
	// for every copy.
	StateBytes() int64
}

// UpdateWork describes the simulated cost of one Update call.
type UpdateWork struct {
	// Serial is the unparallelizable part of the update.
	Serial machine.Work
	// Parallel is the part the program's original TLP can split across a
	// gang of threads.
	Parallel machine.Work
	// Grain bounds the useful gang width for this update (e.g. the number
	// of independent particles or simulation paths).
	Grain int
	// ShareJitter in [0,1) is the relative latency variation across gang
	// shares of this update (input-dependent imbalance, §III-A).
	ShareJitter float64
}

// Total returns serial plus parallel instructions.
func (u UpdateWork) Total() int64 { return u.Serial.Instr + u.Parallel.Instr }

// CostModel supplies native-scale costs for the simulated executor. A
// benchmark's real Go computation runs at reduced width; the cost model
// charges the full-scale equivalent (see DESIGN.md, "charged work vs
// executed work").
type CostModel interface {
	// UpdateCost returns the cost of Update(s, in, ...). It is consulted
	// before the update runs.
	UpdateCost(in Input, s State) UpdateWork
	// CompareCost returns the cost of one Match call.
	CompareCost() machine.Work
	// SetupWork returns the cost of allocating/initializing the runtime
	// support structures for the given chunk count (§III-B "Setup").
	SetupWork(chunks int) machine.Work
	// TeardownWork returns the cost of freeing them.
	TeardownWork(chunks int) machine.Work
	// PreRegionWork and PostRegionWork are the program's sequential code
	// outside the STATS region (§III-D).
	PreRegionWork() machine.Work
	PostRegionWork() machine.Work
}

// Program bundles the semantic and cost views of a benchmark.
type Program interface {
	StateDependence
	CostModel
}
