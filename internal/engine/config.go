package engine

import "fmt"

// Config selects a point in the STATS design space (§II-B): how many
// parallel chunks to create, how many inputs alternative producers replay
// (the assumed short-memory length), how many extra original states the
// runtime generates at each chunk boundary, and how wide the program's
// original TLP runs inside each chunk. The autotuner (package autotune)
// searches this space.
type Config struct {
	// Chunks is the number of parallel chunks of computation (STATS
	// threads). 1 disables STATS parallelism.
	Chunks int
	// Lookback is k: the number of inputs an alternative producer
	// processes before the first input of its chunk.
	Lookback int
	// ExtraStates is the number of additional original states at each
	// chunk boundary (beyond the chunk's own final state). The simulated
	// machine generates them with every chunk; a native run builds them
	// when the boundary's final state misses.
	ExtraStates int
	// InnerWidth is the gang width for the program's original TLP inside
	// each update; 1 uses only STATS TLP. Only an executor that charges
	// cost runs a gang: on a cost-free one the helpers would compute
	// nothing, so there the width is validated and otherwise ignored.
	InnerWidth int
	// Seed selects one nondeterministic execution.
	Seed uint64
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.Chunks < 1 {
		return fmt.Errorf("engine: Chunks must be >= 1, got %d", c.Chunks)
	}
	if c.Lookback < 1 {
		return fmt.Errorf("engine: Lookback must be >= 1, got %d", c.Lookback)
	}
	if c.ExtraStates < 0 {
		return fmt.Errorf("engine: ExtraStates must be >= 0, got %d", c.ExtraStates)
	}
	if c.InnerWidth < 1 {
		return fmt.Errorf("engine: InnerWidth must be >= 1, got %d", c.InnerWidth)
	}
	return nil
}

// Report describes one run of the execution model.
type Report struct {
	// Outputs are the program outputs in input order (semantics-preserving
	// per §II-B).
	Outputs []Output
	// Commits and Aborts count chunk speculation outcomes. The first
	// chunk always commits.
	Commits, Aborts int
	// Chunks is the number of chunks actually created (capped by the
	// input length).
	Chunks int
	// ThreadsCreated counts the simulated threads a run spawned: chunk
	// workers, gang helpers and original-state replicas (Table I), and
	// gang helpers for RunOriginal on the simulated machine. A native run
	// is the streaming pipeline, whose fixed pool spawns nothing per chunk
	// (it has no gang and replays the replicas, when a boundary needs
	// them, on the context that validates it): BatchScheduler and
	// StreamScheduler report 0.
	ThreadsCreated int
	// StatesCreated counts computational states materialized: initial,
	// fresh, and cloned states (Table I).
	StatesCreated int
	// StateBytes is the size of one state (Table I).
	StateBytes int64
}

// Partition splits n items into k contiguous chunks whose sizes differ by
// at most one; it returns [start, end) bounds. Every scheduler derives its
// chunk boundaries from it for bounded inputs, which is what makes batch,
// simulated, and (boundary-matching) streaming executions byte-identical.
func Partition(n, k int) [][2]int {
	if k > n {
		k = n
	}
	if k < 1 {
		k = 1
	}
	bounds := make([][2]int, k)
	base := n / k
	rem := n % k
	start := 0
	for i := 0; i < k; i++ {
		size := base
		if i < rem {
			size++
		}
		bounds[i] = [2]int{start, start + size}
		start += size
	}
	return bounds
}
