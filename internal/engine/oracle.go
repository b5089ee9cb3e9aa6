package engine

import (
	"gostats/internal/rng"
)

// OracleRegionCycles computes the makespan (in cycles) of an idealized
// execution of the STATS region: no runtime overhead, no synchronization,
// and every speculation committing. It is the reference the loss
// decomposition needs to separate imbalance, mispeculation, and
// unreachability (§III-E): the paper's "speedup obtainable if the
// parallelization added no computation or communication and all
// speculations commit".
//
// The update stream is executed for real (cheaply, without the simulator)
// along the same chunked lineages the STATS run would create, because the
// per-update cost can depend on the state (streamcluster converges faster
// when chunked, §V-C). Each chunk's time is the sum of its updates'
// serial cost plus parallel cost divided by the gang width; the overall
// time is bounded below by total work spread over all cores.
func OracleRegionCycles(p Program, inputs []Input, chunks, width, cores int, cpi float64, seed uint64) int64 {
	if len(inputs) == 0 || cores < 1 {
		return 0
	}
	if width < 1 {
		width = 1
	}
	bounds := Partition(len(inputs), chunks)
	root := rng.New(seed).Derive("oracle:" + p.Name())
	var total, maxChunk float64
	for j, b := range bounds {
		var s State
		if j == 0 {
			s = p.Initial(root.Derive("init"))
		} else {
			s = p.Fresh(root.DeriveN("fresh", j))
		}
		rr := root.DeriveN("chunk", j)
		var chunkCycles float64
		for _, in := range inputs[b[0]:b[1]] {
			uw := p.UpdateCost(in, s)
			s, _ = p.Update(s, in, rr)
			w := uw.Grain
			if w < 1 {
				w = 1
			}
			if w > width {
				w = width
			}
			chunkCycles += float64(float64(uw.Serial.Instr)*cpi) + float64(uw.Parallel.Instr)*cpi/float64(w)
			total += float64(float64(uw.Total()) * cpi)
		}
		if chunkCycles > maxChunk {
			maxChunk = chunkCycles
		}
	}
	capacity := total / float64(cores)
	t := maxChunk
	if capacity > t {
		t = capacity
	}
	return int64(t)
}

// MaxChunks returns the largest chunk count the oracle considers
// reachable for an input stream on the given machine: enough chunks to
// fill every core at the given gang width, but never more chunks than
// inputs (each chunk processes at least one input).
func MaxChunks(inputCount, cores, width int) int {
	if width < 1 {
		width = 1
	}
	c := cores / width
	if c < 1 {
		c = 1
	}
	if c > inputCount {
		c = inputCount
	}
	return c
}
