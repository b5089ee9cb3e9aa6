// Package streamcluster reproduces the PARSEC streamcluster workload: a
// streaming k-median clusterer over a stream of multidimensional points
// whose cluster structure drifts over time.
//
// The computational state is the set of k=3 running centers (4 dimensions
// each) plus the processed-point count: 13 float64 = 104 bytes, matching
// Table I. Each input is a block of points; Update assigns points to the
// nearest center with a count-decayed learning rate and occasionally
// reseeds the worst center at an outlier point (the randomized facility
// opening of online facility location — the program's nondeterminism).
//
// The short-memory property holds because the data drifts: the centers
// that explain *recent* points are determined by recent blocks only.
//
// Cost is state-dependent, reproducing the paper's §V-C observation that
// the STATS version executes FEWER instructions than the original: a
// long sequential lineage has a huge point count, so its learning rate is
// frozen and drift keeps triggering expensive reseed-and-reassign events;
// chunk-local lineages stay adaptive and avoid that work.
package streamcluster

import (
	"math"

	"gostats/internal/bench"
	"gostats/internal/engine"
	"gostats/internal/machine"
	"gostats/internal/memsim"
	"gostats/internal/rng"
)

func init() { bench.Register("streamcluster", func() bench.Benchmark { return New() }) }

const (
	k    = 3 // centers
	dims = 4
)

// Params sizes the workload.
type Params struct {
	// Blocks is the number of stream blocks (inputs).
	Blocks int
	// RealPointsPerBlock is the number of points actually clustered;
	// NativePointsPerBlock is the charged count.
	RealPointsPerBlock   int
	NativePointsPerBlock int64
	// Drift is the per-block movement of the hidden cluster centers.
	Drift float64
	// ReseedProb is the probability an outlier point reseeds a center.
	ReseedProb float64
	// MatchTol is the commit tolerance on center distance.
	MatchTol float64
}

// Default returns the native-scale parameters (the paper extends the
// native inputs per [31]).
func Default() Params {
	return Params{
		Blocks:               2800,
		RealPointsPerBlock:   10,
		NativePointsPerBlock: 800,
		Drift:                0.02,
		ReseedProb:           0.25,
		MatchTol:             0.60,
	}
}

// Training returns the autotuning workload: different data at a
// comparable scale, so lineage-aging effects appear during tuning too.
func Training() Params {
	p := Default()
	p.Blocks = 2000
	return p
}

// Block is one input: a batch of points drawn around the hidden centers.
type Block struct {
	Points [][dims]float64
	// Truth is the hidden cluster-center snapshot for quality scoring.
	Truth [k][dims]float64
}

// clusterState is the 104-byte state (Table I).
type clusterState struct {
	centers [k][dims]float64
	n       float64
	// lag is an EMA of the recent block cost: a stale lineage trails the
	// moving clusters, pays reseed-and-reassign work, and therefore costs
	// more per block — the mechanism behind §V-C's finding that the
	// chunk-local STATS lineages execute fewer instructions.
	lag float64
}

// StreamCluster is the benchmark implementation.
type StreamCluster struct {
	p Params
}

// New builds the native-scale benchmark.
func New() *StreamCluster { return NewWithParams(Default()) }

// NewWithParams builds a custom-scale benchmark.
func NewWithParams(p Params) *StreamCluster { return &StreamCluster{p: p} }

// Name implements engine.Program.
func (s *StreamCluster) Name() string { return "streamcluster" }

// Describe implements bench.Benchmark.
func (s *StreamCluster) Describe() string {
	return "streaming k-median clustering (PARSEC) with randomized center reseeding"
}

// Initial spreads the centers over the unit cube deterministically, like
// the original's first-k initialization.
func (s *StreamCluster) Initial(r *rng.Stream) engine.State {
	st := &clusterState{}
	for i := 0; i < k; i++ {
		for d := 0; d < dims; d++ {
			st.centers[i][d] = float64(i) / k
		}
	}
	return st
}

// Fresh starts with the same cold layout: the clusterer needs no history.
func (s *StreamCluster) Fresh(r *rng.Stream) engine.State { return s.Initial(r) }

func dist2(a, b [dims]float64) float64 {
	var sum float64
	for d := 0; d < dims; d++ {
		diff := a[d] - b[d]
		sum += float64(diff * diff)
	}
	return sum
}

// Update clusters one block of points.
func (s *StreamCluster) Update(stv engine.State, in engine.Input, r *rng.Stream) (engine.State, engine.Output) {
	st := stv.(*clusterState)
	blk := in.(Block)
	var cost float64
	for _, p := range blk.Points {
		// Nearest center.
		best, bestD := 0, math.Inf(1)
		for i := 0; i < k; i++ {
			if d := dist2(p, st.centers[i]); d < bestD {
				best, bestD = i, d
			}
		}
		cost += math.Sqrt(bestD)
		// Count-decayed learning rate: a long lineage slows to a crawl
		// (floored so the sequential program remains usable, merely slow
		// to follow the moving clusters).
		lr := 1.0 / (1.0 + st.n/40.0)
		if lr < 0.006 {
			lr = 0.006
		}
		for d := 0; d < dims; d++ {
			st.centers[best][d] += float64(lr * (p[d] - st.centers[best][d]))
		}
		st.n++
		// Outlier: randomized reseeding (facility opening).
		if bestD > 0.18 && r.Bool(s.p.ReseedProb) {
			// Reseed the center farthest from this point.
			worst, worstD := 0, -1.0
			for i := 0; i < k; i++ {
				if d := dist2(p, st.centers[i]); d > worstD {
					worst, worstD = i, d
				}
			}
			st.centers[worst] = p
		}
	}
	avg := cost / float64(len(blk.Points))
	st.lag = float64(0.85*st.lag) + float64(0.15*avg)
	return st, BlockCost{Cost: avg}
}

// BlockCost is the output per block: the mean point-to-center distance.
type BlockCost struct{ Cost float64 }

// Clone copies the state.
func (s *StreamCluster) Clone(stv engine.State) engine.State {
	c := *stv.(*clusterState)
	return &c
}

// CloneInto implements engine.StateRecycler.
func (s *StreamCluster) CloneInto(dst, src engine.State) engine.State {
	d, ok := dst.(*clusterState)
	if !ok {
		return s.Clone(src)
	}
	*d = *src.(*clusterState)
	return d
}

// Match compares center sets under the best of all k! assignments (k=3:
// 6 permutations), ignoring the count.
func (s *StreamCluster) Match(a, b engine.State) bool {
	sa, sb := a.(*clusterState), b.(*clusterState)
	perms := [][k]int{{0, 1, 2}, {0, 2, 1}, {1, 0, 2}, {1, 2, 0}, {2, 0, 1}, {2, 1, 0}}
	best := math.Inf(1)
	for _, pm := range perms {
		var sum float64
		for i := 0; i < k; i++ {
			sum += math.Sqrt(dist2(sa.centers[i], sb.centers[pm[i]]))
		}
		if sum < best {
			best = sum
		}
	}
	return best <= s.p.MatchTol
}

// StateBytes is 104: 3 centers x 4 dims + count (Table I).
func (s *StreamCluster) StateBytes() int64 { return 104 }

// clusterProfile targets the paper's streamcluster rates (Table II):
// L1D ~32%, L2 ~20%, LLC ~28%, BR ~13.5%. Point blocks churn through an
// L2-resident window while reassignment walks a buffer larger than the
// LLC.
var clusterProfile = memsim.AccessProfile{
	Name:    "streamcluster.assign",
	MemFrac: 0.42,
	Regions: []memsim.RegionRef{
		{Name: "streamcluster.centers", Bytes: 8 << 10, Frac: 0.62},
		{Name: "streamcluster.window", Bytes: 192 << 10, Frac: 0.315},
		{Name: "streamcluster.points", Bytes: 48 << 20, Frac: 0.065},
	},
	BranchFrac:  0.16,
	BranchBias:  0.87,
	BranchSites: 24,
}

// UpdateCost charges the native block: distance evaluations over
// NativePointsPerBlock points, inflated by the state's instability (the
// reseed-and-reassign work of the original program).
func (s *StreamCluster) UpdateCost(in engine.Input, stv engine.State) engine.UpdateWork {
	factor := 1.0
	if st, ok := stv.(*clusterState); ok {
		if excess := st.lag - 0.13; excess > 0 {
			factor += float64(2.5 * excess)
		}
	}
	instr := int64(float64(s.p.NativePointsPerBlock*dims*k*48) * factor)
	serial := int64(float64(instr) * 0.30) // center updates and bookkeeping
	return engine.UpdateWork{
		Serial:      machine.Work{Instr: serial, Access: &clusterProfile},
		Parallel:    machine.Work{Instr: instr - serial, Access: &clusterProfile},
		Grain:       8,
		ShareJitter: 0.12,
	}
}

// CompareCost covers the 6-permutation 104-byte comparison.
func (s *StreamCluster) CompareCost() machine.Work { return machine.Work{Instr: 4_000} }

// SetupWork models the runtime structure allocation.
func (s *StreamCluster) SetupWork(chunks int) machine.Work {
	return machine.Work{Instr: 150_000 + int64(chunks)*30_000}
}

// TeardownWork frees it.
func (s *StreamCluster) TeardownWork(chunks int) machine.Work {
	return machine.Work{Instr: 40_000 + int64(chunks)*8_000}
}

// PreRegionWork is the stream setup and input parsing: substantial, per
// the paper's finding that streamcluster is limited by code outside the
// STATS region.
func (s *StreamCluster) PreRegionWork() machine.Work { return machine.Work{Instr: 70_000_000} }

// PostRegionWork writes the clustering output.
func (s *StreamCluster) PostRegionWork() machine.Work { return machine.Work{Instr: 35_000_000} }

// Inputs generates the native stream from 3 drifting Gaussian clusters.
func (s *StreamCluster) Inputs(r *rng.Stream) []engine.Input {
	return s.inputs(r.Derive("native"), s.p.Blocks)
}

// TrainingInputs is a different stream at ~3/4 scale.
func (s *StreamCluster) TrainingInputs(r *rng.Stream) []engine.Input {
	return s.inputs(r.Derive("training"), s.p.Blocks*3/4)
}

func (s *StreamCluster) inputs(r *rng.Stream, blocks int) []engine.Input {
	var truth [k][dims]float64
	for i := 0; i < k; i++ {
		for d := 0; d < dims; d++ {
			truth[i][d] = r.Float64()
		}
	}
	// Clusters move with persistent velocities, so a frozen lineage
	// accumulates lag linearly rather than diffusively.
	var vel [k][dims]float64
	ins := make([]engine.Input, blocks)
	for b := 0; b < blocks; b++ {
		for i := 0; i < k; i++ {
			for d := 0; d < dims; d++ {
				vel[i][d] = float64(0.98*vel[i][d]) + float64(0.04*s.p.Drift*r.NormFloat64())
				truth[i][d] += vel[i][d]
			}
		}
		blk := Block{Points: make([][dims]float64, s.p.RealPointsPerBlock), Truth: truth}
		for j := range blk.Points {
			c := truth[r.Intn(k)]
			for d := 0; d < dims; d++ {
				blk.Points[j][d] = c[d] + float64(0.05*r.NormFloat64())
			}
		}
		ins[b] = blk
	}
	return ins
}

// Quality is minus the mean block cost over the final quarter of the
// stream (the paper's clustering-cost metric, negated so higher is
// better).
func (s *StreamCluster) Quality(outputs []engine.Output) float64 {
	if len(outputs) == 0 {
		return math.Inf(-1)
	}
	start := len(outputs) * 3 / 4
	var sum float64
	n := 0
	for _, o := range outputs[start:] {
		sum += o.(BlockCost).Cost
		n++
	}
	return -sum / float64(n)
}

// MaxInnerWidth: the pthread streamcluster parallelizes point
// assignment, with a large serial merge fraction.
func (s *StreamCluster) MaxInnerWidth() int { return 8 }
