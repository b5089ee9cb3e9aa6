package memsim

import (
	"fmt"

	"gostats/internal/rng"
)

// Config sizes the simulated memory system. DefaultConfig matches the
// paper's platform (Intel Xeon E5-2695 v3, §IV-A): 32 KB 8-way L1D and
// 256 KB 8-way L2 per core, a 35 MB 20-way LLC per socket, 64 B lines.
type Config struct {
	Cores   int
	Sockets int
	L1D     CacheConfig
	L2      CacheConfig
	LLC     CacheConfig
	// Latencies in cycles for a hit at each level and for main memory.
	L1Lat, L2Lat, LLCLat, MemLat int64
	// MispredictPenalty is the pipeline refill cost of a branch
	// misprediction, in cycles.
	MispredictPenalty int64
	// StallOverlap in [0,1] is the fraction of miss/mispredict latency
	// that out-of-order execution fails to hide (1 = fully exposed).
	StallOverlap float64
	// SampleCap bounds the synthetic accesses simulated per work unit.
	SampleCap int
	// PredictorBits sizes the gshare table (2^bits counters).
	PredictorBits uint
	Seed          uint64
}

// DefaultConfig returns the paper-platform memory system for the given
// core/socket counts.
func DefaultConfig(cores, sockets int) Config {
	return Config{
		Cores:   cores,
		Sockets: sockets,
		L1D:     CacheConfig{SizeBytes: 32 << 10, LineBytes: 64, Ways: 8},
		L2:      CacheConfig{SizeBytes: 256 << 10, LineBytes: 64, Ways: 8},
		// 35 MB is not a power-of-two set count at 20 ways; use the
		// nearest well-formed geometry (32 MB, 16-way).
		LLC:               CacheConfig{SizeBytes: 32 << 20, LineBytes: 64, Ways: 16},
		L1Lat:             4,
		L2Lat:             12,
		LLCLat:            34,
		MemLat:            200,
		MispredictPenalty: 15,
		StallOverlap:      0.35,
		SampleCap:         2048,
		PredictorBits:     14,
		Seed:              1,
	}
}

// Counters aggregates event counts over all cores, the way the paper sums
// per-core hardware counters for Table II.
type Counters struct {
	L1DAccesses float64
	L1DMisses   float64
	L2Accesses  float64
	L2Misses    float64
	LLCAccesses float64
	LLCMisses   float64
	Branches    float64
	Mispredicts float64
}

// Add accumulates other into c.
func (c *Counters) Add(other Counters) {
	c.L1DAccesses += other.L1DAccesses
	c.L1DMisses += other.L1DMisses
	c.L2Accesses += other.L2Accesses
	c.L2Misses += other.L2Misses
	c.LLCAccesses += other.LLCAccesses
	c.LLCMisses += other.LLCMisses
	c.Branches += other.Branches
	c.Mispredicts += other.Mispredicts
}

// Rate helpers return miss ratios; they are 0 when there were no accesses.
func ratio(m, a float64) float64 {
	if a == 0 {
		return 0
	}
	return m / a
}

// L1DRate returns the L1D miss ratio.
func (c Counters) L1DRate() float64 { return ratio(c.L1DMisses, c.L1DAccesses) }

// L2Rate returns the L2 miss ratio.
func (c Counters) L2Rate() float64 { return ratio(c.L2Misses, c.L2Accesses) }

// LLCRate returns the LLC miss ratio.
func (c Counters) LLCRate() float64 { return ratio(c.LLCMisses, c.LLCAccesses) }

// BranchRate returns the branch misprediction ratio.
func (c Counters) BranchRate() float64 { return ratio(c.Mispredicts, c.Branches) }

// Result reports the architectural cost of one unit of work.
type Result struct {
	// ExtraCycles is the exposed stall time to add to the work's base
	// latency.
	ExtraCycles int64
	Counters    Counters
}

// System is the simulated memory hierarchy for one machine.
type System struct {
	cfg Config
	l1d []*cache
	l2  []*cache
	llc []*cache // one per socket
	bp  []*gshare

	// regionBase assigns stable, non-overlapping base addresses to named
	// regions.
	regionBase map[string]uint64
	nextBase   uint64
	// cursors tracks per-(core, region) positions for strided walks.
	cursors map[cursorKey]int64

	rnd    *rng.Stream
	totals Counters
}

type cursorKey struct {
	core   int
	region string
}

// NewSystem builds a System from cfg.
func NewSystem(cfg Config) (*System, error) {
	if cfg.Cores <= 0 || cfg.Sockets <= 0 || cfg.Cores%cfg.Sockets != 0 {
		return nil, fmt.Errorf("memsim: invalid topology %d cores / %d sockets", cfg.Cores, cfg.Sockets)
	}
	for _, v := range []struct {
		name string
		c    CacheConfig
	}{{"L1D", cfg.L1D}, {"L2", cfg.L2}, {"LLC", cfg.LLC}} {
		if err := v.c.validate(v.name); err != nil {
			return nil, err
		}
	}
	if cfg.SampleCap <= 0 {
		return nil, fmt.Errorf("memsim: SampleCap must be positive")
	}
	s := &System{
		cfg:        cfg,
		regionBase: make(map[string]uint64),
		cursors:    make(map[cursorKey]int64),
		rnd:        rng.New(cfg.Seed).Derive("memsim"),
		// Keep regions far apart and off address zero.
		nextBase: 1 << 30,
	}
	for i := 0; i < cfg.Cores; i++ {
		s.l1d = append(s.l1d, newCache(cfg.L1D))
		s.l2 = append(s.l2, newCache(cfg.L2))
		s.bp = append(s.bp, newGshare(cfg.PredictorBits))
	}
	for i := 0; i < cfg.Sockets; i++ {
		s.llc = append(s.llc, newCache(cfg.LLC))
	}
	return s, nil
}

// MustNewSystem is NewSystem that panics on configuration errors.
func MustNewSystem(cfg Config) *System {
	s, err := NewSystem(cfg)
	if err != nil {
		panic(err)
	}
	return s
}

// socketOf maps a core to its socket (cores are split contiguously).
func (s *System) socketOf(core int) int {
	perSocket := s.cfg.Cores / s.cfg.Sockets
	return core / perSocket
}

// base returns the stable base address of a named region, assigning one on
// first use. Regions are aligned and padded so distinct names never share
// cache lines.
func (s *System) base(name string, size int64) uint64 {
	if b, ok := s.regionBase[name]; ok {
		return b
	}
	b := s.nextBase
	s.regionBase[name] = b
	pad := uint64(size) + 4096
	pad = (pad + 4095) &^ 4095
	s.nextBase += pad
	return b
}

// Process simulates instr instructions of work with profile p on the given
// core, returning exposed stall cycles and the extrapolated event counts.
// It also accumulates the counts into the system totals.
func (s *System) Process(core int, instr int64, p AccessProfile) Result {
	if core < 0 || core >= s.cfg.Cores {
		panic(fmt.Sprintf("memsim: core %d out of range", core))
	}
	if instr <= 0 {
		return Result{}
	}
	res := s.processMemory(core, instr, p)
	br := s.processBranches(core, instr, p)
	res.Counters.Add(br.Counters)
	res.ExtraCycles += br.ExtraCycles
	s.totals.Add(res.Counters)
	return res
}

func (s *System) processMemory(core int, instr int64, p AccessProfile) Result {
	totalAccesses := float64(instr) * p.MemFrac
	if totalAccesses < 1 || len(p.Regions) == 0 {
		return Result{}
	}
	samples := int64(totalAccesses)
	if samples > int64(s.cfg.SampleCap) {
		samples = int64(s.cfg.SampleCap)
	}
	scale := totalAccesses / float64(samples)

	l1 := s.l1d[core]
	l2 := s.l2[core]
	llc := s.llc[s.socketOf(core)]
	var l1a, l1m, l2a, l2m, l3a, l3m uint64

	// Precompute cumulative fractions for region selection.
	var cum []float64
	sum := 0.0
	for _, r := range p.Regions {
		sum += r.Frac
		cum = append(cum, sum)
	}
	if sum <= 0 {
		return Result{}
	}
	for i := int64(0); i < samples; i++ {
		x := s.rnd.Float64() * sum
		ri := 0
		for ri < len(cum)-1 && x > cum[ri] {
			ri++
		}
		r := p.Regions[ri]
		base := s.base(r.Name, r.Bytes)
		var addr uint64
		if r.Stride > 0 {
			k := cursorKey{core: core, region: r.Name}
			pos := s.cursors[k]
			addr = base + uint64(pos)
			pos += r.Stride
			if pos >= r.Bytes {
				pos = 0
			}
			s.cursors[k] = pos
		} else {
			addr = base + uint64(s.rnd.Int63()%maxi64(r.Bytes, 1))
		}
		l1a++
		if l1.access(addr) {
			continue
		}
		l1m++
		l2a++
		if l2.access(addr) {
			continue
		}
		l2m++
		l3a++
		if llc.access(addr) {
			continue
		}
		l3m++
	}

	c := Counters{
		L1DAccesses: float64(l1a) * scale,
		L1DMisses:   float64(l1m) * scale,
		L2Accesses:  float64(l2a) * scale,
		L2Misses:    float64(l2m) * scale,
		LLCAccesses: float64(l3a) * scale,
		LLCMisses:   float64(l3m) * scale,
	}
	stall := float64(c.L1DMisses*float64(s.cfg.L2Lat-s.cfg.L1Lat)) +
		float64(c.L2Misses*float64(s.cfg.LLCLat-s.cfg.L2Lat)) +
		float64(c.LLCMisses*float64(s.cfg.MemLat-s.cfg.LLCLat))
	return Result{
		ExtraCycles: int64(stall * s.cfg.StallOverlap),
		Counters:    c,
	}
}

func (s *System) processBranches(core int, instr int64, p AccessProfile) Result {
	totalBranches := float64(instr) * p.BranchFrac
	if totalBranches < 1 || p.BranchSites <= 0 {
		return Result{}
	}
	samples := int64(totalBranches)
	if samples > int64(s.cfg.SampleCap) {
		samples = int64(s.cfg.SampleCap)
	}
	scale := totalBranches / float64(samples)
	bias := p.BranchBias
	if bias < 0.5 {
		bias = 0.5
	}
	if bias > 1 {
		bias = 1
	}
	// Derive stable pseudo-PCs for this profile's branch sites.
	pcBase := uint64(1)
	for i := 0; i < len(p.Name); i++ {
		pcBase = pcBase*131 + uint64(p.Name[i])
	}
	bp := s.bp[core]
	var wrong uint64
	for i := int64(0); i < samples; i++ {
		site := uint64(s.rnd.Intn(p.BranchSites))
		pc := pcBase*2654435761 + site*97
		taken := s.rnd.Float64() < bias
		if bp.predictAndUpdate(pc, taken) {
			wrong++
		}
	}
	c := Counters{
		Branches:    float64(samples) * scale,
		Mispredicts: float64(wrong) * scale,
	}
	return Result{
		ExtraCycles: int64(c.Mispredicts * float64(s.cfg.MispredictPenalty) * s.cfg.StallOverlap),
		Counters:    c,
	}
}

// Totals returns the accumulated event counts since construction or the
// last Reset.
func (s *System) Totals() Counters { return s.totals }

// Reset clears accumulated totals but keeps cache/predictor state.
func (s *System) Reset() { s.totals = Counters{} }

func maxi64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
