// Package trackutil provides the shared substrate of the three tracking
// benchmarks (bodytrack, facetrack, facedet-and-track): synthetic
// observation sequences standing in for the paper's image/video inputs,
// and a generic particle filter standing in for the PARSEC/OpenCV
// trackers.
//
// The substitution preserves what the paper's characterization depends
// on: per-frame nondeterministic state updates (random particle
// propagation and resampling), the short-memory property (the filter
// locks onto the observed target within a few well-observed frames,
// forgetting its initialization), and occlusion segments during which
// observations carry no information — the regime where speculative
// states diverge and STATS mispeculates.
package trackutil

import (
	"fmt"
	"math"
	"sync/atomic"

	"gostats/internal/memsim"
	"gostats/internal/rng"
)

// Frame is one synthetic video frame: a noisy observation of the hidden
// target pose plus ground truth for quality scoring.
type Frame struct {
	Index int
	// Obs is the observed pose measurement.
	Obs []float64
	// True is the hidden ground-truth pose.
	True []float64
	// Quality in [0,1] is the observation informativeness; ~0 during
	// occlusion.
	Quality float64
	// Occluded marks frames where the target is not visible.
	Occluded bool
}

// TrajConfig shapes a synthetic sequence.
type TrajConfig struct {
	Frames int
	Dims   int
	// Speed is the per-frame ground-truth velocity scale.
	Speed float64
	// ObsNoise is the measurement noise standard deviation.
	ObsNoise float64
	// Occlusions is the number of occlusion segments; each lasts between
	// OccMin and OccMax frames.
	Occlusions     int
	OccMin, OccMax int
}

// GenTrajectory produces a smooth random-walk trajectory with occlusion
// segments spread evenly through the sequence.
func GenTrajectory(r *rng.Stream, cfg TrajConfig) []Frame {
	pos := make([]float64, cfg.Dims)
	vel := make([]float64, cfg.Dims)
	occluded := make([]bool, cfg.Frames)
	if cfg.Occlusions > 0 {
		gap := cfg.Frames / (cfg.Occlusions + 1)
		for o := 1; o <= cfg.Occlusions; o++ {
			ln := cfg.OccMin
			if cfg.OccMax > cfg.OccMin {
				ln += r.Intn(cfg.OccMax - cfg.OccMin + 1)
			}
			start := o*gap - ln/2
			if gap > 4 {
				start += r.Intn(gap/2+1) - gap/4
			}
			for f := start; f < start+ln && f < cfg.Frames; f++ {
				if f >= 0 {
					occluded[f] = true
				}
			}
		}
	}
	frames := make([]Frame, cfg.Frames)
	for f := 0; f < cfg.Frames; f++ {
		for d := 0; d < cfg.Dims; d++ {
			vel[d] = float64(0.92*vel[d]) + float64(cfg.Speed*0.4*r.NormFloat64())
			pos[d] += vel[d]
		}
		fr := Frame{
			Index:   f,
			Obs:     make([]float64, cfg.Dims),
			True:    append([]float64(nil), pos...),
			Quality: 1,
		}
		if occluded[f] {
			fr.Occluded = true
			fr.Quality = 0.02
		}
		for d := 0; d < cfg.Dims; d++ {
			fr.Obs[d] = pos[d] + float64(cfg.ObsNoise*r.NormFloat64())
		}
		frames[f] = fr
	}
	return frames
}

// idCounter hands out state identities for cache-region naming.
var idCounter atomic.Int64

// Cloud is a particle cloud: the computational state of a tracker.
type Cloud struct {
	// P is particles*dims flattened.
	P    []float64
	W    []float64
	N    int
	Dims int
	// ID names this state's memory region (stable cache addresses per
	// live state; a clone gets a new ID, which is how STATS's extra
	// states show up as locality loss in the cache simulator). It is
	// process-local, so it is never encoded: Live mints a fresh one on
	// decode, exactly like Clone.
	ID int64
	// Age counts updates since the cloud was created or reset.
	Age int
	// Cold marks a cloud that has not yet locked onto the target. Real
	// trackers initialize cold filters from image evidence (likelihood-
	// based proposals); Step does the same on the first well-observed
	// frame. A cold cloud stays cold through occlusions — the mechanism
	// behind mispeculation at occluded chunk boundaries.
	Cold bool

	// Per-cloud working storage. None of it is logical state: every
	// buffer is fully overwritten before it is read, and the profile
	// cache is keyed so a stale entry can never be served. Clone starts
	// the copy with empty working storage; CloneCloudInto keeps the
	// destination's — reusing these buffers is the point of recycling.
	// None of it is encoded either: a decoded cloud rebuilds the buffers
	// lazily and starts with an empty cache, since decode mints a new ID.
	scratchP []float64       // resample's next-generation particle array
	scratchW []float64       // StepT's log-weight array
	profiles [2]cloudProfile // built access profiles, keyed by base
}

// cloudProfile is one cached StateProfile instantiation. Rebuilding the
// profile on every UpdateCost call is pure waste — the result depends
// only on (base, cloud ID), both fixed for a live cloud — and it
// dominated the tracker hot path's allocation profile. The cache is
// keyed by the base profile's pointer; two slots cover every tracker
// (facedetrack alternates between a detection and a filter profile).
type cloudProfile struct {
	base *memsim.AccessProfile
	prof *memsim.AccessProfile
}

// NewCloud creates a cloud of n particles spread around center with the
// given standard deviation (a wide spread models a cold tracker).
func NewCloud(n, dims int, center []float64, spread float64, r *rng.Stream) *Cloud {
	c := &Cloud{
		P:    make([]float64, n*dims),
		W:    make([]float64, n),
		N:    n,
		Dims: dims,
		ID:   idCounter.Add(1),
	}
	for i := 0; i < n; i++ {
		for d := 0; d < dims; d++ {
			base := 0.0
			if center != nil {
				base = center[d]
			}
			c.P[i*dims+d] = base + float64(spread*r.NormFloat64())
		}
		c.W[i] = 1 / float64(n)
	}
	c.Cold = spread > 0.5
	return c
}

// FreshCloudInto rebuilds a cold cloud into dst's buffers, drawing from
// r exactly as NewCloud(n, dims, center, spread, r) would — same draws,
// same order — so the resulting cloud is indistinguishable from a fresh
// allocation. dst may be nil or of a smaller shape, in which case this
// degrades to NewCloud. dst keeps its scratch buffers and drops its
// profile cache (the cache is keyed by ID, which changes).
func FreshCloudInto(dst *Cloud, n, dims int, center []float64, spread float64, r *rng.Stream) *Cloud {
	if dst == nil || cap(dst.P) < n*dims || cap(dst.W) < n {
		return NewCloud(n, dims, center, spread, r)
	}
	dst.P = dst.P[:n*dims]
	dst.W = dst.W[:n]
	for i := 0; i < n; i++ {
		for d := 0; d < dims; d++ {
			base := 0.0
			if center != nil {
				base = center[d]
			}
			dst.P[i*dims+d] = base + float64(spread*r.NormFloat64())
		}
		dst.W[i] = 1 / float64(n)
	}
	dst.N = n
	dst.Dims = dims
	dst.ID = idCounter.Add(1)
	dst.Age = 0
	dst.Cold = spread > 0.5
	dst.profiles = [2]cloudProfile{}
	return dst
}

// Clone deep-copies the cloud, assigning a fresh region ID.
func (c *Cloud) Clone() *Cloud {
	return &Cloud{
		P:    append([]float64(nil), c.P...),
		W:    append([]float64(nil), c.W...),
		N:    c.N,
		Dims: c.Dims,
		ID:   idCounter.Add(1),
		Age:  c.Age,
		Cold: c.Cold,
	}
}

// CloneCloudInto deep-copies src into dst's buffers, assigning a fresh
// region ID exactly as Clone does (the clone is a new live state and
// must occupy its own simulated cache region). dst may be nil or of a
// smaller shape, in which case this degrades to src.Clone(). dst keeps
// its scratch buffers and drops its profile cache — the cache is keyed
// by ID, which just changed.
func CloneCloudInto(dst, src *Cloud) *Cloud {
	if dst == nil || cap(dst.P) < len(src.P) || cap(dst.W) < len(src.W) {
		return src.Clone()
	}
	dst.P = dst.P[:len(src.P)]
	copy(dst.P, src.P)
	dst.W = dst.W[:len(src.W)]
	copy(dst.W, src.W)
	dst.N = src.N
	dst.Dims = src.Dims
	dst.ID = idCounter.Add(1)
	dst.Age = src.Age
	dst.Cold = src.Cold
	dst.profiles = [2]cloudProfile{}
	return dst
}

// WireCloud is Cloud's serialized form for checkpoint snapshots and the
// out-of-process chunk protocol: the logical state only. The region ID is
// minted fresh on decode (state identity is process-local, and a decoded
// cloud IS a new live state — exactly like a clone); working storage is
// not carried (it is rebuilt lazily and never read before written).
type WireCloud struct {
	P    []float64 `json:"p"`
	W    []float64 `json:"w"`
	N    int       `json:"n"`
	Dims int       `json:"dims"`
	Age  int       `json:"age"`
	Cold bool      `json:"cold,omitempty"`
}

// Wire converts the cloud to its serialized form. The wire form aliases
// the cloud's slices; marshal it before the cloud steps again.
func (c *Cloud) Wire() WireCloud {
	return WireCloud{P: c.P, W: c.W, N: c.N, Dims: c.Dims, Age: c.Age, Cold: c.Cold}
}

// Live rebuilds a cloud from its wire form, assigning a fresh region ID.
// The wire form comes from outside the process (a client's #resume
// line, a worker's reply), so its shape is checked here: every loop over
// a cloud trusts len(P) == N*Dims and len(W) == N.
func (w WireCloud) Live() (*Cloud, error) {
	// Dims <= len(P) first, so that N*Dims cannot overflow back onto len(P).
	if w.N < 0 || w.Dims < 0 || len(w.W) != w.N || (w.N > 0 && w.Dims > len(w.P)) || len(w.P) != w.N*w.Dims {
		return nil, fmt.Errorf("cloud says n=%d dims=%d but carries %d coordinates and %d weights", w.N, w.Dims, len(w.P), len(w.W))
	}
	return &Cloud{
		P:    append([]float64(nil), w.P...),
		W:    append([]float64(nil), w.W...),
		N:    w.N,
		Dims: w.Dims,
		ID:   idCounter.Add(1),
		Age:  w.Age,
		Cold: w.Cold,
	}, nil
}

// Profile returns the cloud's memory-access profile for the given base,
// built once per (base, cloud ID) pair and cached. The returned profile
// is shared and must be treated as read-only, which every consumer
// (memsim scales a copy) already does.
func (c *Cloud) Profile(base *memsim.AccessProfile, stateName string, stateBytes int64) *memsim.AccessProfile {
	for i := range c.profiles {
		if c.profiles[i].base == base {
			return c.profiles[i].prof
		}
	}
	p := StateProfile(*base, stateName, c.ID, stateBytes)
	for i := range c.profiles {
		if c.profiles[i].base == nil {
			c.profiles[i] = cloudProfile{base: base, prof: p}
			break
		}
	}
	return p
}

// Step runs one predict-weight-resample cycle against the frame and
// returns the posterior mean estimate.
func (c *Cloud) Step(fr Frame, procNoise, obsNoise float64, r *rng.Stream) []float64 {
	return c.StepT(fr, procNoise, obsNoise, 1, r)
}

// StepT is Step with a likelihood temperature: the weighting uses
// obsNoise*temper as its standard deviation while proposals (cold
// initialization and observation injection) keep the true obsNoise
// scale. High-dimensional trackers anneal with temper > 1 to avoid
// weight degeneracy.
func (c *Cloud) StepT(fr Frame, procNoise, obsNoise, temper float64, r *rng.Stream) []float64 {
	dims := c.Dims
	if c.Cold && fr.Quality > 0.5 {
		// Likelihood-based initialization: a cold tracker proposes its
		// particles from the observation on the first informative frame.
		for i := 0; i < c.N; i++ {
			for d := 0; d < dims; d++ {
				c.P[i*dims+d] = fr.Obs[d] + float64(4*obsNoise*r.NormFloat64())
			}
			c.W[i] = 1 / float64(c.N)
		}
		c.Cold = false
	}
	// Predict: diffuse particles. The diffusion proposal uses a
	// variance-matched uniform (sqrt(3)*sigma half-width) — proposal
	// shape is a modelling choice and uniform draws are several times
	// cheaper than Gaussians for the N*dims bulk. On informative frames a
	// fraction of particles is then proposed from the observation (the
	// annealing / importance-proposal step real trackers use to survive
	// fast motion and recover after occlusions).
	diffuse := procNoise * 3.4641016151377544 // 2*sqrt(3)*sigma over [0,1)
	for i := range c.P {
		c.P[i] += float64(diffuse * (r.Float64() - 0.5))
	}
	if fr.Quality > 0.5 {
		inject := c.N / 5
		for j := 0; j < inject; j++ {
			i := r.Intn(c.N)
			for d := 0; d < dims; d++ {
				c.P[i*dims+d] = fr.Obs[d] + float64(1.5*obsNoise*r.NormFloat64())
			}
		}
	}
	// Weight: tempered Gaussian likelihood, flattened by observation
	// quality.
	sigmaE := float64(obsNoise * temper)
	inv := fr.Quality / (2 * sigmaE * sigmaE)
	var maxLogW float64 = math.Inf(-1)
	if cap(c.scratchW) < c.N {
		c.scratchW = make([]float64, c.N)
	}
	logw := c.scratchW[:c.N]
	for i := 0; i < c.N; i++ {
		var d2 float64
		for d := 0; d < dims; d++ {
			diff := c.P[i*dims+d] - fr.Obs[d]
			d2 += float64(diff * diff)
		}
		logw[i] = -d2 * inv
		if logw[i] > maxLogW {
			maxLogW = logw[i]
		}
	}
	var sum float64
	for i := 0; i < c.N; i++ {
		c.W[i] = math.Exp(logw[i] - maxLogW)
		sum += c.W[i]
	}
	// Normalize and estimate in one pass. The accumulation visits
	// (i outer, d inner) with the normalized weights, exactly as
	// Estimate would after a separate normalize loop — bitwise-identical
	// results, one fewer sweep over P and W.
	est := make([]float64, dims)
	for i := 0; i < c.N; i++ {
		c.W[i] /= sum
		w := c.W[i]
		base := i * dims
		for d := 0; d < dims; d++ {
			est[d] += float64(w * c.P[base+d])
		}
	}
	// Systematic resampling with a random phase (the tracker's
	// nondeterminism).
	c.resample(r)
	c.Age++
	return est
}

// Estimate returns the weighted mean pose.
func (c *Cloud) Estimate() []float64 { return c.estimateInto(make([]float64, c.Dims)) }

// estimateInto accumulates the weighted mean pose into est, which holds
// c.Dims zeros, and returns it.
func (c *Cloud) estimateInto(est []float64) []float64 {
	for i := 0; i < c.N; i++ {
		w := c.W[i]
		for d := 0; d < c.Dims; d++ {
			est[d] += float64(w * c.P[i*c.Dims+d])
		}
	}
	return est
}

// stackDims is the widest pose EstimateDist keeps on the stack; the
// widest tracker's, bodytrack's, is 50. A wider cloud's estimates spill
// to the heap.
const stackDims = 64

// EstimateDist is Dist(a.Estimate(), b.Estimate()), bit for bit, with
// both estimates accumulated into stack arrays: the trackers' Match
// allocates nothing.
func EstimateDist(a, b *Cloud) float64 {
	var ea, eb [stackDims]float64
	return Dist(a.estimateInto(zeros(ea[:], a.Dims)), b.estimateInto(zeros(eb[:], b.Dims)))
}

// zeros returns n zeros: buf's, when it is long enough.
func zeros(buf []float64, n int) []float64 {
	if n > len(buf) {
		return make([]float64, n)
	}
	return buf[:n]
}

// Spread returns the root-mean-square particle distance from the mean, a
// measure of tracker lock.
func (c *Cloud) Spread() float64 {
	est := c.Estimate()
	var sum float64
	for i := 0; i < c.N; i++ {
		for d := 0; d < c.Dims; d++ {
			diff := c.P[i*c.Dims+d] - est[d]
			sum += float64(diff * diff)
		}
	}
	return math.Sqrt(sum / float64(c.N))
}

// Recenter collapses the cloud tightly around a pose (used by the
// detector in facedet-and-track).
func (c *Cloud) Recenter(pose []float64, spread float64, r *rng.Stream) {
	for i := 0; i < c.N; i++ {
		for d := 0; d < c.Dims; d++ {
			c.P[i*c.Dims+d] = pose[d] + float64(spread*r.NormFloat64())
		}
		c.W[i] = 1 / float64(c.N)
	}
	c.Cold = false
	c.Age++
}

func (c *Cloud) resample(r *rng.Stream) {
	n := c.N
	if cap(c.scratchP) < len(c.P) {
		c.scratchP = make([]float64, len(c.P))
	}
	newP := c.scratchP[:len(c.P)]
	step := 1.0 / float64(n)
	u := float64(r.Float64() * step)
	var cum float64
	j := 0
	for i := 0; i < n; i++ {
		target := u + float64(float64(i)*step)
		for cum+c.W[j] < target && j < n-1 {
			cum += c.W[j]
			j++
		}
		copy(newP[i*c.Dims:(i+1)*c.Dims], c.P[j*c.Dims:(j+1)*c.Dims])
	}
	// Swap generations: the outgoing particle array becomes next cycle's
	// scratch.
	c.P, c.scratchP = newP, c.P
	for i := range c.W {
		c.W[i] = step
	}
}

// Dist returns the Euclidean distance between two poses.
func Dist(a, b []float64) float64 {
	var sum float64
	for d := range a {
		diff := a[d] - b[d]
		sum += float64(diff * diff)
	}
	return math.Sqrt(sum)
}

// StateProfile instantiates an access profile whose state region is named
// by the cloud's identity, so distinct live states occupy distinct cache
// lines in the memory simulator.
func StateProfile(base memsim.AccessProfile, stateName string, id int64, stateBytes int64) *memsim.AccessProfile {
	p := base
	p.Regions = append([]memsim.RegionRef(nil), base.Regions...)
	for i := range p.Regions {
		if p.Regions[i].Name == "$state" {
			p.Regions[i].Name = stateName + string(rune('a'+id%26)) + itoa(id)
			p.Regions[i].Bytes = stateBytes
		}
	}
	return &p
}

func itoa(v int64) string {
	if v == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}
