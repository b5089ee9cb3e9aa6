// Package rng provides deterministic, splittable pseudo-random number
// streams used throughout the STATS reproduction.
//
// Every source of nondeterminism in the system — benchmark updates,
// autotuner decisions, scheduler tie-breaks, synthetic memory streams —
// draws from a Stream derived from a root seed, so whole simulated runs
// are bit-reproducible while still modelling the nondeterminism the paper
// studies (different seeds model different executions of the original
// nondeterministic program).
//
// The generator is xoshiro256**, seeded through splitmix64, following the
// reference construction by Blackman and Vigna. Substreams are derived by
// hashing a (parent seed, label) pair through splitmix64, which gives
// statistically independent streams without shared mutable state.
package rng

import (
	"math"
	"math/bits"
)

// splitmix64 advances the given state and returns the next output of the
// splitmix64 generator. It is used for seeding and stream derivation.
func splitmix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Stream is a deterministic pseudo-random stream. The zero value is not
// valid; construct streams with New or Derive.
type Stream struct {
	s [4]uint64
	// spare holds the second variate of the polar method between
	// NormFloat64 calls.
	spare    float64
	hasSpare bool
}

// New returns a Stream seeded from seed. Two streams built from the same
// seed produce identical sequences.
func New(seed uint64) *Stream {
	st := seeded(seed)
	return &st
}

// seeded is New by value.
func seeded(seed uint64) Stream {
	var st Stream
	sm := seed
	for i := range st.s {
		st.s[i] = splitmix64(&sm)
	}
	// xoshiro must not be seeded with the all-zero state.
	if st.s[0]|st.s[1]|st.s[2]|st.s[3] == 0 {
		st.s[0] = 0x9e3779b97f4a7c15
	}
	return st
}

// Derive returns a new independent Stream identified by label. Derivation
// does not disturb the parent stream, so the set of substreams a component
// creates is independent of the order in which other components draw
// numbers.
func (r *Stream) Derive(label string) *Stream {
	st := r.Sub(label)
	return &st
}

// DeriveN returns a new independent Stream identified by an integer, for
// per-thread or per-chunk substreams.
func (r *Stream) DeriveN(label string, n int) *Stream {
	st := r.SubN(label, n)
	return &st
}

// Sub is Derive by value — the same bits, no allocation — for callers
// that embed their substreams in a structure they already own.
func (r *Stream) Sub(label string) Stream {
	h := r.s[0] ^ 0x51afd54ed5d1c355
	for i := 0; i < len(label); i++ {
		h = (h ^ uint64(label[i])) * 0x100000001b3
	}
	h ^= r.s[2]
	return seeded(h)
}

// SubN is DeriveN by value.
func (r *Stream) SubN(label string, n int) Stream {
	h := r.s[0] ^ (uint64(n)+1)*0x2545f4914f6cdd1d
	for i := 0; i < len(label); i++ {
		h = (h ^ uint64(label[i])) * 0x100000001b3
	}
	h ^= r.s[2] ^ uint64(n)<<32
	return seeded(h)
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 uniformly distributed bits.
func (r *Stream) Uint64() uint64 {
	result := rotl(r.s[1]*5, 7) * 9
	t := r.s[1] << 17
	r.s[2] ^= r.s[0]
	r.s[3] ^= r.s[1]
	r.s[1] ^= r.s[2]
	r.s[0] ^= r.s[3]
	r.s[2] ^= t
	r.s[3] = rotl(r.s[3], 45)
	return result
}

// Int63 returns a non-negative int64.
func (r *Stream) Int63() int64 { return int64(r.Uint64() >> 1) }

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (r *Stream) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	// Lemire's multiply-shift rejection method.
	bound := uint64(n)
	for {
		v := r.Uint64()
		hi, lo := bits.Mul64(v, bound)
		if lo >= bound || lo >= (-bound)%bound {
			return int(hi)
		}
	}
}

// Float64 returns a uniform float64 in [0, 1).
func (r *Stream) Float64() float64 {
	return float64(float64(r.Uint64()>>11) / (1 << 53))
}

// NormFloat64 returns a standard normal variate using the polar
// (Marsaglia) method, caching the pair's second variate.
func (r *Stream) NormFloat64() float64 {
	if r.hasSpare {
		r.hasSpare = false
		return r.spare
	}
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := float64(u*u) + float64(v*v)
		if s > 0 && s < 1 {
			f := math.Sqrt(-2 * math.Log(s) / s)
			r.spare = v * f
			r.hasSpare = true
			return u * f
		}
	}
}

// ExpFloat64 returns an exponential variate with rate 1.
func (r *Stream) ExpFloat64() float64 {
	for {
		u := r.Float64()
		if u > 0 {
			return -math.Log(u)
		}
	}
}

// Perm fills p with a pseudo-random permutation of [0, len(p)),
// overwriting whatever it held. It draws Intn(1), Intn(2), ...,
// Intn(len(p)) and allocates nothing, so a caller may pass storage of
// its own, on its stack.
func (r *Stream) Perm(p []int) {
	for i := range p {
		j := r.Intn(i + 1)
		p[i] = p[j]
		p[j] = i
	}
}

// Shuffle pseudo-randomizes the order of n elements using swap.
func (r *Stream) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}

// Bool returns true with probability p.
func (r *Stream) Bool(p float64) bool { return r.Float64() < p }

// Jitter returns v multiplied by a uniform factor in [1-amount, 1+amount].
// It is used to model run-to-run latency variation of nondeterministic
// work (the paper's benchmarks have input-dependent update latencies).
func (r *Stream) Jitter(v float64, amount float64) float64 {
	return v * (1 + float64(amount*(2*r.Float64()-1)))
}
