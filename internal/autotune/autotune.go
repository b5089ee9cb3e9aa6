// Package autotune reproduces the role OpenTuner 0.8 plays in the STATS
// system (§II-C): it searches the design space of a state dependence —
// number of parallel chunks, alternative-producer lookback, number of
// extra original states, and inner (original-TLP) gang width — for the
// configuration that minimizes the profiled execution time.
//
// The search structure follows OpenTuner's: several elementary techniques
// (uniform random sampling, mutation of the best known point, and local
// neighborhood descent) propose configurations, and a UCB-style bandit
// meta-technique allocates trials to whichever technique has recently
// produced improvements. Evaluations are memoized; the budget counts
// unique configurations evaluated, matching the paper's "number of
// configurations analyzed varied from 89 to 342" (§IV-B).
//
// Like OpenTuner in the paper, the tuner is offline: it runs on training
// inputs before deployment, and a streaming session runs the one shape it
// is given, with no feedback from its own commit/abort outcomes.
package autotune

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"gostats/internal/rng"
)

// Point is one configuration in the design space.
type Point struct {
	Chunks      int
	Lookback    int
	ExtraStates int
	InnerWidth  int
}

// String formats a point compactly.
func (p Point) String() string {
	return fmt.Sprintf("{chunks=%d lookback=%d extra=%d width=%d}", p.Chunks, p.Lookback, p.ExtraStates, p.InnerWidth)
}

// Space bounds the design space.
type Space struct {
	// ChunkCandidates are the allowed chunk counts, ascending.
	ChunkCandidates []int
	// MaxLookback bounds the alternative-producer replay length.
	MaxLookback int
	// MaxExtraStates bounds the additional original states.
	MaxExtraStates int
	// WidthCandidates are the allowed inner gang widths, ascending.
	WidthCandidates []int
}

// DefaultSpace builds a space for an input stream of the given length on
// a machine with the given core count, bounded by the program's useful
// inner width.
func DefaultSpace(inputs, cores, maxWidth int) Space {
	var chunks []int
	for _, c := range []int{1, 2, 4, 7, 14, 28, 56, 112, 280} {
		if c <= inputs && c <= 10*cores {
			chunks = append(chunks, c)
		}
	}
	if len(chunks) == 0 {
		chunks = []int{1}
	}
	var widths []int
	for w := 1; w <= maxWidth && w <= cores; w *= 2 {
		widths = append(widths, w)
	}
	return Space{
		ChunkCandidates: chunks,
		MaxLookback:     24,
		MaxExtraStates:  3,
		WidthCandidates: widths,
	}
}

// Validate reports whether the space is well-formed.
func (s Space) Validate() error {
	if len(s.ChunkCandidates) == 0 || len(s.WidthCandidates) == 0 {
		return fmt.Errorf("autotune: empty candidate lists")
	}
	if s.MaxLookback < 1 {
		return fmt.Errorf("autotune: MaxLookback must be >= 1")
	}
	if s.MaxExtraStates < 0 {
		return fmt.Errorf("autotune: MaxExtraStates must be >= 0")
	}
	return nil
}

// Contains reports whether p lies in the space.
func (s Space) Contains(p Point) bool {
	return slices.Contains(s.ChunkCandidates, p.Chunks) &&
		p.Lookback >= 1 && p.Lookback <= s.MaxLookback &&
		p.ExtraStates >= 0 && p.ExtraStates <= s.MaxExtraStates &&
		slices.Contains(s.WidthCandidates, p.InnerWidth)
}

// Size returns the number of points in the space.
func (s Space) Size() int {
	return len(s.ChunkCandidates) * s.MaxLookback * (s.MaxExtraStates + 1) * len(s.WidthCandidates)
}

// Objective maps a configuration to a cost (simulated cycles); the tuner
// minimizes it.
type Objective func(Point) float64

// Eval records one evaluated configuration.
type Eval struct {
	Point     Point
	Cost      float64
	Technique string
	// Best is the best cost seen up to and including this evaluation.
	Best float64
}

// Result is the outcome of a tuning session.
type Result struct {
	Best        Point
	BestCost    float64
	Evaluations int
	History     []Eval
}

// Tune searches space for the objective's minimum using at most budget
// unique evaluations. The search is deterministic for a given seed.
// seedPoints are evaluated first (e.g. a configuration found by a
// previous tuning pass over a subspace); points outside the space are
// ignored.
func Tune(space Space, obj Objective, budget int, seed uint64, seedPoints ...Point) (Result, error) {
	if err := space.Validate(); err != nil {
		return Result{}, err
	}
	if budget < 1 {
		return Result{}, fmt.Errorf("autotune: budget must be >= 1")
	}
	t := &tuner{
		space: space,
		obj:   obj,
		rnd:   rng.New(seed).Derive("autotune"),
		seen:  map[Point]float64{},
	}
	t.techniques = []technique{
		{name: "random", propose: t.proposeRandom},
		{name: "mutate-best", propose: t.proposeMutate},
		{name: "hill-climb", propose: t.proposeNeighbor},
	}
	t.stats = make([]banditStats, len(t.techniques))

	for _, p := range seedPoints {
		if space.Contains(p) && t.evals < budget {
			t.evaluate(p, "seed-point")
		}
	}
	// Seed the search with a deterministic sweep over chunk candidates at
	// mid-range parameters, so every region of the principal dimension is
	// visited (OpenTuner similarly seeds with defaults).
	mid := Point{
		Lookback:    (space.MaxLookback + 1) / 2, // within [1, MaxLookback]
		ExtraStates: space.MaxExtraStates / 2,
		InnerWidth:  space.WidthCandidates[0],
	}
	for _, c := range space.ChunkCandidates {
		p := mid
		p.Chunks = c
		t.evaluate(p, "seed")
		if t.evals >= budget {
			break
		}
	}

	for t.evals < budget {
		ti := t.pickTechnique()
		p, ok := t.techniques[ti].propose()
		if !ok {
			// Technique could not produce a fresh point; fall back to
			// random, and stop if the space is exhausted.
			p, ok = t.proposeRandom()
			if !ok {
				break
			}
		}
		improved := t.evaluate(p, t.techniques[ti].name)
		t.reward(ti, improved)
	}

	return Result{
		Best:        t.best,
		BestCost:    t.bestCost,
		Evaluations: t.evals,
		History:     t.history,
	}, nil
}

type technique struct {
	name    string
	propose func() (Point, bool)
}

type banditStats struct {
	trials  int
	rewards float64
}

type tuner struct {
	space      Space
	obj        Objective
	rnd        *rng.Stream
	seen       map[Point]float64
	best       Point
	bestCost   float64
	evals      int
	history    []Eval
	techniques []technique
	stats      []banditStats
}

// evaluate runs the objective on p if unseen; it returns whether p
// improved on the best known cost.
func (t *tuner) evaluate(p Point, tech string) bool {
	if _, dup := t.seen[p]; dup {
		return false
	}
	cost := t.obj(p)
	t.seen[p] = cost
	t.evals++
	improved := t.evals == 1 || cost < t.bestCost
	if improved {
		t.best = p
		t.bestCost = cost
	}
	t.history = append(t.history, Eval{Point: p, Cost: cost, Technique: tech, Best: t.bestCost})
	return improved
}

// pickTechnique is a UCB1 bandit over techniques.
func (t *tuner) pickTechnique() int {
	total := 0
	for _, s := range t.stats {
		total += s.trials
	}
	bestI, bestV := 0, math.Inf(-1)
	for i, s := range t.stats {
		v := math.Inf(1) // untried techniques first
		if s.trials > 0 {
			v = s.rewards/float64(s.trials) + math.Sqrt(2*math.Log(float64(total+1))/float64(s.trials))
		}
		if v > bestV {
			bestI, bestV = i, v
		}
	}
	return bestI
}

func (t *tuner) reward(i int, improved bool) {
	t.stats[i].trials++
	if improved {
		t.stats[i].rewards++
	}
}

// proposeRandom samples a uniform unseen point (with bounded retries, and
// an exhaustive fallback so small spaces terminate).
func (t *tuner) proposeRandom() (Point, bool) {
	for tries := 0; tries < 64; tries++ {
		p := Point{
			Chunks:      t.space.ChunkCandidates[t.rnd.Intn(len(t.space.ChunkCandidates))],
			Lookback:    1 + t.rnd.Intn(t.space.MaxLookback),
			ExtraStates: t.rnd.Intn(t.space.MaxExtraStates + 1),
			InnerWidth:  t.space.WidthCandidates[t.rnd.Intn(len(t.space.WidthCandidates))],
		}
		if _, dup := t.seen[p]; !dup {
			return p, true
		}
	}
	return t.firstUnseen()
}

// firstUnseen scans the space deterministically for any unseen point.
func (t *tuner) firstUnseen() (Point, bool) {
	for _, c := range t.space.ChunkCandidates {
		for l := 1; l <= t.space.MaxLookback; l++ {
			for e := 0; e <= t.space.MaxExtraStates; e++ {
				for _, w := range t.space.WidthCandidates {
					p := Point{Chunks: c, Lookback: l, ExtraStates: e, InnerWidth: w}
					if _, dup := t.seen[p]; !dup {
						return p, true
					}
				}
			}
		}
	}
	return Point{}, false
}

// proposeMutate perturbs one random dimension of the best point.
func (t *tuner) proposeMutate() (Point, bool) {
	for tries := 0; tries < 32; tries++ {
		p := t.best
		switch t.rnd.Intn(4) {
		case 0:
			p.Chunks = t.shiftCandidate(t.space.ChunkCandidates, p.Chunks, t.rnd.Intn(3)-1)
		case 1:
			p.Lookback = min(max(p.Lookback+t.rnd.Intn(9)-4, 1), t.space.MaxLookback)
		case 2:
			p.ExtraStates = min(max(p.ExtraStates+t.rnd.Intn(3)-1, 0), t.space.MaxExtraStates)
		case 3:
			p.InnerWidth = t.shiftCandidate(t.space.WidthCandidates, p.InnerWidth, t.rnd.Intn(3)-1)
		}
		if _, dup := t.seen[p]; !dup && t.space.Contains(p) {
			return p, true
		}
	}
	return Point{}, false
}

// proposeNeighbor scans the immediate lattice neighborhood of the best
// point for an unseen configuration.
func (t *tuner) proposeNeighbor() (Point, bool) {
	var candidates []Point
	add := func(p Point) {
		if _, dup := t.seen[p]; !dup && t.space.Contains(p) {
			candidates = append(candidates, p)
		}
	}
	for _, dc := range []int{-1, 0, 1} {
		p := t.best
		p.Chunks = t.shiftCandidate(t.space.ChunkCandidates, p.Chunks, dc)
		for _, dl := range []int{-2, -1, 0, 1, 2} {
			q := p
			q.Lookback = min(max(p.Lookback+dl, 1), t.space.MaxLookback)
			add(q)
			for _, de := range []int{-1, 1} {
				r := q
				r.ExtraStates = min(max(q.ExtraStates+de, 0), t.space.MaxExtraStates)
				add(r)
			}
		}
		for _, dw := range []int{-1, 1} {
			q := p
			q.InnerWidth = t.shiftCandidate(t.space.WidthCandidates, p.InnerWidth, dw)
			add(q)
		}
	}
	if len(candidates) == 0 {
		return Point{}, false
	}
	sort.Slice(candidates, func(i, j int) bool { return lessPoint(candidates[i], candidates[j]) })
	return candidates[t.rnd.Intn(len(candidates))], true
}

// shiftCandidate moves v by delta positions within the sorted candidate
// list, clamped to its ends.
func (t *tuner) shiftCandidate(list []int, v, delta int) int {
	idx := 0
	for i, x := range list {
		if x == v {
			idx = i
			break
		}
	}
	return list[min(max(idx+delta, 0), len(list)-1)]
}

func lessPoint(a, b Point) bool {
	if a.Chunks != b.Chunks {
		return a.Chunks < b.Chunks
	}
	if a.Lookback != b.Lookback {
		return a.Lookback < b.Lookback
	}
	if a.ExtraStates != b.ExtraStates {
		return a.ExtraStates < b.ExtraStates
	}
	return a.InnerWidth < b.InnerWidth
}
