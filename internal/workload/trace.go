package workload

import "gostats/internal/rng"

// Session is one generated session: when it arrives (virtual nanoseconds
// since the workload's epoch), what it runs, how many inputs it streams,
// and the seed that regenerates its exact input stream. Inputs is zero
// when the spec has no length law (the full native stream).
type Session struct {
	Seq       int
	At        int64
	Benchmark string
	Inputs    int
	Seed      uint64
}

// Trace is a spec's sessions in arrival order, named and seeded as the
// spec is. Generate is its only source: the spec, not a file, is how a
// workload is named, stored and shared.
type Trace struct {
	Name     string
	Seed     uint64
	Sessions []Session
}

// Generate expands a spec into its full session trace: arrival times from
// the (modulated) arrival distribution, benchmarks from the mix, input
// counts from the length distribution when set, and one derived seed per
// session so each session's input stream regenerates independently. The
// trace is a pure function of the spec — same spec, same sessions — and the
// only place a spec becomes sessions: statsload, statsbench -workload and
// statsserved -gen-spec all consume its output.
//
// Each field draws from its own stream derived from the spec's seed, so
// adding a length law to a spec leaves its arrival times and mix picks
// where they were.
func Generate(spec *Spec) (*Trace, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	arrival, err := spec.Arrival.Build()
	if err != nil {
		return nil, err
	}
	var length Distribution
	if !spec.Length.Zero() {
		if length, err = spec.Length.Build(); err != nil {
			return nil, err
		}
	}
	mix, err := NewMix(spec.Mix)
	if err != nil {
		return nil, err
	}

	root := rng.New(spec.Seed)
	arrivals := root.Derive("workload-arrivals")
	lengths := root.Derive("workload-lengths")
	picks := root.Derive("workload-mix")
	seeds := root.Derive("workload-seeds")
	mods, err := buildModulators(spec.Modulators, root.Derive("workload-modulator"))
	if err != nil {
		return nil, err
	}

	t := &Trace{Name: spec.Name, Seed: spec.Seed, Sessions: make([]Session, spec.Sessions)}
	now := int64(0)
	for seq := 0; seq < spec.Sessions; seq++ {
		s := Session{Seq: seq, At: now, Benchmark: mix.Pick(picks), Seed: seeds.Uint64()}
		if length != nil {
			n := int(length.Sample(lengths))
			if n < 1 {
				n = 1 // a session streams at least one input
			}
			s.Inputs = n
		}
		t.Sessions[seq] = s
		if seq+1 < spec.Sessions {
			gap := int64(arrival.Sample(arrivals))
			if len(mods) > 0 {
				gap = scaleGap(gap, factor(mods, now))
			}
			if gap < 0 {
				gap = 0
			}
			now += gap
		}
	}
	return t, nil
}
