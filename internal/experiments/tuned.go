package experiments

import (
	"fmt"
	"io"

	"gostats/internal/autotune"
	"gostats/internal/bench"
	"gostats/internal/engine"
	"gostats/internal/machine"
	"gostats/internal/rng"
)

// TunedConfig is the autotuner's output for one benchmark at one core
// count: the best configuration with only STATS TLP and the best with
// both TLP sources combined (§II-C: "the best binary that corresponds to
// the best seen configuration").
type TunedConfig struct {
	SeqSTATS autotune.Point
	ParSTATS autotune.Point
}

type tunedKey struct {
	bench string
	cores int
}

// shippedTuned holds the autotuner's picks at a budget of 40 evaluations
// per search, validated on the native inputs among its top candidates
// (EXPERIMENTS.md). `statsbench -only tuned -tune 40` prints a fresh
// search's table as this declaration.
var shippedTuned = map[tunedKey]TunedConfig{
	{"bodytrack", 14}: {
		SeqSTATS: autotune.Point{Chunks: 14, Lookback: 2, ExtraStates: 0, InnerWidth: 1},
		ParSTATS: autotune.Point{Chunks: 14, Lookback: 2, ExtraStates: 0, InnerWidth: 1},
	},
	{"bodytrack", 28}: {
		SeqSTATS: autotune.Point{Chunks: 28, Lookback: 2, ExtraStates: 0, InnerWidth: 1},
		ParSTATS: autotune.Point{Chunks: 14, Lookback: 2, ExtraStates: 0, InnerWidth: 2},
	},
	{"facedet-and-track", 14}: {
		SeqSTATS: autotune.Point{Chunks: 14, Lookback: 17, ExtraStates: 0, InnerWidth: 1},
		ParSTATS: autotune.Point{Chunks: 14, Lookback: 17, ExtraStates: 0, InnerWidth: 1},
	},
	{"facedet-and-track", 28}: {
		SeqSTATS: autotune.Point{Chunks: 28, Lookback: 19, ExtraStates: 0, InnerWidth: 1},
		ParSTATS: autotune.Point{Chunks: 28, Lookback: 18, ExtraStates: 0, InnerWidth: 1},
	},
	{"facetrack", 14}: {
		SeqSTATS: autotune.Point{Chunks: 14, Lookback: 20, ExtraStates: 0, InnerWidth: 1},
		ParSTATS: autotune.Point{Chunks: 14, Lookback: 20, ExtraStates: 0, InnerWidth: 1},
	},
	{"facetrack", 28}: {
		SeqSTATS: autotune.Point{Chunks: 14, Lookback: 20, ExtraStates: 0, InnerWidth: 1},
		ParSTATS: autotune.Point{Chunks: 14, Lookback: 20, ExtraStates: 0, InnerWidth: 2},
	},
	{"streamclassifier", 14}: {
		SeqSTATS: autotune.Point{Chunks: 56, Lookback: 12, ExtraStates: 0, InnerWidth: 1},
		ParSTATS: autotune.Point{Chunks: 56, Lookback: 12, ExtraStates: 0, InnerWidth: 1},
	},
	{"streamclassifier", 28}: {
		SeqSTATS: autotune.Point{Chunks: 28, Lookback: 13, ExtraStates: 0, InnerWidth: 1},
		ParSTATS: autotune.Point{Chunks: 28, Lookback: 13, ExtraStates: 0, InnerWidth: 1},
	},
	{"streamcluster", 14}: {
		SeqSTATS: autotune.Point{Chunks: 14, Lookback: 8, ExtraStates: 0, InnerWidth: 1},
		ParSTATS: autotune.Point{Chunks: 14, Lookback: 8, ExtraStates: 0, InnerWidth: 1},
	},
	{"streamcluster", 28}: {
		SeqSTATS: autotune.Point{Chunks: 14, Lookback: 6, ExtraStates: 1, InnerWidth: 1},
		ParSTATS: autotune.Point{Chunks: 14, Lookback: 6, ExtraStates: 1, InnerWidth: 1},
	},
	{"swaptions", 14}: {
		SeqSTATS: autotune.Point{Chunks: 14, Lookback: 2, ExtraStates: 0, InnerWidth: 1},
		ParSTATS: autotune.Point{Chunks: 14, Lookback: 2, ExtraStates: 0, InnerWidth: 1},
	},
	{"swaptions", 28}: {
		SeqSTATS: autotune.Point{Chunks: 28, Lookback: 2, ExtraStates: 0, InnerWidth: 1},
		ParSTATS: autotune.Point{Chunks: 28, Lookback: 2, ExtraStates: 0, InnerWidth: 1},
	},
}

// tunedFor returns the configuration for (benchmark, cores): retuned live
// when the session has a tuning budget, the shipped table otherwise, and
// a heuristic fallback for unlisted core counts; then the session's
// Override, field by field.
func (s *Session) tunedFor(name string, cores int) (TunedConfig, error) {
	key := tunedKey{name, cores}
	if tc, ok := s.tuned[key]; ok {
		return tc, nil
	}
	tc, shipped := shippedTuned[key]
	switch {
	case s.opt.TuneBudget > 0:
		var err error
		if tc, err = TuneBenchmark(s.benches[name], cores, s.opt.TuneBudget, s.opt.InputSeed, s.opt.Seed); err != nil {
			return TunedConfig{}, err
		}
	case !shipped:
		// Heuristic fallback for unlisted core counts.
		pt := autotune.Point{
			Chunks:      engine.MaxChunks(s.inputLen[name], cores, 1),
			Lookback:    6,
			ExtraStates: 1,
			InnerWidth:  1,
		}
		tc = TunedConfig{SeqSTATS: pt, ParSTATS: pt}
		if w := s.benches[name].MaxInnerWidth(); w > 1 && cores >= 2*2 {
			tc.ParSTATS.InnerWidth = 2
			tc.ParSTATS.Chunks = engine.MaxChunks(s.inputLen[name], cores, 2)
		}
	}
	o := s.opt.Override
	for _, pt := range []*autotune.Point{&tc.SeqSTATS, &tc.ParSTATS} {
		if o.Chunks > 0 {
			pt.Chunks = o.Chunks
		}
		if o.Lookback > 0 {
			pt.Lookback = o.Lookback
		}
		if o.ExtraStates > 0 {
			pt.ExtraStates = o.ExtraStates
		}
	}
	if o.InnerWidth > 0 {
		tc.ParSTATS.InnerWidth = o.InnerWidth
	}
	s.tuned[key] = tc
	return tc, nil
}

// Tuned writes the session's configuration for every benchmark and core
// count as the declaration of shippedTuned: with no tuning budget and no
// Override it prints the shipped table back, with -tune N the table a
// fresh search found, ready to replace it.
func (s *Session) Tuned(w io.Writer) error {
	point := func(field string, p autotune.Point) {
		fmt.Fprintf(w, "\t\t%s: autotune.Point{Chunks: %d, Lookback: %d, ExtraStates: %d, InnerWidth: %d},\n",
			field, p.Chunks, p.Lookback, p.ExtraStates, p.InnerWidth)
	}
	fmt.Fprintln(w, "var shippedTuned = map[tunedKey]TunedConfig{")
	for _, name := range s.opt.Benchmarks {
		for _, cores := range s.opt.Cores {
			tc, err := s.tunedFor(name, cores)
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "\t{%q, %d}: {\n", name, cores)
			point("SeqSTATS", tc.SeqSTATS)
			point("ParSTATS", tc.ParSTATS)
			fmt.Fprintln(w, "\t},")
		}
	}
	fmt.Fprintln(w, "}")
	return nil
}

// TuneBenchmark runs the autotuner for one benchmark at one core count,
// using the training inputs (§II-C: "the profiler executes the binary
// using the developer provided training inputs"). It tunes the STATS-only
// space first (width fixed to 1), then the combined space.
func TuneBenchmark(b bench.Benchmark, cores, budget int, inputSeed, seed uint64) (TunedConfig, error) {
	training := b.TrainingInputs(rng.New(inputSeed))
	if len(training) == 0 {
		return TunedConfig{}, fmt.Errorf("experiments: %s has no training inputs", b.Name())
	}
	objective := TrainingObjective(b, training, cores, seed)

	seqSpace := autotune.DefaultSpace(len(training), cores, 1)
	seqRes, err := autotune.Tune(seqSpace, objective, budget, seed)
	if err != nil {
		return TunedConfig{}, err
	}
	parSpace := autotune.DefaultSpace(len(training), cores, b.MaxInnerWidth())
	// Seed the combined search with the STATS-only winner so the combined
	// configuration never regresses below it on the training inputs.
	parRes, err := autotune.Tune(parSpace, objective, budget, seed+1, seqRes.Best)
	if err != nil {
		return TunedConfig{}, err
	}
	return TunedConfig{SeqSTATS: seqRes.Best, ParSTATS: parRes.Best}, nil
}

// TrainingObjective builds the autotuner's cost function: the mean
// simulated makespan over two nondeterminism seeds, so configurations
// whose commit behaviour is fragile (an abort on some executions but not
// others) are priced by their expected cost rather than one lucky draw.
func TrainingObjective(b bench.Benchmark, training []engine.Input, cores int, seed uint64) autotune.Objective {
	return func(p autotune.Point) float64 {
		total := 0.0
		for _, s := range []uint64{seed, seed*2654435761 + 97} {
			cfg := configOf(p)
			cfg.Seed = s
			sim := &engine.SimScheduler{Config: machine.DefaultConfig(cores)}
			if _, err := sim.RunSlice(b, training, cfg); err != nil {
				return float64(int64(1) << 62)
			}
			total += float64(sim.Cycles())
		}
		return total / 2
	}
}
