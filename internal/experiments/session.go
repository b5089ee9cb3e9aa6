// Package experiments regenerates every table and figure of the paper's
// evaluation (§IV–V): Table I (runtime resources), Fig. 9 (speedups by
// TLP source), Figs. 10–13 (performance-loss decompositions), Figs. 14–15
// (extra instructions), Table II (cache and branch behaviour), and
// Fig. 16 (output-quality variability).
//
// A Session caches simulation runs so experiments that share measurements
// (e.g. Fig. 9 speedups and Fig. 10 decompositions) reuse them. All runs
// are deterministic given the session seeds.
package experiments

import (
	"fmt"
	"io"

	"gostats/internal/autotune"
	"gostats/internal/bench"
	"gostats/internal/engine"
	"gostats/internal/profiler"
	"gostats/internal/rng"
)

// Options configures a session.
type Options struct {
	// Benchmarks restricts the suite (default: all registered).
	Benchmarks []string
	// Cores are the simulated core counts (default {14, 28}, §IV-A).
	Cores []int
	// InputSeed fixes the input data across modes; Seed varies the
	// nondeterministic executions.
	InputSeed, Seed uint64
	// QualityRuns is the number of runs per distribution in Fig. 16 (the
	// paper uses 200; the default here is 30 to keep regeneration quick —
	// raise it with the -quality-runs flag).
	QualityRuns int
	// TuneBudget, when positive, re-runs the autotuner with that many
	// evaluations per benchmark instead of using the shipped tuned
	// configurations.
	TuneBudget int
	// Override replaces the tuned STATS configuration field by field in
	// every artifact: each positive field wins over the tuned value, zero
	// keeps it. InnerWidth applies to par-STATS only, since seq-STATS runs
	// at width 1 and the original program at its own width.
	Override autotune.Point
	// Repeats, when above 1, applies the paper's §IV-B convergence rule
	// to the Fig. 9 speedups: each (benchmark, mode, cores) point is
	// re-run with fresh seeds (up to Repeats runs, stopping early once
	// 95% of the measurements are within 5% of the median) and the median
	// simulated time is reported.
	Repeats int
}

// PaperSuite is the set of benchmarks the paper evaluates (§IV-C). The
// registry also contains "fluidanimate", which the paper excluded because
// STATS gains nothing on it; opt in with Options.Benchmarks.
var PaperSuite = []string{
	"bodytrack", "facedet-and-track", "facetrack",
	"streamclassifier", "streamcluster", "swaptions",
}

func (o Options) withDefaults() Options {
	if len(o.Benchmarks) == 0 {
		o.Benchmarks = append([]string(nil), PaperSuite...)
	}
	if len(o.Cores) == 0 {
		o.Cores = []int{14, 28}
	}
	if o.InputSeed == 0 {
		o.InputSeed = 1
	}
	if o.Seed == 0 {
		o.Seed = 3
	}
	if o.QualityRuns == 0 {
		o.QualityRuns = 30
	}
	if o.Repeats < 1 {
		o.Repeats = 1
	}
	return o
}

// MaxCores returns the largest configured core count (the paper reports
// most results at 28).
func (o Options) MaxCores() int {
	max := 0
	for _, c := range o.Cores {
		if c > max {
			max = c
		}
	}
	return max
}

type runKey struct {
	bench string
	mode  profiler.Mode
	cores int
	// chunksOverride distinguishes the forced-chunk runs of Fig. 12.
	chunksOverride int
}

// Session caches benchmark instances, tuned configurations, and runs.
type Session struct {
	opt      Options
	benches  map[string]bench.Benchmark
	inputLen map[string]int
	runs     map[runKey]*profiler.Result
	tuned    map[tunedKey]TunedConfig
	progress io.Writer
}

// NewSession builds a session; it fails on unknown benchmark names.
func NewSession(opt Options) (*Session, error) {
	opt = opt.withDefaults()
	if o := opt.Override; o.Chunks < 0 || o.Lookback < 0 || o.ExtraStates < 0 || o.InnerWidth < 0 {
		return nil, fmt.Errorf("experiments: negative override %s", o)
	}
	s := &Session{
		opt:      opt,
		benches:  map[string]bench.Benchmark{},
		inputLen: map[string]int{},
		runs:     map[runKey]*profiler.Result{},
		tuned:    map[tunedKey]TunedConfig{},
	}
	for _, name := range opt.Benchmarks {
		b, err := bench.New(name)
		if err != nil {
			return nil, err
		}
		s.benches[name] = b
		s.inputLen[name] = len(b.Inputs(rng.New(opt.InputSeed)))
	}
	return s, nil
}

// SetProgress directs per-run progress lines to w (nil disables).
func (s *Session) SetProgress(w io.Writer) { s.progress = w }

func (s *Session) logf(format string, args ...interface{}) {
	if s.progress != nil {
		fmt.Fprintf(s.progress, format+"\n", args...)
	}
}

// Benchmarks returns the session's benchmark names in option order.
func (s *Session) Benchmarks() []string { return s.opt.Benchmarks }

// Options returns the effective options.
func (s *Session) Options() Options { return s.opt }

// seqRun returns (cached) the sequential baseline on one core.
func (s *Session) seqRun(name string) (*profiler.Result, error) {
	return s.run(runKey{bench: name, mode: profiler.ModeSequential, cores: 1}, engine.Config{})
}

// cfgFor resolves the tuned STATS configuration for a mode (zero config
// for the non-STATS modes).
func (s *Session) cfgFor(name string, mode profiler.Mode, cores int) (engine.Config, error) {
	if mode != profiler.ModeSeqSTATS && mode != profiler.ModeParSTATS {
		return engine.Config{}, nil
	}
	tc, err := s.tunedFor(name, cores)
	if err != nil {
		return engine.Config{}, err
	}
	if mode == profiler.ModeParSTATS {
		return configOf(tc.ParSTATS), nil
	}
	return configOf(tc.SeqSTATS), nil
}

// configOf is the engine configuration at a point of the design space.
func configOf(pt autotune.Point) engine.Config {
	return engine.Config{
		Chunks:      pt.Chunks,
		Lookback:    pt.Lookback,
		ExtraStates: pt.ExtraStates,
		InnerWidth:  pt.InnerWidth,
	}
}

// modeRun returns (cached) a run in the given mode with the tuned
// configuration for that core count.
func (s *Session) modeRun(name string, mode profiler.Mode, cores int) (*profiler.Result, error) {
	cfg, err := s.cfgFor(name, mode, cores)
	if err != nil {
		return nil, err
	}
	return s.run(runKey{bench: name, mode: mode, cores: cores}, cfg)
}

// modeMedian returns the convergence-rule median cycles for a mode point.
func (s *Session) modeMedian(name string, mode profiler.Mode, cores int) (int64, error) {
	cfg, err := s.cfgFor(name, mode, cores)
	if err != nil {
		return 0, err
	}
	if mode == profiler.ModeSequential {
		cores = 1
	}
	return s.medianCycles(name, mode, cores, cfg)
}

// forcedChunksRun is the Fig. 12 variant: STATS TLP only, with exactly
// `chunks` parallel chunks.
func (s *Session) forcedChunksRun(name string, cores, chunks int) (*profiler.Result, error) {
	cfg, err := s.cfgFor(name, profiler.ModeSeqSTATS, cores)
	if err != nil {
		return nil, err
	}
	cfg.Chunks = chunks
	return s.run(runKey{bench: name, mode: profiler.ModeSeqSTATS, cores: cores, chunksOverride: chunks}, cfg)
}

func (s *Session) run(key runKey, cfg engine.Config) (*profiler.Result, error) {
	if r, ok := s.runs[key]; ok {
		return r, nil
	}
	b, ok := s.benches[key.bench]
	if !ok {
		return nil, fmt.Errorf("experiments: benchmark %q not in session", key.bench)
	}
	spec := profiler.Spec{
		Bench:        b,
		Mode:         key.mode,
		Cores:        key.cores,
		Cfg:          cfg,
		InputSeed:    s.opt.InputSeed,
		Seed:         s.opt.Seed,
		CollectTrace: key.mode != profiler.ModeSequential,
	}
	s.logf("run %-18s %-10s cores=%-3d chunks=%d", key.bench, key.mode, key.cores, cfg.Chunks)
	r, err := profiler.Run(spec)
	if err != nil {
		return nil, err
	}
	s.runs[key] = r
	return r, nil
}

// speedup computes seq/mode for two runs.
func speedup(seq, par *profiler.Result) float64 {
	if par.Cycles == 0 {
		return 0
	}
	return float64(seq.Cycles) / float64(par.Cycles)
}

// medianCycles applies the §IV-B convergence rule to one run point when
// Repeats > 1, re-running with fresh seeds until 95% of the measurements
// are within 5% of the median (or the repeat budget is exhausted), and
// returns the median cycles. With Repeats == 1 it returns the cached
// single run's cycles.
func (s *Session) medianCycles(name string, mode profiler.Mode, cores int, cfg engine.Config) (int64, error) {
	base, err := s.run(runKey{bench: name, mode: mode, cores: cores}, cfg)
	if err != nil {
		return 0, err
	}
	if s.opt.Repeats <= 1 {
		return base.Cycles, nil
	}
	spec := profiler.Spec{
		Bench:     s.benches[name],
		Mode:      mode,
		Cores:     cores,
		Cfg:       cfg,
		InputSeed: s.opt.InputSeed,
		Seed:      s.opt.Seed,
	}
	s.logf("converge %-18s %-10s cores=%d repeats<=%d", name, mode, cores, s.opt.Repeats)
	med, err := profiler.MedianCycles(spec, min(3, s.opt.Repeats), s.opt.Repeats)
	if err != nil {
		return 0, err
	}
	return med, nil
}
