// Package profiler runs benchmarks on the simulated machine under the
// paper's execution modes and collects the measurements the evaluation
// needs: simulated cycles, per-category instruction/cycle accounting,
// commit statistics, execution traces for the critical-path analysis, and
// (optionally) the memory-system counters of Table II.
//
// It also implements the paper's §IV-B convergence rule: a configuration
// is re-run with fresh seeds until 95% of the measurements fall within 5%
// of the median.
package profiler

import (
	"fmt"

	"gostats/internal/bench"
	"gostats/internal/engine"
	"gostats/internal/machine"
	"gostats/internal/memsim"
	"gostats/internal/rng"
	"gostats/internal/stat"
	"gostats/internal/trace"
)

// Mode selects which TLP sources the run uses (the three bars of Fig. 9
// plus the sequential baseline).
type Mode int

const (
	// ModeSequential is the original sequential program.
	ModeSequential Mode = iota
	// ModeOriginal uses only the program's original TLP.
	ModeOriginal
	// ModeSeqSTATS applies STATS to the sequential program (STATS TLP
	// only).
	ModeSeqSTATS
	// ModeParSTATS combines the original TLP with the STATS TLP.
	ModeParSTATS
)

var modeNames = map[Mode]string{
	ModeSequential: "sequential",
	ModeOriginal:   "original",
	ModeSeqSTATS:   "seq-stats",
	ModeParSTATS:   "par-stats",
}

// String returns the mode name used in reports.
func (m Mode) String() string {
	if s, ok := modeNames[m]; ok {
		return s
	}
	return fmt.Sprintf("mode(%d)", int(m))
}

// Spec describes one run.
type Spec struct {
	Bench bench.Benchmark
	Mode  Mode
	// Cores is the simulated core count (the paper uses 14 and 28).
	Cores int
	// Cfg is the STATS configuration (STATS modes only). Its InnerWidth
	// is forced to 1 for ModeSeqSTATS. ModeOriginal's gang width is the
	// benchmark's MaxInnerWidth capped at Cores.
	Cfg engine.Config
	// InputSeed selects the input data (fixed across modes, like the
	// paper's native inputs); Seed selects the nondeterministic execution.
	InputSeed, Seed uint64
	// CollectTrace attaches a trace for critical-path analysis.
	CollectTrace bool
	// Memory, when non-nil, attaches the cache/branch simulator
	// (Table II runs).
	Memory *memsim.Config
	// MachineConfig overrides the default platform model (ablation
	// studies); its Cores field is forced to Cores and its Seed, which
	// breaks scheduler ties, to 1.
	MachineConfig *machine.Config
}

// Result is one run's measurements.
type Result struct {
	Spec   Spec
	Cycles int64
	Acct   machine.Accounting
	Report *engine.Report
	Trace  *trace.Trace
	Mem    memsim.Counters
	// Quality is the benchmark's output-quality score for this run.
	Quality float64
}

// Run executes one specification.
func Run(spec Spec) (*Result, error) {
	if spec.Bench == nil {
		return nil, fmt.Errorf("profiler: nil benchmark")
	}
	if spec.Cores < 1 {
		return nil, fmt.Errorf("profiler: cores must be >= 1, got %d", spec.Cores)
	}
	inputs := spec.Bench.Inputs(rng.New(spec.InputSeed))

	mcfg := machine.DefaultConfig(spec.Cores)
	if spec.MachineConfig != nil {
		mcfg = *spec.MachineConfig
		mcfg.Cores = spec.Cores
		if mcfg.Sockets <= 0 || mcfg.Cores%mcfg.Sockets != 0 {
			mcfg.Sockets = machine.DefaultConfig(spec.Cores).Sockets
		}
	}
	mcfg.Seed = 1
	var opts []machine.Option
	res := &Result{Spec: spec}
	if spec.CollectTrace {
		res.Trace = trace.New()
		opts = append(opts, machine.WithTrace(res.Trace))
	}
	var mem *memsim.System
	if spec.Memory != nil {
		mc := *spec.Memory
		mc.Cores = spec.Cores
		mc.Sockets = mcfg.Sockets
		var err error
		mem, err = memsim.NewSystem(mc)
		if err != nil {
			return nil, err
		}
		opts = append(opts, machine.WithMemory(mem))
	}
	var runErr error
	switch spec.Mode {
	case ModeSequential, ModeOriginal:
		m, err := machine.NewChecked(mcfg, opts...)
		if err != nil {
			return nil, fmt.Errorf("profiler: %s/%s: %w", spec.Bench.Name(), spec.Mode, err)
		}
		err = m.Run("main", func(th *machine.Thread) {
			ex := engine.NewSimExec(th)
			if spec.Mode == ModeSequential {
				res.Report = engine.RunSequential(ex, spec.Bench, inputs, spec.Seed)
				return
			}
			width := min(spec.Bench.MaxInnerWidth(), spec.Cores)
			res.Report = engine.RunOriginal(ex, spec.Bench, inputs, width, spec.Seed)
		})
		if err != nil {
			return nil, fmt.Errorf("profiler: %s/%s: %w", spec.Bench.Name(), spec.Mode, err)
		}
		res.Cycles = m.Now()
		res.Acct = m.Accounting()
	case ModeSeqSTATS, ModeParSTATS:
		// STATS modes route through the engine's simulated-machine
		// scheduler: the same protocol body as the batch and streaming
		// schedulers, mapped onto machine threads.
		cfg := spec.Cfg
		cfg.Seed = spec.Seed
		if spec.Mode == ModeSeqSTATS {
			cfg.InnerWidth = 1
		}
		sim := &engine.SimScheduler{Config: mcfg, Options: opts}
		res.Report, runErr = sim.RunSlice(spec.Bench, inputs, cfg)
		if runErr != nil {
			return nil, fmt.Errorf("profiler: %s/%s: %w", spec.Bench.Name(), spec.Mode, runErr)
		}
		res.Cycles = sim.Cycles()
		res.Acct = sim.Accounting()
	default:
		return nil, fmt.Errorf("profiler: unknown mode %v", spec.Mode)
	}
	if mem != nil {
		res.Mem = mem.Totals()
	}
	res.Quality = spec.Bench.Quality(res.Report.Outputs)
	return res, nil
}

// Converge repeats spec with fresh seeds until the §IV-B rule holds ("as
// many times as necessary to achieve a tight confidence interval where
// 95% of the measurements are within 5% of the median") or maxRuns is
// reached. It returns all runs and the median-cycles summary.
func Converge(spec Spec, minRuns, maxRuns int) ([]*Result, stat.Summary, error) {
	if minRuns < 1 || maxRuns < minRuns {
		return nil, stat.Summary{}, fmt.Errorf("profiler: invalid run bounds %d..%d", minRuns, maxRuns)
	}
	var results []*Result
	var cycles []float64
	for i := 0; i < maxRuns; i++ {
		s := spec
		s.Seed = spec.Seed + uint64(i)*7919
		r, err := Run(s)
		if err != nil {
			return nil, stat.Summary{}, err
		}
		results = append(results, r)
		cycles = append(cycles, float64(r.Cycles))
		if stat.Converged(cycles, minRuns, 0.95, 0.05) {
			break
		}
	}
	return results, stat.Summarize(cycles), nil
}

// MedianCycles is a convenience wrapper: converge and return the median
// simulated time.
func MedianCycles(spec Spec, minRuns, maxRuns int) (int64, error) {
	_, sum, err := Converge(spec, minRuns, maxRuns)
	if err != nil {
		return 0, err
	}
	return int64(sum.Median), nil
}
