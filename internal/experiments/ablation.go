package experiments

import (
	"fmt"
	"io"

	"gostats/internal/engine"
	"gostats/internal/machine"
	"gostats/internal/profiler"
	"gostats/internal/report"
)

// Ablation studies quantify the paper's proposed evolutions of STATS
// (§V-C and the conclusion): how much speedup a faster state-copy
// operator, cheaper synchronization, or better design-space choices would
// unlock. They are extensions of the characterization — the paper argues
// for these changes qualitatively; the simulator lets us price them.

// AblationRow is one configuration point of a sensitivity sweep.
type AblationRow struct {
	Benchmark string
	Label     string
	Speedup   float64
	Commits   int
	Aborts    int
}

// Ablation is one sensitivity study.
type Ablation struct {
	Title string
	Rows  []AblationRow
}

// Table renders the sweep.
func (a *Ablation) Table() *report.Table {
	t := &report.Table{
		Title:  a.Title,
		Header: []string{"benchmark", "variant", "speedup", "commits", "aborts"},
	}
	for _, r := range a.Rows {
		t.AddRow(r.Benchmark, r.Label, report.Speedup(r.Speedup),
			fmt.Sprint(r.Commits), fmt.Sprint(r.Aborts))
	}
	return t
}

// Render writes the table.
func (a *Ablation) Render(w io.Writer) { a.Table().Render(w) }

// ablationRun executes one par-STATS run with an optional machine-config
// mutation and an optional STATS-config mutation, returning the speedup
// against the *unmutated* sequential baseline.
func (s *Session) ablationRun(name string, cores int,
	mutateMachine func(*machine.Config), mutateCfg func(*engine.Config)) (AblationRow, error) {
	seq, err := s.seqRun(name)
	if err != nil {
		return AblationRow{}, err
	}
	tc, err := s.tunedFor(name, cores)
	if err != nil {
		return AblationRow{}, err
	}
	cfg := engine.Config{
		Chunks:      tc.ParSTATS.Chunks,
		Lookback:    tc.ParSTATS.Lookback,
		ExtraStates: tc.ParSTATS.ExtraStates,
		InnerWidth:  tc.ParSTATS.InnerWidth,
	}
	if mutateCfg != nil {
		mutateCfg(&cfg)
	}
	mcfg := machine.DefaultConfig(cores)
	if mutateMachine != nil {
		mutateMachine(&mcfg)
	}
	spec := profiler.Spec{
		Bench:         s.benches[name],
		Mode:          profiler.ModeParSTATS,
		Cores:         cores,
		Cfg:           cfg,
		InputSeed:     s.opt.InputSeed,
		Seed:          s.opt.Seed,
		MachineConfig: &mcfg,
	}
	s.logf("ablation %-18s cores=%d cfg=%+v", name, cores, cfg)
	r, err := profiler.Run(spec)
	if err != nil {
		return AblationRow{}, err
	}
	return AblationRow{
		Benchmark: name,
		Speedup:   float64(seq.Cycles) / float64(r.Cycles),
		Commits:   r.Report.Commits,
		Aborts:    r.Report.Aborts,
	}, nil
}

// AblationCopy prices the paper's §V-C suggestion: "improving STATS by
// accelerating the state copy operator is still valuable ... another
// solution could be to exploit hardware accelerators for this task". It
// sweeps the copy bandwidth (and a free-copy limit) for the benchmarks
// with the largest states.
func (s *Session) AblationCopy() (*Ablation, error) {
	cores := s.opt.MaxCores()
	out := &Ablation{Title: fmt.Sprintf("Ablation — state-copy bandwidth (par-STATS, %d cores)", cores)}
	variants := []struct {
		label string
		mut   func(*machine.Config)
	}{
		{"1x (baseline)", nil},
		{"4x bandwidth", func(c *machine.Config) { c.CopyBytesPerCycle *= 4 }},
		{"16x bandwidth", func(c *machine.Config) { c.CopyBytesPerCycle *= 16 }},
		{"free copies", func(c *machine.Config) {
			c.CopyBytesPerCycle = 1e12
			c.CopySetupCost = 0
			c.InstrPerCopiedByte = 0
		}},
	}
	for _, name := range s.pick("bodytrack", "facetrack") {
		for _, v := range variants {
			row, err := s.ablationRun(name, cores, v.mut, nil)
			if err != nil {
				return nil, err
			}
			row.Label = v.label
			out.Rows = append(out.Rows, row)
		}
	}
	return out, nil
}

// AblationSync prices the "engineering efforts" the paper says can remove
// part of the synchronization overhead (§III-C, §VII): cheaper kernel
// entries and wake paths.
func (s *Session) AblationSync() (*Ablation, error) {
	cores := s.opt.MaxCores()
	out := &Ablation{Title: fmt.Sprintf("Ablation — synchronization cost (par-STATS, %d cores)", cores)}
	scale := func(f float64) func(*machine.Config) {
		return func(c *machine.Config) {
			c.MutexCost = int64(float64(c.MutexCost) * f)
			c.KernelWakeCost = int64(float64(c.KernelWakeCost) * f)
			c.WakeLatency = int64(float64(c.WakeLatency) * f)
			c.CrossSocketWakeExtra = int64(float64(c.CrossSocketWakeExtra) * f)
		}
	}
	variants := []struct {
		label string
		mut   func(*machine.Config)
	}{
		{"1x (baseline)", nil},
		{"0.5x sync cost", scale(0.5)},
		{"0.1x sync cost", scale(0.1)},
	}
	for _, name := range s.pick("facedet-and-track", "streamcluster") {
		for _, v := range variants {
			row, err := s.ablationRun(name, cores, v.mut, nil)
			if err != nil {
				return nil, err
			}
			row.Label = v.label
			out.Rows = append(out.Rows, row)
		}
	}
	return out, nil
}

// AblationLookback sweeps the assumed short-memory length k for the
// mispeculation-limited benchmark: too small a k aborts (case (i) of
// §II-B), too large a k wastes alternative-producer work.
func (s *Session) AblationLookback() (*Ablation, error) {
	cores := s.opt.MaxCores()
	out := &Ablation{Title: fmt.Sprintf("Ablation — alternative-producer lookback k (facetrack, %d cores)", cores)}
	for _, name := range s.pick("facetrack") {
		for _, k := range []int{1, 3, 6, 12, 18, 24} {
			k := k
			row, err := s.ablationRun(name, cores, nil, func(c *engine.Config) { c.Lookback = k })
			if err != nil {
				return nil, err
			}
			row.Label = fmt.Sprintf("k=%d", k)
			out.Rows = append(out.Rows, row)
		}
	}
	return out, nil
}

// AblationExtraStates sweeps the number of extra original states: more
// states raise the commit probability of nondeterministic programs at the
// price of replicated computation (§III-B).
func (s *Session) AblationExtraStates() (*Ablation, error) {
	cores := s.opt.MaxCores()
	out := &Ablation{Title: fmt.Sprintf("Ablation — extra original states (par-STATS, %d cores)", cores)}
	for _, name := range s.pick("facetrack", "streamclassifier") {
		for _, e := range []int{0, 1, 2, 3} {
			e := e
			row, err := s.ablationRun(name, cores, nil, func(c *engine.Config) { c.ExtraStates = e })
			if err != nil {
				return nil, err
			}
			row.Label = fmt.Sprintf("extra=%d", e)
			out.Rows = append(out.Rows, row)
		}
	}
	return out, nil
}

// pick filters the wanted benchmarks to those present in the session.
func (s *Session) pick(names ...string) []string {
	var out []string
	for _, n := range names {
		if _, ok := s.benches[n]; ok {
			out = append(out, n)
		}
	}
	return out
}

// ablationArtifacts returns the extension artifacts.
func ablationArtifacts() []Artifact {
	return []Artifact{
		{"scaling", "Scaling (extension) — STATS speedup vs cores", func(s *Session, w io.Writer) error {
			a, err := s.Scaling()
			if err != nil {
				return err
			}
			a.Render(w)
			return nil
		}},
		{"ablation-copy", "Ablation (extension) — state-copy bandwidth", func(s *Session, w io.Writer) error {
			a, err := s.AblationCopy()
			if err != nil {
				return err
			}
			a.Render(w)
			return nil
		}},
		{"ablation-sync", "Ablation (extension) — synchronization cost", func(s *Session, w io.Writer) error {
			a, err := s.AblationSync()
			if err != nil {
				return err
			}
			a.Render(w)
			return nil
		}},
		{"ablation-lookback", "Ablation (extension) — lookback k", func(s *Session, w io.Writer) error {
			a, err := s.AblationLookback()
			if err != nil {
				return err
			}
			a.Render(w)
			return nil
		}},
		{"ablation-extrastates", "Ablation (extension) — extra original states", func(s *Session, w io.Writer) error {
			a, err := s.AblationExtraStates()
			if err != nil {
				return err
			}
			a.Render(w)
			return nil
		}},
	}
}
