package profiler

import (
	"testing"

	"gostats/internal/bench"
	_ "gostats/internal/bench/all"
	"gostats/internal/bench/swaptions"
	"gostats/internal/engine"
	"gostats/internal/machine"
	"gostats/internal/memsim"
	"gostats/internal/trace"
)

func smallSwaptions() bench.Benchmark {
	p := swaptions.Default()
	p.BatchesPerSwaption = 16
	p.RealSimsPerBatch = 200
	return swaptions.NewWithParams(p)
}

func baseSpec(mode Mode, cores int) Spec {
	return Spec{
		Bench:     smallSwaptions(),
		Mode:      mode,
		Cores:     cores,
		Cfg:       engine.Config{Chunks: 4, Lookback: 3, ExtraStates: 1, InnerWidth: 2},
		InputSeed: 1,
		Seed:      2,
	}
}

func TestRunSequential(t *testing.T) {
	r, err := Run(baseSpec(ModeSequential, 1))
	if err != nil {
		t.Fatal(err)
	}
	if r.Cycles <= 0 {
		t.Fatal("no cycles")
	}
	if len(r.Report.Outputs) != 64 {
		t.Fatalf("outputs = %d", len(r.Report.Outputs))
	}
}

func TestModesSpeedOrdering(t *testing.T) {
	seq, err := Run(baseSpec(ModeSequential, 1))
	if err != nil {
		t.Fatal(err)
	}
	stats, err := Run(baseSpec(ModeSeqSTATS, 8))
	if err != nil {
		t.Fatal(err)
	}
	if stats.Cycles >= seq.Cycles {
		t.Fatalf("STATS (%d) not faster than sequential (%d)", stats.Cycles, seq.Cycles)
	}
	// Seq-STATS must not use inner TLP.
	if stats.Report.ThreadsCreated != 4+1*3 { // 4 workers + 3 boundaries x 1 replica
		t.Fatalf("seq-stats threads = %d", stats.Report.ThreadsCreated)
	}
}

func TestOriginalModeUsesGang(t *testing.T) {
	r, err := Run(baseSpec(ModeOriginal, 8))
	if err != nil {
		t.Fatal(err)
	}
	// swaptions' original TLP: MaxInnerWidth (4) - 1 helpers.
	if r.Report.ThreadsCreated != 3 {
		t.Fatalf("original-mode gang helpers = %d, want 3", r.Report.ThreadsCreated)
	}
}

func TestTraceCollection(t *testing.T) {
	spec := baseSpec(ModeSeqSTATS, 4)
	spec.CollectTrace = true
	r, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if r.Trace == nil || len(r.Trace.Intervals) == 0 {
		t.Fatal("no trace collected")
	}
	if err := r.Trace.Validate(); err != nil {
		t.Fatal(err)
	}
	if r.Trace.CyclesByCategory()[trace.CatAltProducer] == 0 {
		t.Fatal("trace missing alt-producer intervals")
	}
}

func TestMemoryCounters(t *testing.T) {
	spec := baseSpec(ModeSequential, 2)
	mc := memsim.DefaultConfig(2, 1)
	spec.Memory = &mc
	r, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if r.Mem.L1DAccesses == 0 || r.Mem.Branches == 0 {
		t.Fatalf("memory counters empty: %+v", r.Mem)
	}
}

func TestQualityScored(t *testing.T) {
	r, err := Run(baseSpec(ModeSequential, 1))
	if err != nil {
		t.Fatal(err)
	}
	if r.Quality < -0.05 || r.Quality > 0 {
		t.Fatalf("quality %g implausible for swaptions", r.Quality)
	}
}

func TestValidationErrors(t *testing.T) {
	if _, err := Run(Spec{Bench: nil, Mode: ModeSequential, Cores: 1}); err == nil {
		t.Fatal("nil benchmark accepted")
	}
	if _, err := Run(Spec{Bench: smallSwaptions(), Mode: ModeSequential, Cores: 0}); err == nil {
		t.Fatal("zero cores accepted")
	}
	bad := baseSpec(ModeSeqSTATS, 4)
	bad.Cfg.Chunks = 0
	if _, err := Run(bad); err == nil {
		t.Fatal("invalid STATS config accepted")
	}
}

// A platform machine.Config refuses is an error in every mode, not a
// panic.
func TestInvalidPlatformErrors(t *testing.T) {
	for _, mode := range []Mode{ModeSequential, ModeOriginal, ModeSeqSTATS, ModeParSTATS} {
		spec := baseSpec(mode, 4)
		spec.MachineConfig = &machine.Config{} // Quantum, BaseCPI and the copy rate are zero
		if _, err := Run(spec); err == nil {
			t.Errorf("%s: invalid platform accepted", mode)
		}
	}
}

func TestDeterministicRuns(t *testing.T) {
	a, err := Run(baseSpec(ModeParSTATS, 8))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(baseSpec(ModeParSTATS, 8))
	if err != nil {
		t.Fatal(err)
	}
	if a.Cycles != b.Cycles || a.Quality != b.Quality {
		t.Fatalf("identical specs diverged: %d/%g vs %d/%g", a.Cycles, a.Quality, b.Cycles, b.Quality)
	}
}

func TestSeedChangesNondeterminism(t *testing.T) {
	s1 := baseSpec(ModeSequential, 1)
	s2 := s1
	s2.Seed = 99
	a, err := Run(s1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(s2)
	if err != nil {
		t.Fatal(err)
	}
	if a.Quality == b.Quality {
		t.Fatal("different seeds produced identical quality (no nondeterminism?)")
	}
}

func TestConverge(t *testing.T) {
	results, sum, err := Converge(baseSpec(ModeSeqSTATS, 4), 3, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) < 3 {
		t.Fatalf("converged with only %d runs", len(results))
	}
	if sum.Median <= 0 {
		t.Fatalf("median cycles %g", sum.Median)
	}
	if _, _, err := Converge(baseSpec(ModeSequential, 1), 0, 5); err == nil {
		t.Fatal("invalid run bounds accepted")
	}
}

func TestMedianCycles(t *testing.T) {
	m, err := MedianCycles(baseSpec(ModeSequential, 1), 2, 5)
	if err != nil {
		t.Fatal(err)
	}
	if m <= 0 {
		t.Fatalf("median = %d", m)
	}
}

func TestModeStrings(t *testing.T) {
	seen := map[string]bool{}
	for _, m := range []Mode{ModeSequential, ModeOriginal, ModeSeqSTATS, ModeParSTATS} {
		s := m.String()
		if s == "" || seen[s] {
			t.Fatalf("bad mode name %q", s)
		}
		seen[s] = true
	}
}
