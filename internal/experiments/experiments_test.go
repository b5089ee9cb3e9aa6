package experiments

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"gostats/internal/autotune"
	_ "gostats/internal/bench/all"
	"gostats/internal/critpath"
	"gostats/internal/profiler"
)

// fastSession uses the two cheapest benchmarks at small core counts.
func fastSession(t *testing.T) *Session {
	t.Helper()
	s, err := NewSession(Options{
		Benchmarks:  []string{"facedet-and-track", "facetrack"},
		Cores:       []int{4, 8},
		QualityRuns: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestSessionRejectsUnknownBenchmark(t *testing.T) {
	if _, err := NewSession(Options{Benchmarks: []string{"nope"}}); err == nil {
		t.Fatal("unknown benchmark accepted")
	}
}

func TestOptionsDefaults(t *testing.T) {
	o := Options{}.withDefaults()
	if len(o.Benchmarks) != 6 {
		t.Fatalf("default benchmarks = %v", o.Benchmarks)
	}
	if len(o.Cores) != 2 || o.Cores[0] != 14 || o.Cores[1] != 28 {
		t.Fatalf("default cores = %v", o.Cores)
	}
	if o.MaxCores() != 28 {
		t.Fatalf("MaxCores = %d", o.MaxCores())
	}
}

func TestFig9Structure(t *testing.T) {
	s := fastSession(t)
	f, err := s.Fig9()
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Rows) != 2*2 {
		t.Fatalf("rows = %d", len(f.Rows))
	}
	for _, r := range f.Rows {
		if r.Original <= 0 || r.SeqSTATS <= 0 || r.ParSTATS <= 0 {
			t.Fatalf("non-positive speedup in %+v", r)
		}
		// STATS must beat the original TLP for these benchmarks.
		if r.SeqSTATS < r.Original*0.5 {
			t.Errorf("%s@%d: seq-stats %.2f far below original %.2f", r.Benchmark, r.Cores, r.SeqSTATS, r.Original)
		}
	}
	if len(f.Geomean) != 2 {
		t.Fatalf("geomeans = %v", f.Geomean)
	}
	var buf bytes.Buffer
	f.Render(&buf)
	out := buf.String()
	if !strings.Contains(out, "geomean") {
		t.Fatal("render missing geomean")
	}
	// The artifact is a pure function of the figure: core counts
	// ascending, the same bytes every time. Map order passes a single
	// render most of the time, so render it a hundred times.
	if i, j := strings.Index(out, "(4 cores)"), strings.Index(out, "(8 cores)"); i < 0 || j < i {
		t.Fatalf("bar charts not in ascending core order:\n%s", out)
	}
	for n := 0; n < 100; n++ {
		buf.Reset()
		f.Render(&buf)
		if buf.String() != out {
			t.Fatalf("render %d differs from the first:\n%s\nfirst:\n%s", n+2, buf.String(), out)
		}
	}
}

func TestRunCachingReusesResults(t *testing.T) {
	s := fastSession(t)
	if _, err := s.Fig9(); err != nil {
		t.Fatal(err)
	}
	n := len(s.runs)
	// Fig. 10 reuses the par-STATS runs; only decompositions are new.
	if _, err := s.Fig10(); err != nil {
		t.Fatal(err)
	}
	if len(s.runs) != n {
		t.Fatalf("Fig10 created %d new runs; caching broken", len(s.runs)-n)
	}
}

func TestFig10LossesSumAndRender(t *testing.T) {
	s := fastSession(t)
	f, err := s.Fig10()
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Rows) != 2 {
		t.Fatalf("rows = %d", len(f.Rows))
	}
	for _, r := range f.Rows {
		sum := 0.0
		for _, v := range r.Breakdown.LostPct {
			if v < 0 {
				t.Fatalf("%s: negative loss %v", r.Benchmark, r.Breakdown.LostPct)
			}
			sum += v
		}
		if math.Abs(sum-r.Breakdown.TotalLostPct) > 1e-6 {
			t.Fatalf("%s: losses sum %.3f != total %.3f", r.Benchmark, sum, r.Breakdown.TotalLostPct)
		}
	}
	var buf bytes.Buffer
	f.Render(&buf)
	if !strings.Contains(buf.String(), "legend:") {
		t.Fatal("stacked render missing legend")
	}
}

func TestFig11PartsSumToExtraLoss(t *testing.T) {
	s := fastSession(t)
	f, err := s.Fig11()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range f.Rows {
		sum := 0.0
		for _, v := range r.Breakdown.ExtraPct {
			sum += v
		}
		if math.Abs(sum-r.Breakdown.LostPct[critpath.LossExtraComputation]) > 1e-6 {
			t.Fatalf("%s: extra parts sum %.3f != extra loss %.3f",
				r.Benchmark, sum, r.Breakdown.LostPct[critpath.LossExtraComputation])
		}
	}
}

func TestFig12ForcedChunks(t *testing.T) {
	s := fastSession(t)
	f, err := s.Fig12()
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Rows) != 2*2 {
		t.Fatalf("rows = %d", len(f.Rows))
	}
	// Forced runs must exist in the cache with the override key.
	found := false
	for k := range s.runs {
		if k.chunksOverride > 0 {
			found = true
		}
	}
	if !found {
		t.Fatal("no forced-chunk runs recorded")
	}
}

func TestFig14InstrAccounting(t *testing.T) {
	s := fastSession(t)
	f, err := s.Fig14()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range f.Rows {
		if r.SeqInstr <= 0 || r.ParInstr <= 0 {
			t.Fatalf("%s: non-positive instruction counts", r.Benchmark)
		}
		partSum := 0.0
		for _, p := range r.Parts {
			partSum += p
		}
		if partSum < 99 || partSum > 101 {
			t.Fatalf("%s: Fig. 15 parts sum to %.2f%%", r.Benchmark, partSum)
		}
	}
	var buf bytes.Buffer
	f.Render(&buf)
	if !strings.Contains(buf.String(), "Fig. 15") {
		t.Fatal("render missing Fig. 15 table")
	}
}

func TestTable1(t *testing.T) {
	s := fastSession(t)
	tb, err := s.Table1()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range tb.Rows {
		if r.Threads < r.Chunks {
			t.Fatalf("%s: threads %d < chunks %d", r.Benchmark, r.Threads, r.Chunks)
		}
		if r.StateBytes != 8000 {
			t.Fatalf("%s: state bytes %d", r.Benchmark, r.StateBytes)
		}
	}
}

func TestTable2CountersPopulated(t *testing.T) {
	s := fastSession(t)
	tb, err := s.Table2()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range tb.Rows {
		for _, c := range []Table2Cell{r.Sequential, r.Original, r.STATS} {
			if c.Mem.L1DAccesses == 0 || c.Mem.Branches == 0 {
				t.Fatalf("%s: empty counters %+v", r.Benchmark, c.Mem)
			}
			if c.Mem.L1DMisses > c.Mem.L1DAccesses {
				t.Fatalf("%s: misses exceed accesses", r.Benchmark)
			}
		}
	}
	var buf bytes.Buffer
	tb.Render(&buf)
	if !strings.Contains(buf.String(), "Table II") {
		t.Fatal("render missing title")
	}
}

func TestFig16(t *testing.T) {
	s := fastSession(t)
	f, err := s.Fig16()
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Rows) != 2 {
		t.Fatalf("rows = %d", len(f.Rows))
	}
	for _, r := range f.Rows {
		if r.Summary.Original.N != 3 || r.Summary.STATS.N != 3 {
			t.Fatalf("%s: sample sizes %d/%d", r.Benchmark, r.Summary.Original.N, r.Summary.STATS.N)
		}
	}
}

func TestArtifactRegistry(t *testing.T) {
	arts := Artifacts()
	want := []string{"table1", "fig9", "fig10", "fig11", "fig12", "fig13", "fig14", "table2", "fig16", "scaling", "ablation-copy", "ablation-sync", "ablation-lookback", "ablation-extrastates", "profile", "tuned"}
	if len(arts) != len(want) {
		t.Fatalf("artifacts = %d", len(arts))
	}
	for i, a := range arts {
		if a.ID != want[i] {
			t.Fatalf("artifact %d = %q, want %q", i, a.ID, want[i])
		}
		if a.Title == "" || a.Run == nil {
			t.Fatalf("artifact %q incomplete", a.ID)
		}
	}
	if _, ok := ArtifactByID("fig9"); !ok {
		t.Fatal("fig9 lookup failed")
	}
	if _, ok := ArtifactByID("nope"); ok {
		t.Fatal("phantom artifact found")
	}
}

func TestTunedForFallback(t *testing.T) {
	s := fastSession(t)
	tc, err := s.tunedFor("facetrack", 4) // not in the shipped table
	if err != nil {
		t.Fatal(err)
	}
	if tc.SeqSTATS.Chunks < 1 || tc.SeqSTATS.InnerWidth != 1 {
		t.Fatalf("fallback config %+v", tc)
	}
}

func TestTuneBenchmarkSmallBudget(t *testing.T) {
	s := fastSession(t)
	tc, err := TuneBenchmark(s.benches["facedet-and-track"], 4, 6, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if tc.SeqSTATS.Chunks < 1 || tc.ParSTATS.Chunks < 1 {
		t.Fatalf("tuned config %+v", tc)
	}
	if tc.SeqSTATS.InnerWidth != 1 {
		t.Fatalf("STATS-only tuning chose width %d", tc.SeqSTATS.InnerWidth)
	}
}

func TestSeqSTATSRunBeatsSequentialForFaceDet(t *testing.T) {
	s := fastSession(t)
	seq, err := s.seqRun("facedet-and-track")
	if err != nil {
		t.Fatal(err)
	}
	par, err := s.modeRun("facedet-and-track", profiler.ModeSeqSTATS, 8)
	if err != nil {
		t.Fatal(err)
	}
	if par.Cycles >= seq.Cycles {
		t.Fatalf("STATS (%d) not faster than sequential (%d)", par.Cycles, seq.Cycles)
	}
}

func TestAblations(t *testing.T) {
	s := fastSession(t)
	lb, err := s.AblationLookback()
	if err != nil {
		t.Fatal(err)
	}
	if len(lb.Rows) != 6 {
		t.Fatalf("lookback rows = %d", len(lb.Rows))
	}
	// Tiny k must mispeculate more than generous k.
	if lb.Rows[0].Aborts < lb.Rows[4].Aborts {
		t.Errorf("k=1 aborts (%d) < k=18 aborts (%d)", lb.Rows[0].Aborts, lb.Rows[4].Aborts)
	}
	sync, err := s.AblationSync()
	if err != nil {
		t.Fatal(err)
	}
	// Cheaper sync must not slow anything down.
	for i := 1; i < len(sync.Rows); i++ {
		if sync.Rows[i].Benchmark == sync.Rows[i-1].Benchmark &&
			sync.Rows[i].Speedup < sync.Rows[i-1].Speedup*0.98 {
			t.Errorf("cheaper sync slowed %s: %.2f -> %.2f",
				sync.Rows[i].Benchmark, sync.Rows[i-1].Speedup, sync.Rows[i].Speedup)
		}
	}
	cp, err := s.AblationCopy()
	if err != nil {
		t.Fatal(err)
	}
	if len(cp.Rows) == 0 {
		t.Fatal("no copy-ablation rows")
	}
	es, err := s.AblationExtraStates()
	if err != nil {
		t.Fatal(err)
	}
	// More original states must not increase aborts.
	for i := 1; i < len(es.Rows); i++ {
		if es.Rows[i].Benchmark == es.Rows[i-1].Benchmark &&
			es.Rows[i].Aborts > es.Rows[i-1].Aborts {
			t.Errorf("more extra states raised aborts for %s: %d -> %d",
				es.Rows[i].Benchmark, es.Rows[i-1].Aborts, es.Rows[i].Aborts)
		}
	}
}

func TestWriteCSVs(t *testing.T) {
	s := fastSession(t)
	dir := t.TempDir()
	if err := WriteCSVs(s, dir); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"fig9", "fig10", "fig11", "fig12", "fig13", "fig14", "fig15", "table1", "table2", "fig16"} {
		st, err := os.Stat(filepath.Join(dir, name+".csv"))
		if err != nil {
			t.Fatalf("%s.csv: %v", name, err)
		}
		if st.Size() == 0 {
			t.Fatalf("%s.csv empty", name)
		}
	}
}

func TestScalingSweep(t *testing.T) {
	s, err := NewSession(Options{
		Benchmarks:  []string{"facedet-and-track"},
		Cores:       []int{4, 8},
		QualityRuns: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	sc, err := s.Scaling()
	if err != nil {
		t.Fatal(err)
	}
	if len(sc.Rows) != len(sc.Cores) {
		t.Fatalf("rows = %d, want %d", len(sc.Rows), len(sc.Cores))
	}
	// Speedup at many cores must beat speedup at 2 cores.
	if sc.Rows[len(sc.Rows)-1].Speedup <= sc.Rows[0].Speedup {
		t.Fatalf("no scaling: %v -> %v", sc.Rows[0], sc.Rows[len(sc.Rows)-1])
	}
}

func TestFig9WithRepeats(t *testing.T) {
	s, err := NewSession(Options{
		Benchmarks:  []string{"facedet-and-track"},
		Cores:       []int{4},
		QualityRuns: 2,
		Repeats:     4,
	})
	if err != nil {
		t.Fatal(err)
	}
	f, err := s.Fig9()
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Rows) != 1 || f.Rows[0].SeqSTATS <= 0 {
		t.Fatalf("rows = %+v", f.Rows)
	}
}

// TestTunedRoundTripsShippedTable requires the tuned artifact, with no
// tuning budget and no override, to print shippedTuned's declaration in
// tuned.go byte for byte: the artifact is how a retuned table is
// regenerated, so what it prints must be what the file holds.
func TestTunedRoundTripsShippedTable(t *testing.T) {
	src, err := os.ReadFile("tuned.go")
	if err != nil {
		t.Fatal(err)
	}
	start := bytes.Index(src, []byte("var shippedTuned = "))
	end := bytes.Index(src[start:], []byte("\n}\n"))
	if start < 0 || end < 0 {
		t.Fatal("tuned.go: no shippedTuned declaration")
	}
	want := string(src[start : start+end+3])

	s, err := NewSession(Options{Cores: []int{14, 28}})
	if err != nil {
		t.Fatal(err)
	}
	a, ok := ArtifactByID("tuned")
	if !ok {
		t.Fatal("no tuned artifact")
	}
	var out bytes.Buffer
	if err := a.Run(s, &out); err != nil {
		t.Fatal(err)
	}
	if out.String() != want {
		t.Fatalf("tuned artifact prints\n%s\ntuned.go declares\n%s", out.String(), want)
	}
}

// TestTunedOverrideFieldByField holds the STATS config overrides to their
// contract: a positive field replaces the tuned value in both STATS modes,
// zero keeps it, and the width reaches par-STATS only.
func TestTunedOverrideFieldByField(t *testing.T) {
	s, err := NewSession(Options{
		Benchmarks: []string{"bodytrack"},
		Override:   autotune.Point{Lookback: 9, InnerWidth: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	tc, err := s.tunedFor("bodytrack", 28)
	if err != nil {
		t.Fatal(err)
	}
	shipped := shippedTuned[tunedKey{"bodytrack", 28}]
	want := TunedConfig{
		SeqSTATS: autotune.Point{Chunks: shipped.SeqSTATS.Chunks, Lookback: 9, ExtraStates: shipped.SeqSTATS.ExtraStates, InnerWidth: 1},
		ParSTATS: autotune.Point{Chunks: shipped.ParSTATS.Chunks, Lookback: 9, ExtraStates: shipped.ParSTATS.ExtraStates, InnerWidth: 4},
	}
	if tc != want {
		t.Fatalf("overridden config %+v, want %+v", tc, want)
	}
	if _, err := NewSession(Options{Override: autotune.Point{Chunks: -1}}); err == nil {
		t.Fatal("negative override accepted")
	}
}
