package experiments

import (
	"fmt"
	"io"
	"maps"
	"slices"

	"gostats/internal/critpath"
	"gostats/internal/engine"
	"gostats/internal/machine"
	"gostats/internal/memsim"
	"gostats/internal/profiler"
	"gostats/internal/report"
	"gostats/internal/rng"
	"gostats/internal/stat"
	"gostats/internal/trace"
)

// ---------------------------------------------------------------------------
// Fig. 9 — speedups by TLP source

// Fig9Row is one benchmark's speedups at one core count.
type Fig9Row struct {
	Benchmark string
	Cores     int
	// Original, SeqSTATS, ParSTATS are speedups over the sequential run
	// (the black, grey and red bars of Fig. 9).
	Original, SeqSTATS, ParSTATS float64
}

// Fig9 reproduces the paper's Fig. 9.
type Fig9 struct {
	Rows []Fig9Row
	// Geomean[cores] = {original, seqSTATS, parSTATS} geometric means
	// (the paper reports 3.7/3.76, 8.45/11.65, 10.61/14.77).
	Geomean map[int][3]float64
}

// Fig9 computes speedups for every benchmark, mode and core count.
func (s *Session) Fig9() (*Fig9, error) {
	out := &Fig9{Geomean: map[int][3]float64{}}
	perCore := map[int][3][]float64{}
	for _, name := range s.opt.Benchmarks {
		seqCy, err := s.modeMedian(name, profiler.ModeSequential, 1)
		if err != nil {
			return nil, err
		}
		for _, cores := range s.opt.Cores {
			row := Fig9Row{Benchmark: name, Cores: cores}
			sp := func(mode profiler.Mode) (float64, error) {
				cy, err := s.modeMedian(name, mode, cores)
				if err != nil || cy == 0 {
					return 0, err
				}
				return float64(seqCy) / float64(cy), nil
			}
			if row.Original, err = sp(profiler.ModeOriginal); err != nil {
				return nil, err
			}
			if row.SeqSTATS, err = sp(profiler.ModeSeqSTATS); err != nil {
				return nil, err
			}
			if row.ParSTATS, err = sp(profiler.ModeParSTATS); err != nil {
				return nil, err
			}
			out.Rows = append(out.Rows, row)
			acc := perCore[cores]
			acc[0] = append(acc[0], row.Original)
			acc[1] = append(acc[1], row.SeqSTATS)
			acc[2] = append(acc[2], row.ParSTATS)
			perCore[cores] = acc
		}
	}
	for _, cores := range slices.Sorted(maps.Keys(perCore)) {
		acc := perCore[cores]
		var g [3]float64
		for i := 0; i < 3; i++ {
			g[i] = stat.MustGeoMean(acc[i])
		}
		out.Geomean[cores] = g
	}
	return out, nil
}

// Table renders Fig. 9 as a table.
func (f *Fig9) Table() *report.Table {
	t := &report.Table{
		Title:  "Fig. 9 — speedup over sequential, by TLP source",
		Header: []string{"benchmark", "cores", "original", "seq-stats", "par-stats"},
	}
	for _, r := range f.Rows {
		t.AddRow(r.Benchmark, fmt.Sprint(r.Cores),
			report.Speedup(r.Original), report.Speedup(r.SeqSTATS), report.Speedup(r.ParSTATS))
	}
	// Core counts ascending: map order would shuffle the artifact's rows
	// from run to run.
	for _, cores := range slices.Sorted(maps.Keys(f.Geomean)) {
		g := f.Geomean[cores]
		t.AddRow("geomean", fmt.Sprint(cores),
			report.Speedup(g[0]), report.Speedup(g[1]), report.Speedup(g[2]))
	}
	return t
}

// Render writes the table and per-core bar charts.
func (f *Fig9) Render(w io.Writer) {
	f.Table().Render(w)
	byCores := map[int][]report.BarItem{}
	for _, r := range f.Rows {
		byCores[r.Cores] = append(byCores[r.Cores],
			report.BarItem{Label: r.Benchmark + "/orig", Value: r.Original},
			report.BarItem{Label: r.Benchmark + "/seqS", Value: r.SeqSTATS},
			report.BarItem{Label: r.Benchmark + "/parS", Value: r.ParSTATS},
		)
	}
	for _, cores := range slices.Sorted(maps.Keys(byCores)) {
		bc := &report.BarChart{
			Title: fmt.Sprintf("Fig. 9 (%d cores)", cores),
			Unit:  "x",
			Items: byCores[cores],
			Max:   float64(cores),
		}
		bc.Render(w)
	}
}

// ---------------------------------------------------------------------------
// Figs. 10–13 — loss decompositions

// LossRow is one benchmark's loss breakdown.
type LossRow struct {
	Benchmark string
	Cores     int
	Breakdown critpath.Breakdown
}

// FigLoss holds a set of loss decompositions (Fig. 10 or Fig. 12).
type FigLoss struct {
	Title string
	Rows  []LossRow
}

// decompose runs the §V-B methodology for one traced run.
func (s *Session) decompose(name string, r *profiler.Result, cores, chunks, width int) (critpath.Breakdown, error) {
	seq, err := s.seqRun(name)
	if err != nil {
		return critpath.Breakdown{}, err
	}
	an, err := critpath.New(r.Trace)
	if err != nil {
		return critpath.Breakdown{}, fmt.Errorf("experiments: %s: %w", name, err)
	}
	b := s.benches[name]
	inputs := b.Inputs(rng.New(s.opt.InputSeed))
	cpi := machine.DefaultConfig(cores).BaseCPI
	otC := engine.OracleRegionCycles(b, inputs, chunks, width, cores, cpi, s.opt.Seed)
	maxChunks := engine.MaxChunks(len(inputs), cores, width)
	omC := engine.OracleRegionCycles(b, inputs, maxChunks, width, cores, cpi, s.opt.Seed)
	oracle := critpath.Oracle{
		CleanTuned: oracleSpeedup(seq.Cycles, otC),
		CleanMax:   oracleSpeedup(seq.Cycles, omC),
	}
	return critpath.Decompose(an, seq.Cycles, cores, oracle), nil
}

func oracleSpeedup(seq, oracle int64) float64 {
	if oracle <= 0 {
		return 0
	}
	return float64(seq) / float64(oracle)
}

// Fig10 decomposes the combined-TLP runs at the largest core count.
func (s *Session) Fig10() (*FigLoss, error) {
	cores := s.opt.MaxCores()
	out := &FigLoss{Title: fmt.Sprintf("Fig. 10 — %% of speedup lost (original + STATS TLP, %d cores)", cores)}
	for _, name := range s.opt.Benchmarks {
		r, err := s.modeRun(name, profiler.ModeParSTATS, cores)
		if err != nil {
			return nil, err
		}
		tc, err := s.tunedFor(name, cores)
		if err != nil {
			return nil, err
		}
		bd, err := s.decompose(name, r, cores, tc.ParSTATS.Chunks, tc.ParSTATS.InnerWidth)
		if err != nil {
			return nil, err
		}
		out.Rows = append(out.Rows, LossRow{Benchmark: name, Cores: cores, Breakdown: bd})
	}
	return out, nil
}

// Fig12 decomposes STATS-TLP-only runs with chunks forced to the core
// count, at every configured core count (the paper's 14 and 28).
func (s *Session) Fig12() (*FigLoss, error) {
	out := &FigLoss{Title: "Fig. 12 — % of speedup lost (STATS TLP only, forced chunks = cores)"}
	for _, name := range s.opt.Benchmarks {
		for _, cores := range s.opt.Cores {
			r, err := s.forcedChunksRun(name, cores, cores)
			if err != nil {
				return nil, err
			}
			bd, err := s.decompose(name, r, cores, cores, 1)
			if err != nil {
				return nil, err
			}
			out.Rows = append(out.Rows, LossRow{Benchmark: name, Cores: cores, Breakdown: bd})
		}
	}
	return out, nil
}

// Table renders the loss decomposition as a table.
func (f *FigLoss) Table() *report.Table {
	header := []string{"benchmark", "cores", "speedup", "total-lost"}
	for l := 0; l < critpath.NumLosses; l++ {
		header = append(header, critpath.Loss(l).String())
	}
	t := &report.Table{Title: f.Title, Header: header}
	for _, r := range f.Rows {
		row := []string{
			r.Benchmark, fmt.Sprint(r.Cores),
			report.Speedup(r.Breakdown.Measured),
			fmt.Sprintf("%.1f%%", r.Breakdown.TotalLostPct),
		}
		for l := 0; l < critpath.NumLosses; l++ {
			row = append(row, fmt.Sprintf("%.1f%%", r.Breakdown.LostPct[l]))
		}
		t.AddRow(row...)
	}
	return t
}

// Render writes the table and stacked bars.
func (f *FigLoss) Render(w io.Writer) {
	f.Table().Render(w)
	legend := make([]string, critpath.NumLosses)
	for l := 0; l < critpath.NumLosses; l++ {
		legend[l] = critpath.Loss(l).String()
	}
	st := &report.Stacked{Title: f.Title + " (stacked)", Legend: legend}
	for _, r := range f.Rows {
		parts := make([]float64, critpath.NumLosses)
		copy(parts, r.Breakdown.LostPct[:])
		st.Items = append(st.Items, report.StackedItem{
			Label: fmt.Sprintf("%s@%d", r.Benchmark, r.Cores),
			Parts: parts,
			Note:  fmt.Sprintf("%.1f%% lost", r.Breakdown.TotalLostPct),
		})
	}
	st.Render(w)
}

// FigExtraTime is the extra-computation time breakdown (Figs. 11 and 13).
type FigExtraTime struct {
	Title string
	Rows  []LossRow
}

// Fig11 breaks down the extra-computation loss of the Fig. 10 runs.
func (s *Session) Fig11() (*FigExtraTime, error) {
	f10, err := s.Fig10()
	if err != nil {
		return nil, err
	}
	return &FigExtraTime{
		Title: fmt.Sprintf("Fig. 11 — extra-computation loss breakdown (original + STATS TLP, %d cores)", s.opt.MaxCores()),
		Rows:  f10.Rows,
	}, nil
}

// Fig13 breaks down the extra-computation loss of the Fig. 12 runs.
func (s *Session) Fig13() (*FigExtraTime, error) {
	f12, err := s.Fig12()
	if err != nil {
		return nil, err
	}
	return &FigExtraTime{
		Title: "Fig. 13 — extra-computation loss breakdown (STATS TLP only)",
		Rows:  f12.Rows,
	}, nil
}

// Table renders the breakdown.
func (f *FigExtraTime) Table() *report.Table {
	header := []string{"benchmark", "cores", "extra-comp-lost"}
	for p := 0; p < critpath.NumExtraParts; p++ {
		header = append(header, critpath.ExtraPart(p).String())
	}
	t := &report.Table{Title: f.Title, Header: header}
	for _, r := range f.Rows {
		row := []string{r.Benchmark, fmt.Sprint(r.Cores),
			fmt.Sprintf("%.1f%%", r.Breakdown.LostPct[critpath.LossExtraComputation])}
		for p := 0; p < critpath.NumExtraParts; p++ {
			row = append(row, fmt.Sprintf("%.2f%%", r.Breakdown.ExtraPct[p]))
		}
		t.AddRow(row...)
	}
	return t
}

// Render writes the table.
func (f *FigExtraTime) Render(w io.Writer) { f.Table().Render(w) }

// ---------------------------------------------------------------------------
// Figs. 14–15 — extra instructions

// Fig14Row is one benchmark's instruction overhead.
type Fig14Row struct {
	Benchmark string
	SeqInstr  int64
	ParInstr  int64
	// ExtraPct is (par-seq)/seq*100; negative for streamcluster and
	// streamclassifier (§V-C).
	ExtraPct float64
	// Parts[p] is the share of the *added* overhead instructions per
	// extra-computation component (Fig. 15).
	Parts [critpath.NumExtraParts]float64
}

// Fig14 reproduces Figs. 14 and 15 (instruction counts and their
// breakdown) at the largest core count.
type Fig14 struct {
	Cores int
	Rows  []Fig14Row
}

// Fig14 computes instruction overheads.
func (s *Session) Fig14() (*Fig14, error) {
	cores := s.opt.MaxCores()
	out := &Fig14{Cores: cores}
	for _, name := range s.opt.Benchmarks {
		seq, err := s.seqRun(name)
		if err != nil {
			return nil, err
		}
		par, err := s.modeRun(name, profiler.ModeParSTATS, cores)
		if err != nil {
			return nil, err
		}
		row := Fig14Row{
			Benchmark: name,
			SeqInstr:  seq.Acct.TotalInstr(),
			ParInstr:  par.Acct.TotalInstr(),
		}
		row.ExtraPct = float64(row.ParInstr-row.SeqInstr) / float64(row.SeqInstr) * 100

		partCats := [critpath.NumExtraParts][]trace.Category{
			critpath.PartSpeculativeState: {trace.CatAltProducer},
			critpath.PartOriginalStates:   {trace.CatOrigStates},
			critpath.PartComparisons:      {trace.CatCompare},
			critpath.PartSetup:            {trace.CatSetup, trace.CatSpawn, trace.CatSyncKernel},
			critpath.PartStateCopy:        {trace.CatStateCopy},
		}
		var overheadTotal int64
		var parts [critpath.NumExtraParts]int64
		for p, cats := range partCats {
			for _, c := range cats {
				parts[p] += par.Acct.Instr[c]
				overheadTotal += par.Acct.Instr[c]
			}
		}
		if overheadTotal > 0 {
			for p := range row.Parts {
				row.Parts[p] = float64(parts[p]) / float64(overheadTotal) * 100
			}
		}
		out.Rows = append(out.Rows, row)
	}
	return out, nil
}

// Table renders Fig. 14.
func (f *Fig14) Table() *report.Table {
	t := &report.Table{
		Title:  fmt.Sprintf("Fig. 14 — extra instructions executed by STATS binaries (%d cores)", f.Cores),
		Header: []string{"benchmark", "seq instr", "stats instr", "extra"},
	}
	for _, r := range f.Rows {
		t.AddRow(r.Benchmark, report.Billions(float64(r.SeqInstr)), report.Billions(float64(r.ParInstr)),
			fmt.Sprintf("%+.1f%%", r.ExtraPct))
	}
	return t
}

// BreakdownTable renders Fig. 15.
func (f *Fig14) BreakdownTable() *report.Table {
	header := []string{"benchmark"}
	for p := 0; p < critpath.NumExtraParts; p++ {
		header = append(header, critpath.ExtraPart(p).String())
	}
	t := &report.Table{
		Title:  fmt.Sprintf("Fig. 15 — breakdown of STATS-added instructions (%d cores)", f.Cores),
		Header: header,
	}
	for _, r := range f.Rows {
		row := []string{r.Benchmark}
		for p := 0; p < critpath.NumExtraParts; p++ {
			row = append(row, fmt.Sprintf("%.1f%%", r.Parts[p]))
		}
		t.AddRow(row...)
	}
	return t
}

// Render writes both tables.
func (f *Fig14) Render(w io.Writer) {
	f.Table().Render(w)
	f.BreakdownTable().Render(w)
}

// ---------------------------------------------------------------------------
// Table I — threads and states

// Table1Row is one benchmark's runtime resources.
type Table1Row struct {
	Benchmark  string
	Threads    int
	States     int
	StateBytes int64
	Chunks     int
}

// Table1 reproduces Table I at the largest core count.
type Table1 struct {
	Cores int
	Rows  []Table1Row
}

// Table1 collects resource counts from the combined-TLP runs.
func (s *Session) Table1() (*Table1, error) {
	cores := s.opt.MaxCores()
	out := &Table1{Cores: cores}
	for _, name := range s.opt.Benchmarks {
		r, err := s.modeRun(name, profiler.ModeParSTATS, cores)
		if err != nil {
			return nil, err
		}
		out.Rows = append(out.Rows, Table1Row{
			Benchmark:  name,
			Threads:    r.Report.ThreadsCreated,
			States:     r.Report.StatesCreated,
			StateBytes: r.Report.StateBytes,
			Chunks:     r.Report.Chunks,
		})
	}
	return out, nil
}

// Table renders Table I.
func (t1 *Table1) Table() *report.Table {
	t := &report.Table{
		Title:  fmt.Sprintf("Table I — threads and states created by STATS (%d cores)", t1.Cores),
		Header: []string{"benchmark", "#threads", "#states", "state size [bytes]", "#chunks"},
	}
	for _, r := range t1.Rows {
		t.AddRow(r.Benchmark, fmt.Sprint(r.Threads), fmt.Sprint(r.States),
			fmt.Sprint(r.StateBytes), fmt.Sprint(r.Chunks))
	}
	return t
}

// Render writes the table.
func (t1 *Table1) Render(w io.Writer) { t1.Table().Render(w) }

// ---------------------------------------------------------------------------
// Table II — cache and branch behaviour

// Table2Cell holds the counters of one mode.
type Table2Cell struct {
	Mem memsim.Counters
}

// Table2Row is one benchmark's architecture counters per mode.
type Table2Row struct {
	Benchmark  string
	Sequential Table2Cell
	Original   Table2Cell
	STATS      Table2Cell
}

// Table2 reproduces Table II.
type Table2 struct {
	Cores int
	Rows  []Table2Row
}

// Table2 runs the three modes with the cache/branch simulator attached.
// These runs are separate from the timing runs (the sampling simulator
// perturbs latencies).
func (s *Session) Table2() (*Table2, error) {
	cores := s.opt.MaxCores()
	out := &Table2{Cores: cores}
	for _, name := range s.opt.Benchmarks {
		b := s.benches[name]
		row := Table2Row{Benchmark: name}
		runMem := func(mode profiler.Mode, c int, cfg engine.Config) (memsim.Counters, error) {
			mc := memsim.DefaultConfig(c, 1)
			spec := profiler.Spec{
				Bench:     b,
				Mode:      mode,
				Cores:     c,
				Cfg:       cfg,
				InputSeed: s.opt.InputSeed,
				Seed:      s.opt.Seed,
				Memory:    &mc,
			}
			s.logf("mem %-18s %-10s cores=%d", name, mode, c)
			r, err := profiler.Run(spec)
			if err != nil {
				return memsim.Counters{}, err
			}
			return r.Mem, nil
		}
		var err error
		row.Sequential.Mem, err = runMem(profiler.ModeSequential, 1, engine.Config{})
		if err != nil {
			return nil, err
		}
		row.Original.Mem, err = runMem(profiler.ModeOriginal, cores, engine.Config{})
		if err != nil {
			return nil, err
		}
		cfg, err := s.cfgFor(name, profiler.ModeSeqSTATS, cores)
		if err != nil {
			return nil, err
		}
		row.STATS.Mem, err = runMem(profiler.ModeSeqSTATS, cores, cfg)
		if err != nil {
			return nil, err
		}
		out.Rows = append(out.Rows, row)
	}
	return out, nil
}

// Table renders Table II in the paper's count-(rate) format.
func (t2 *Table2) Table() *report.Table {
	t := &report.Table{
		Title:  fmt.Sprintf("Table II — cache misses and branch mispredictions (counts in billions, rate in parentheses); sequential / original %d cores / STATS %d cores", t2.Cores, t2.Cores),
		Header: []string{"benchmark", "mode", "L1D", "L2", "LLC", "BR"},
	}
	cell := func(m, a float64) string {
		return fmt.Sprintf("%.2f (%.1f%%)", m/1e9, ratioPct(m, a))
	}
	for _, r := range t2.Rows {
		for _, mc := range []struct {
			mode string
			c    memsim.Counters
		}{
			{"sequential", r.Sequential.Mem},
			{"original", r.Original.Mem},
			{"stats", r.STATS.Mem},
		} {
			t.AddRow(r.Benchmark, mc.mode,
				cell(mc.c.L1DMisses, mc.c.L1DAccesses),
				cell(mc.c.L2Misses, mc.c.L2Accesses),
				cell(mc.c.LLCMisses, mc.c.LLCAccesses),
				cell(mc.c.Mispredicts, mc.c.Branches))
		}
	}
	return t
}

func ratioPct(m, a float64) float64 {
	if a == 0 {
		return 0
	}
	return m / a * 100
}

// Render writes the table.
func (t2 *Table2) Render(w io.Writer) { t2.Table().Render(w) }
