package experiments

import (
	"fmt"
	"io"

	"gostats/internal/engine"
	"gostats/internal/profiler"
	"gostats/internal/report"
)

// ScalingRow is one benchmark's speedup at one core count.
type ScalingRow struct {
	Benchmark string
	Cores     int
	Speedup   float64
	Chunks    int
	Aborts    int
}

// Scaling is the core-count scaling sweep, an extension of Fig. 9: the
// paper's motivating claim is that STATS TLP "has the potential of
// scaling linearly with the amount of inputs"; this artifact shows where
// each benchmark's curve bends on the simulated machine.
type Scaling struct {
	Cores []int
	Rows  []ScalingRow
}

// Scaling sweeps STATS-only speedups over a range of simulated core
// counts, scaling the chunk count with the cores (the tuned lookback and
// extra-state settings for the nearest configured core count are kept).
func (s *Session) Scaling() (*Scaling, error) {
	cores := []int{2, 4, 8, 14, 28, 56}
	out := &Scaling{Cores: cores}
	for _, name := range s.opt.Benchmarks {
		seq, err := s.seqRun(name)
		if err != nil {
			return nil, err
		}
		// Borrow the tuned short-memory settings from the largest
		// configured core count.
		tc, err := s.tunedFor(name, s.opt.MaxCores())
		if err != nil {
			return nil, err
		}
		for _, nc := range cores {
			chunks := engine.MaxChunks(s.inputLen[name], nc, 1)
			// Respect the tuned chunk ceiling: if the autotuner backed off
			// below the core count (mispeculation avoidance), scale that
			// ceiling proportionally.
			if tc.SeqSTATS.Chunks < s.opt.MaxCores() {
				scaled := tc.SeqSTATS.Chunks * nc / s.opt.MaxCores()
				if scaled < 1 {
					scaled = 1
				}
				if scaled < chunks {
					chunks = scaled
				}
			}
			r, err := s.run(runKey{bench: name, mode: profiler.ModeSeqSTATS, cores: nc, chunksOverride: chunks},
				engine.Config{
					Chunks:      chunks,
					Lookback:    tc.SeqSTATS.Lookback,
					ExtraStates: tc.SeqSTATS.ExtraStates,
					InnerWidth:  1,
				})
			if err != nil {
				return nil, err
			}
			out.Rows = append(out.Rows, ScalingRow{
				Benchmark: name,
				Cores:     nc,
				Speedup:   speedup(seq, r),
				Chunks:    r.Report.Chunks,
				Aborts:    r.Report.Aborts,
			})
		}
	}
	return out, nil
}

// Table renders the sweep.
func (sc *Scaling) Table() *report.Table {
	t := &report.Table{
		Title:  "Scaling (extension) — STATS-only speedup vs simulated cores",
		Header: []string{"benchmark", "cores", "chunks", "speedup", "aborts"},
	}
	for _, r := range sc.Rows {
		t.AddRow(r.Benchmark, fmt.Sprint(r.Cores), fmt.Sprint(r.Chunks),
			report.Speedup(r.Speedup), fmt.Sprint(r.Aborts))
	}
	return t
}

// Render writes the table plus one bar chart per benchmark.
func (sc *Scaling) Render(w io.Writer) {
	sc.Table().Render(w)
	perBench := map[string][]report.BarItem{}
	var order []string
	for _, r := range sc.Rows {
		if _, ok := perBench[r.Benchmark]; !ok {
			order = append(order, r.Benchmark)
		}
		perBench[r.Benchmark] = append(perBench[r.Benchmark], report.BarItem{
			Label: fmt.Sprintf("%d cores", r.Cores),
			Value: r.Speedup,
		})
	}
	for _, name := range order {
		bc := &report.BarChart{Title: name + " scaling", Unit: "x", Items: perBench[name]}
		bc.Render(w)
	}
}
