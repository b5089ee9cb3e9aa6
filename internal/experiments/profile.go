package experiments

import (
	"fmt"
	"io"

	"gostats/internal/critpath"
	"gostats/internal/profiler"
	"gostats/internal/report"
	"gostats/internal/trace"
)

// profileModes are the four execution modes a profile reports: the
// sequential baseline, then Fig. 9's bars. The last two are the STATS
// modes, which a profile also analyses on the critical path.
var profileModes = [...]profiler.Mode{
	profiler.ModeSequential, profiler.ModeOriginal, profiler.ModeSeqSTATS, profiler.ModeParSTATS,
}

// profileWhatIfs are the §V-B what-if emulations a profile prices: each
// removes one overhead class from the critical path and replays it.
var profileWhatIfs = []struct {
	name string
	w    critpath.WhatIf
}{
	{"none (replay)", critpath.WhatIf{}},
	{"extra computation", critpath.WhatIf{Removed: critpath.ExtraComputationSet}},
	{"synchronization", critpath.WhatIf{Removed: critpath.SyncSet, RemoveWakeLatency: true}},
	{"re-execution", critpath.WhatIf{Removed: critpath.Set(trace.CatReexec)}},
	{"sequential code", critpath.WhatIf{Removed: critpath.Set(trace.CatSeqCode)}},
	{"all of the above", critpath.WhatIf{
		Removed:           critpath.ExtraComputationSet.Union(critpath.SyncSet).Union(critpath.Set(trace.CatReexec, trace.CatSeqCode)),
		RemoveWakeLatency: true,
	}},
}

// ProfileMode is one mode's run inside a profile.
type ProfileMode struct {
	Mode profiler.Mode
	// Config describes the configuration the run used.
	Config string
	Run    *profiler.Result
	// Path and WhatIf are the critical-path analysis of a STATS run: cycles
	// on the measured critical path per category, and the makespan of each
	// profileWhatIfs entry. Both are empty for the first two modes.
	Path   [trace.NumCategories]int64
	WhatIf []int64
}

// ProfileRow is the deep dive into one benchmark at one core count.
type ProfileRow struct {
	Benchmark, Describe string
	Cores, Inputs       int
	Modes               [len(profileModes)]ProfileMode
}

// Profile is the per-run accounting behind the figures: for every
// benchmark and core count, each mode's cycles, instructions, commit
// outcomes and resources, and for the STATS modes where the critical path
// goes and what removing each overhead would buy. It reuses the runs of
// Fig. 9; the loss decompositions of the same runs are Figs. 10–13.
type Profile struct {
	Rows []ProfileRow
}

// Profile builds the deep dive for every benchmark and core count.
func (s *Session) Profile() (*Profile, error) {
	out := &Profile{}
	for _, name := range s.opt.Benchmarks {
		b := s.benches[name]
		for _, cores := range s.opt.Cores {
			row := ProfileRow{Benchmark: name, Describe: b.Describe(), Cores: cores, Inputs: s.inputLen[name]}
			for i, mode := range profileModes {
				pm := &row.Modes[i]
				pm.Mode = mode
				var err error
				switch mode {
				case profiler.ModeSequential:
					pm.Config = "-"
					pm.Run, err = s.seqRun(name)
				case profiler.ModeOriginal:
					pm.Config = fmt.Sprintf("width=%d", min(b.MaxInnerWidth(), cores))
					pm.Run, err = s.modeRun(name, mode, cores)
				default:
					err = s.profileSTATS(pm, name, cores)
				}
				if err != nil {
					return nil, err
				}
			}
			out.Rows = append(out.Rows, row)
		}
	}
	return out, nil
}

// profileSTATS fills pm with a STATS mode's run and its critical-path
// analysis.
func (s *Session) profileSTATS(pm *ProfileMode, name string, cores int) error {
	cfg, err := s.cfgFor(name, pm.Mode, cores)
	if err != nil {
		return err
	}
	pm.Config = fmt.Sprintf("chunks=%d k=%d extra=%d width=%d", cfg.Chunks, cfg.Lookback, cfg.ExtraStates, cfg.InnerWidth)
	if pm.Run, err = s.modeRun(name, pm.Mode, cores); err != nil {
		return err
	}
	an, err := critpath.New(pm.Run.Trace)
	if err != nil {
		return fmt.Errorf("experiments: %s/%s: %w", name, pm.Mode, err)
	}
	pm.Path = an.PathByCategory()
	for _, wf := range profileWhatIfs {
		pm.WhatIf = append(pm.WhatIf, an.Makespan(wf.w))
	}
	return nil
}

// gcycles formats a cycle count in billions.
func gcycles(c int64) string { return fmt.Sprintf("%.3fG", float64(c)/1e9) }

// Render writes, per benchmark and core count, the runs table, the cycles
// by category of every mode, and the STATS modes' critical path and
// what-if makespans.
func (p *Profile) Render(w io.Writer) {
	for i, r := range p.Rows {
		if i > 0 {
			fmt.Fprintln(w)
		}
		fmt.Fprintf(w, "%s @ %d cores (%d inputs): %s\n", r.Benchmark, r.Cores, r.Inputs, r.Describe)
		seq := r.Modes[0].Run
		runs := &report.Table{Header: []string{"mode", "config", "cycles", "speedup", "instructions", "chunks", "commits", "aborts", "threads", "states", "quality"}}
		for _, m := range r.Modes {
			rep := m.Run.Report
			runs.AddRow(m.Mode.String(), m.Config, gcycles(m.Run.Cycles), report.Speedup(speedup(seq, m.Run)),
				fmt.Sprintf("%s (%+.1f%%)", report.Billions(float64(m.Run.Acct.TotalInstr())),
					float64(m.Run.Acct.TotalInstr()-seq.Acct.TotalInstr())/float64(seq.Acct.TotalInstr())*100),
				fmt.Sprint(rep.Chunks), fmt.Sprint(rep.Commits), fmt.Sprint(rep.Aborts), fmt.Sprint(rep.ThreadsCreated),
				fmt.Sprintf("%d x %dB", rep.StatesCreated, rep.StateBytes), fmt.Sprintf("%.4f", m.Run.Quality))
		}
		runs.Render(w)

		byCat := &report.Table{Title: "cycles by category", Header: []string{"category"}}
		for _, m := range r.Modes {
			byCat.Header = append(byCat.Header, m.Mode.String())
		}
		stats := r.Modes[2:]
		path := &report.Table{Title: "critical path by category (measured)", Header: []string{"category"}}
		whatIf := &report.Table{Title: "what-if makespans (overhead removed from the critical path)", Header: []string{"removed"}}
		for _, m := range stats {
			path.Header = append(path.Header, m.Mode.String())
			whatIf.Header = append(whatIf.Header, m.Mode.String())
		}
		for c := 0; c < trace.NumCategories; c++ {
			cells, nonzero := []string{trace.Category(c).String()}, false
			for _, m := range r.Modes {
				cells = append(cells, gcycles(m.Run.Acct.Cycles[c]))
				nonzero = nonzero || m.Run.Acct.Cycles[c] != 0
			}
			if nonzero {
				byCat.AddRow(cells...)
			}
		}
		byCat.Render(w)
		for c := 0; c < trace.NumCategories; c++ {
			cells, nonzero := []string{trace.Category(c).String()}, false
			for _, m := range stats {
				var total int64
				for _, v := range m.Path {
					total += v
				}
				cells = append(cells, fmt.Sprintf("%s (%.1f%%)", gcycles(m.Path[c]), ratioPct(float64(m.Path[c]), float64(total))))
				nonzero = nonzero || m.Path[c] != 0
			}
			if nonzero {
				path.AddRow(cells...)
			}
		}
		path.Render(w)
		for i, wf := range profileWhatIfs {
			cells := []string{wf.name}
			for _, m := range stats {
				mk := m.WhatIf[i]
				cells = append(cells, fmt.Sprintf("%s -> %s", gcycles(mk), report.Speedup(oracleSpeedup(seq.Cycles, mk))))
			}
			whatIf.AddRow(cells...)
		}
		whatIf.Render(w)
	}
}
