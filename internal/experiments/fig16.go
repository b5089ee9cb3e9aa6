package experiments

import (
	"fmt"
	"io"
	"strings"

	"gostats/internal/engine"
	"gostats/internal/quality"
	"gostats/internal/report"
	"gostats/internal/stat"
)

// Fig16Row is one benchmark's output-quality comparison.
type Fig16Row struct {
	Benchmark string
	Summary   quality.Summary
	Runs      int
	// Original and STATS are the raw quality samples (for histograms).
	Original, STATS []float64
}

// Fig16 reproduces the output-variability study (§V-E).
type Fig16 struct {
	Rows []Fig16Row
}

// Fig16 sweeps quality distributions for the original and STATS versions
// of every benchmark.
func (s *Session) Fig16() (*Fig16, error) {
	out := &Fig16{}
	cores := s.opt.MaxCores()
	for _, name := range s.opt.Benchmarks {
		tc, err := s.tunedFor(name, cores)
		if err != nil {
			return nil, err
		}
		cfg := engine.Config{
			Chunks:      tc.ParSTATS.Chunks,
			Lookback:    tc.ParSTATS.Lookback,
			ExtraStates: tc.ParSTATS.ExtraStates,
			// Quality runs execute on the native executor; the gang width
			// only affects timing, so keep it 1 to reduce goroutine churn.
			InnerWidth: 1,
		}
		s.logf("quality sweep %-18s runs=%d", name, s.opt.QualityRuns)
		sw, err := quality.Distributions(s.benches[name], cfg, s.opt.QualityRuns, s.opt.InputSeed, s.opt.Seed)
		if err != nil {
			return nil, err
		}
		out.Rows = append(out.Rows, Fig16Row{
			Benchmark: name,
			Summary:   sw.Summarize(),
			Runs:      s.opt.QualityRuns,
			Original:  sw.Original,
			STATS:     sw.STATS,
		})
	}
	return out, nil
}

// Table renders the distribution summaries.
func (f *Fig16) Table() *report.Table {
	t := &report.Table{
		Title: "Fig. 16 — output quality distributions (higher is better)",
		Header: []string{"benchmark", "runs",
			"orig p5", "orig median", "orig p95",
			"stats p5", "stats median", "stats p95",
			"stats improves?", "KS", "distributions differ?"},
	}
	for _, r := range f.Rows {
		t.AddRow(r.Benchmark, fmt.Sprint(r.Runs),
			fmt.Sprintf("%.4f", r.Summary.Original.P5),
			fmt.Sprintf("%.4f", r.Summary.Original.Median),
			fmt.Sprintf("%.4f", r.Summary.Original.P95),
			fmt.Sprintf("%.4f", r.Summary.STATS.P5),
			fmt.Sprintf("%.4f", r.Summary.STATS.Median),
			fmt.Sprintf("%.4f", r.Summary.STATS.P95),
			fmt.Sprint(r.Summary.Improved),
			fmt.Sprintf("%.3f", r.Summary.KS),
			fmt.Sprint(r.Summary.KSSignificant))
	}
	return t
}

// Render writes the table and, per benchmark, aligned histograms of the
// two distributions (the visual content of the paper's Fig. 16).
func (f *Fig16) Render(w io.Writer) {
	f.Table().Render(w)
	for _, r := range f.Rows {
		renderPairedHistogram(w, r)
	}
}

// renderPairedHistogram draws both distributions over shared bins.
func renderPairedHistogram(w io.Writer, r Fig16Row) {
	all := append(append([]float64(nil), r.Original...), r.STATS...)
	if len(all) == 0 {
		return
	}
	const bins = 10
	shared := stat.NewHistogram(all, bins)
	count := func(samples []float64, lo, hi float64, last bool) int {
		n := 0
		for _, v := range samples {
			if v >= lo && (v < hi || (last && v == hi)) {
				n++
			}
		}
		return n
	}
	fmt.Fprintf(w, "%s quality histogram (o=original, s=STATS; %d runs each):\n", r.Benchmark, len(r.Original))
	for b := 0; b < bins; b++ {
		lo, hi := shared.Edges[b], shared.Edges[b+1]
		last := b == bins-1
		no := count(r.Original, lo, hi, last)
		ns := count(r.STATS, lo, hi, last)
		fmt.Fprintf(w, "  [%9.4f,%9.4f) o:%-3d %s\n", lo, hi, no, strings.Repeat("o", no))
		fmt.Fprintf(w, "                         s:%-3d %s\n", ns, strings.Repeat("s", ns))
	}
}

// ---------------------------------------------------------------------------
// Artifact registry

// Artifact is one regenerable paper artifact.
type Artifact struct {
	ID    string
	Title string
	Run   func(s *Session, w io.Writer) error
}

// Artifacts lists every table and figure in paper order, the ablation
// extensions, then the per-run profile and the tuned table.
func Artifacts() []Artifact {
	return []Artifact{
		artifact("table1", "Table I — threads and states", (*Session).Table1),
		artifact("fig9", "Fig. 9 — speedups by TLP source", (*Session).Fig9),
		artifact("fig10", "Fig. 10 — loss breakdown (combined TLP)", (*Session).Fig10),
		artifact("fig11", "Fig. 11 — extra computation breakdown (combined TLP)", (*Session).Fig11),
		artifact("fig12", "Fig. 12 — loss breakdown (STATS TLP only)", (*Session).Fig12),
		artifact("fig13", "Fig. 13 — extra computation breakdown (STATS TLP only)", (*Session).Fig13),
		artifact("fig14", "Figs. 14/15 — extra instructions and their breakdown", (*Session).Fig14),
		artifact("table2", "Table II — cache and branch behaviour", (*Session).Table2),
		artifact("fig16", "Fig. 16 — output quality distributions", (*Session).Fig16),
		artifact("scaling", "Scaling (extension) — STATS speedup vs cores", (*Session).Scaling),
		artifact("ablation-copy", "Ablation (extension) — state-copy bandwidth", (*Session).AblationCopy),
		artifact("ablation-sync", "Ablation (extension) — synchronization cost", (*Session).AblationSync),
		artifact("ablation-lookback", "Ablation (extension) — lookback k", (*Session).AblationLookback),
		artifact("ablation-extrastates", "Ablation (extension) — extra original states", (*Session).AblationExtraStates),
		artifact("profile", "Profile — each mode's accounting, critical path and what-ifs", (*Session).Profile),
		{"tuned", "Tuned configurations — the shippedTuned table", (*Session).Tuned},
	}
}

// artifact registers a result that renders itself.
func artifact[R interface{ Render(io.Writer) }](id, title string, compute func(*Session) (R, error)) Artifact {
	return Artifact{id, title, func(s *Session, w io.Writer) error {
		r, err := compute(s)
		if err != nil {
			return err
		}
		r.Render(w)
		return nil
	}}
}

// ArtifactByID finds an artifact.
func ArtifactByID(id string) (Artifact, bool) {
	for _, a := range Artifacts() {
		if a.ID == id {
			return a, true
		}
	}
	return Artifact{}, false
}
