// Command statsbench drives the simulated machine: it regenerates the
// paper's tables and figures, profiles single runs, and prints or retunes
// the tuned configuration table.
//
// Usage:
//
//	statsbench [-only fig9,table1] [-benchmarks a,b] [-cores 14,28]
//	           [-chunks N] [-lookback N] [-extra N] [-width N]
//	           [-quality-runs N] [-tune N] [-repeats N] [-seed N] [-input-seed N]
//	           [-out dir] [-csv dir] [-v]
//	statsbench -workload spec.json
//
// With no flags it reproduces every artifact (Table I, Figs. 9–16,
// Table II, the extensions, the per-run profile and the tuned table) for
// the paper's six benchmarks at 14 and 28 simulated cores, printing to
// stdout and, with -out, also writing one text file per artifact.
//
// The paper's method is one pipeline, and so is this command: -tune N
// re-runs the autotuner on the training inputs (§II-C) instead of using
// the shipped table, `-only tuned` prints the table in force, and
// `-only profile` breaks each mode's run down and decomposes the STATS
// runs' critical paths (§V-B). -chunks, -lookback, -extra and -width
// override the tuned configuration field by field in every artifact (0
// keeps the tuned value; -width sets par-STATS only).
//
// With -workload it replays a workload spec (internal/workload) through
// real streaming pipelines — one per trace session — and prints
// per-benchmark commit/abort counts, phase-binned by arrival time, as
// JSON: a function of the spec alone. It reports no time or allocation
// figure: what the native path costs is measured by the repository
// benchmark (BENCHMARK.json, benchmark/).
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"gostats/internal/autotune"
	_ "gostats/internal/bench/all"
	"gostats/internal/experiments"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return
		}
		fmt.Fprintf(os.Stderr, "statsbench: %v\n", err)
		os.Exit(1)
	}
}

// run parses args and writes what the selected mode prints to stdout.
func run(args []string, stdout io.Writer) error {
	var ids []string
	for _, a := range experiments.Artifacts() {
		ids = append(ids, a.ID)
	}
	known := strings.Join(ids, ",")

	fs := flag.NewFlagSet("statsbench", flag.ContinueOnError)
	only := fs.String("only", "", "comma-separated artifact ids (default: all): "+known)
	benchmarks := fs.String("benchmarks", "", "comma-separated benchmark names (default: the paper's six)")
	cores := fs.String("cores", "14,28", "comma-separated simulated core counts")
	var override autotune.Point
	fs.IntVar(&override.Chunks, "chunks", 0, "STATS parallel chunks (0: tuned)")
	fs.IntVar(&override.Lookback, "lookback", 0, "alternative-producer lookback k (0: tuned)")
	fs.IntVar(&override.ExtraStates, "extra", 0, "extra original states per boundary (0: tuned)")
	fs.IntVar(&override.InnerWidth, "width", 0, "par-stats inner gang width (0: tuned)")
	qualityRuns := fs.Int("quality-runs", 30, "runs per distribution for fig16 (paper: 200)")
	tune := fs.Int("tune", 0, "re-run the autotuner with this evaluation budget instead of the shipped configs")
	repeats := fs.Int("repeats", 1, "apply the paper's convergence rule to fig9 with up to N runs per point")
	outDir := fs.String("out", "", "also write one text file per artifact into this directory")
	csvDir := fs.String("csv", "", "also write every tabular artifact as CSV into this directory")
	verbose := fs.Bool("v", false, "print per-run progress to stderr")
	seed := fs.Uint64("seed", 3, "nondeterminism seed")
	inputSeed := fs.Uint64("input-seed", 1, "input-generation seed")
	workloadSpec := fs.String("workload", "", "replay this workload spec through streaming pipelines and print per-benchmark and per-phase commit/abort counts as JSON")
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *workloadSpec != "" {
		if err := runWorkload(*workloadSpec, stdout); err != nil {
			return fmt.Errorf("workload: %w", err)
		}
		return nil
	}

	opt := experiments.Options{
		Benchmarks:  splitList(*benchmarks),
		QualityRuns: *qualityRuns,
		TuneBudget:  *tune,
		Override:    override,
		Repeats:     *repeats,
		Seed:        *seed,
		InputSeed:   *inputSeed,
	}
	for _, c := range splitList(*cores) {
		v, err := strconv.Atoi(c)
		if err != nil || v < 1 {
			return fmt.Errorf("invalid core count %q", c)
		}
		opt.Cores = append(opt.Cores, v)
	}

	session, err := experiments.NewSession(opt)
	if err != nil {
		return err
	}
	if *verbose {
		session.SetProgress(os.Stderr)
	}

	arts := experiments.Artifacts()
	if *only != "" {
		arts = nil
		for _, id := range splitList(*only) {
			a, ok := experiments.ArtifactByID(id)
			if !ok {
				return fmt.Errorf("unknown artifact %q (known: %s)", id, known)
			}
			arts = append(arts, a)
		}
	}

	if *outDir != "" {
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			return fmt.Errorf("creating %s: %w", *outDir, err)
		}
	}

	for _, a := range arts {
		fmt.Fprintf(stdout, "==== %s: %s ====\n", a.ID, a.Title)
		w := stdout
		var f *os.File
		if *outDir != "" {
			var err error
			f, err = os.Create(filepath.Join(*outDir, a.ID+".txt"))
			if err != nil {
				return fmt.Errorf("creating artifact file: %w", err)
			}
			w = io.MultiWriter(stdout, f)
		}
		if err := a.Run(session, w); err != nil {
			return fmt.Errorf("%s: %w", a.ID, err)
		}
		if f != nil {
			if err := f.Close(); err != nil {
				return fmt.Errorf("closing artifact file: %w", err)
			}
		}
		fmt.Fprintln(stdout)
	}

	if *csvDir != "" {
		if err := experiments.WriteCSVs(session, *csvDir); err != nil {
			return fmt.Errorf("writing CSVs: %w", err)
		}
		fmt.Fprintf(stdout, "CSV tables written to %s\n", *csvDir)
	}
	return nil
}

// splitList splits a comma-separated flag value into its trimmed, non-empty
// entries.
func splitList(s string) []string {
	var out []string
	for _, e := range strings.Split(s, ",") {
		if e = strings.TrimSpace(e); e != "" {
			out = append(out, e)
		}
	}
	return out
}
