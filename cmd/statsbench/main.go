// Command statsbench regenerates the paper's tables and figures.
//
// Usage:
//
//	statsbench [-only fig9,table1] [-benchmarks a,b] [-cores 14,28]
//	           [-quality-runs N] [-tune N] [-out dir] [-v]
//	statsbench -workload spec.json
//	statsbench -autotune [-perf-benchmarks a,b] [-perf-n 400]
//
// With no flags it reproduces every artifact (Table I, Figs. 9–16,
// Table II) for all six benchmarks at 14 and 28 simulated cores, printing
// to stdout and, with -out, also writing one text file per artifact.
//
// With -workload it replays a workload spec (internal/workload) through
// real adaptive streaming pipelines — one per trace session — and prints
// per-benchmark commit/abort counts and autotune chunk-size trajectories,
// phase-binned by arrival time, as JSON: a function of the spec alone.
//
// With -autotune it runs batch workloads under online adaptive chunk
// sizing and prints the engine's commit, abort, resize and overhead
// counters. Neither mode reports a time or an allocation figure: what the
// native path costs is measured by the repository benchmark
// (BENCHMARK.json, benchmark/).
//
// All modes accept -cpuprofile/-memprofile/-pprof for diagnosis.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	_ "gostats/internal/bench/all"
	"gostats/internal/experiments"
	"gostats/internal/profiling"
)

func main() {
	only := flag.String("only", "", "comma-separated artifact ids (default: all); known: table1,fig9,fig10,fig11,fig12,fig13,fig14,table2,fig16")
	benchmarks := flag.String("benchmarks", "", "comma-separated benchmark names (default: all)")
	cores := flag.String("cores", "14,28", "comma-separated simulated core counts")
	qualityRuns := flag.Int("quality-runs", 30, "runs per distribution for fig16 (paper: 200)")
	tune := flag.Int("tune", 0, "re-run the autotuner with this evaluation budget instead of the shipped configs")
	repeats := flag.Int("repeats", 1, "apply the paper's convergence rule to fig9 with up to N runs per point")
	outDir := flag.String("out", "", "also write one text file per artifact into this directory")
	csvDir := flag.String("csv", "", "also write every tabular artifact as CSV into this directory")
	verbose := flag.Bool("v", false, "print per-run progress to stderr")
	list := flag.Bool("list", false, "list the available artifacts and exit")
	seed := flag.Uint64("seed", 3, "nondeterminism seed")
	inputSeed := flag.Uint64("input-seed", 1, "input-generation seed")
	perfN := flag.Int("perf-n", 400, "with -autotune, cap the inputs per benchmark (0: native length)")
	perfBench := flag.String("perf-benchmarks", "facetrack,streamcluster,streamclassifier,dedupstream", "with -autotune, comma-separated benchmarks to run")
	workloadSpec := flag.String("workload", "", "replay this workload spec through adaptive streaming pipelines and print per-benchmark and per-phase commit/abort/resize counts as JSON")
	autotune := flag.Bool("autotune", false, "run batch workloads with online adaptive chunk sizing and print the engine's counters")
	prof := profiling.Register()
	flag.Parse()

	stopProf, err := prof.Start()
	if err != nil {
		fatalf("%v", err)
	}
	defer stopProf()
	// fatalf exits without unwinding; flush any active profile first so a
	// failing run still leaves a usable -cpuprofile behind.
	atExit = stopProf

	if *workloadSpec != "" {
		if err := runWorkload(*workloadSpec, os.Stdout); err != nil {
			fatalf("workload: %v", err)
		}
		return
	}

	if *autotune {
		if err := runAutotune(strings.Split(*perfBench, ","), *perfN, *seed, *inputSeed); err != nil {
			fatalf("autotune: %v", err)
		}
		return
	}

	if *list {
		for _, a := range experiments.Artifacts() {
			fmt.Printf("%-22s %s\n", a.ID, a.Title)
		}
		return
	}

	opt := experiments.Options{
		QualityRuns: *qualityRuns,
		TuneBudget:  *tune,
		Repeats:     *repeats,
		Seed:        *seed,
		InputSeed:   *inputSeed,
	}
	if *benchmarks != "" {
		opt.Benchmarks = strings.Split(*benchmarks, ",")
	}
	for _, c := range strings.Split(*cores, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(c))
		if err != nil || v < 1 {
			fatalf("invalid core count %q", c)
		}
		opt.Cores = append(opt.Cores, v)
	}

	session, err := experiments.NewSession(opt)
	if err != nil {
		fatalf("%v", err)
	}
	if *verbose {
		session.SetProgress(os.Stderr)
	}

	arts := experiments.Artifacts()
	if *only != "" {
		var sel []experiments.Artifact
		for _, id := range strings.Split(*only, ",") {
			a, ok := experiments.ArtifactByID(strings.TrimSpace(id))
			if !ok {
				fatalf("unknown artifact %q", id)
			}
			sel = append(sel, a)
		}
		arts = sel
	}

	if *outDir != "" {
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			fatalf("creating %s: %v", *outDir, err)
		}
	}

	for _, a := range arts {
		fmt.Printf("==== %s: %s ====\n", a.ID, a.Title)
		var w io.Writer = os.Stdout
		var f *os.File
		if *outDir != "" {
			var err error
			f, err = os.Create(filepath.Join(*outDir, a.ID+".txt"))
			if err != nil {
				fatalf("creating artifact file: %v", err)
			}
			w = io.MultiWriter(os.Stdout, f)
		}
		if err := a.Run(session, w); err != nil {
			fatalf("%s: %v", a.ID, err)
		}
		if f != nil {
			if err := f.Close(); err != nil {
				fatalf("closing artifact file: %v", err)
			}
		}
		fmt.Println()
	}

	if *csvDir != "" {
		if err := experiments.WriteCSVs(session, *csvDir); err != nil {
			fatalf("writing CSVs: %v", err)
		}
		fmt.Printf("CSV tables written to %s\n", *csvDir)
	}
}

// atExit runs before fatalf's os.Exit (deferred cleanups don't).
var atExit func()

func fatalf(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "statsbench: "+format+"\n", args...)
	if atExit != nil {
		atExit()
	}
	os.Exit(1)
}
