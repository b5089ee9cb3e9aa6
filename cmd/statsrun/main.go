// Command statsrun executes one benchmark in one execution mode on the
// simulated machine and reports its performance: simulated time, speedup
// over the sequential baseline, commit statistics, resource usage, and
// the per-category cycle/instruction accounting.
//
// Usage:
//
//	statsrun -bench facetrack [-mode par-stats] [-cores 28]
//	         [-chunks 14 -lookback 12 -extra 2 -width 1] [-seed 3]
package main

import (
	"flag"
	"fmt"
	"os"

	"gostats/internal/bench"
	_ "gostats/internal/bench/all"
	"gostats/internal/engine"
	"gostats/internal/profiler"
	"gostats/internal/report"
	"gostats/internal/trace"
)

func main() {
	benchName := flag.String("bench", "", "benchmark name (required); one of: "+fmt.Sprint(bench.Names()))
	mode := flag.String("mode", "par-stats", "execution mode: sequential | original | seq-stats | par-stats")
	cores := flag.Int("cores", 28, "simulated core count")
	chunks := flag.Int("chunks", 14, "STATS parallel chunks")
	lookback := flag.Int("lookback", 6, "alternative-producer lookback (k)")
	extra := flag.Int("extra", 1, "extra original states per boundary")
	width := flag.Int("width", 1, "inner gang width (par-stats)")
	seed := flag.Uint64("seed", 3, "nondeterminism seed")
	inputSeed := flag.Uint64("input-seed", 1, "input-generation seed")
	flag.Parse()

	if *benchName == "" {
		flag.Usage()
		os.Exit(2)
	}
	b, err := bench.New(*benchName)
	if err != nil {
		fatalf("%v", err)
	}
	modes := map[string]profiler.Mode{
		"sequential": profiler.ModeSequential,
		"original":   profiler.ModeOriginal,
		"seq-stats":  profiler.ModeSeqSTATS,
		"par-stats":  profiler.ModeParSTATS,
	}
	m, ok := modes[*mode]
	if !ok {
		fatalf("unknown mode %q", *mode)
	}

	spec := profiler.Spec{
		Bench: b,
		Mode:  m,
		Cores: *cores,
		Cfg: engine.Config{
			Chunks:      *chunks,
			Lookback:    *lookback,
			ExtraStates: *extra,
			InnerWidth:  *width,
		},
		InputSeed: *inputSeed,
		Seed:      *seed,
	}
	res, err := profiler.Run(spec)
	if err != nil {
		fatalf("%v", err)
	}

	// Sequential baseline for the speedup.
	seqSpec := spec
	seqSpec.Mode = profiler.ModeSequential
	seqSpec.Cores = 1
	seqRes, err := profiler.Run(seqSpec)
	if err != nil {
		fatalf("baseline: %v", err)
	}

	fmt.Printf("%s / %s on %d simulated cores\n", b.Name(), m, *cores)
	fmt.Printf("  %s\n", b.Describe())
	fmt.Printf("  inputs:          %d\n", len(res.Report.Outputs))
	fmt.Printf("  simulated time:  %.3fG cycles (sequential %.3fG)\n",
		float64(res.Cycles)/1e9, float64(seqRes.Cycles)/1e9)
	fmt.Printf("  speedup:         %.2fx (ideal %d)\n",
		float64(seqRes.Cycles)/float64(res.Cycles), *cores)
	fmt.Printf("  instructions:    %s (sequential %s, %+.1f%%)\n",
		report.Billions(float64(res.Acct.TotalInstr())),
		report.Billions(float64(seqRes.Acct.TotalInstr())),
		float64(res.Acct.TotalInstr()-seqRes.Acct.TotalInstr())/float64(seqRes.Acct.TotalInstr())*100)
	fmt.Printf("  chunks:          %d (commits %d, aborts %d)\n",
		res.Report.Chunks, res.Report.Commits, res.Report.Aborts)
	fmt.Printf("  threads created: %d\n", res.Report.ThreadsCreated)
	fmt.Printf("  states created:  %d x %d bytes\n", res.Report.StatesCreated, res.Report.StateBytes)
	fmt.Printf("  output quality:  %.4f (sequential %.4f)\n", res.Quality, seqRes.Quality)

	fmt.Println("  cycles by category:")
	for c := 0; c < trace.NumCategories; c++ {
		cy := res.Acct.Cycles[c]
		if cy == 0 {
			continue
		}
		fmt.Printf("    %-16s %10.3fG cycles %10.3fG instr\n",
			trace.Category(c).String(), float64(cy)/1e9, float64(res.Acct.Instr[c])/1e9)
	}
}

func fatalf(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "statsrun: "+format+"\n", args...)
	os.Exit(1)
}
