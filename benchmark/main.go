// Command harness is the repository's benchmark (BENCHMARK.json, README.md):
// interleaved sequential/STATS pairs on four workloads, every end-to-end
// figure a ratio to the unmodified sequential program, plus a traced run that
// prints one row per layer. It is run through benchmark/run.sh from the root
// of a checkout.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"
	"time"
)

// watchdogAfter fails a run that is still going shortly before the driver's
// 180 s limit, children killed first.
const watchdogAfter = 170 * time.Second

func main() {
	name := flag.String("workload", "", "workload to run (see README.md)")
	seed := flag.Uint64("seed", 1, "input seed: the same seed gives the same inputs")
	seconds := flag.Int("seconds", 22, "length of the measured window of an untraced run")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: traced run printing every per-layer metric")
	selfcheck := flag.Bool("selfcheck", false, "run the driver's acceptance procedure and write benchmark/results/noise.json")
	flag.Parse()

	// Every exit path goes through exit, which reaps the children first.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		s := <-sig
		fmt.Fprintf(os.Stderr, "harness: %v\n", s)
		exit(130)
	}()

	if *selfcheck {
		if err := runSelfcheck(); err != nil {
			fmt.Fprintln(os.Stderr, "harness: selfcheck:", err)
			exit(1)
		}
		exit(0)
	}

	time.AfterFunc(watchdogAfter, func() {
		fmt.Fprintf(os.Stderr, "harness: watchdog: run exceeded %s\n", watchdogAfter)
		exit(3)
	})
	w, ok := workloadByName(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "harness: unknown --workload %q\n", *name)
		exit(2)
	}
	build, err := buildChildren()
	if err != nil {
		fmt.Fprintln(os.Stderr, "harness:", err)
		exit(1)
	}
	ctx := context.Background()
	var res *result
	specs := endToEnd
	if *trace == 1 {
		specs = perLayer
		res, err = runTraced(ctx, w, *seed, build)
	} else {
		res, err = runUntraced(ctx, w, *seed, *seconds)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "harness:", err)
		exit(1)
	}
	if err := report(os.Stdout, w, specs, res); err != nil {
		fmt.Fprintln(os.Stderr, "harness:", err)
		exit(1)
	}
	if res.failed > 0 {
		exit(1)
	}
	exit(0)
}

func exit(code int) {
	stopAllChildren()
	os.Exit(code)
}

// report prints every metric by name with its unit, then the result object
// as the last line.
func report(out io.Writer, w workload, specs []metricSpec, res *result) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.failed == 0, res.attempted, res.failed, map[string]value{}}
	fmt.Fprintf(out, "workload %s: sessions_attempted %d sessions_failed %d\n", w.Name, res.attempted, res.failed)
	for _, m := range specs {
		v, ok := res.metrics[m.Name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", m.Name)
		}
		fmt.Fprintf(out, "%-36s %16.6g %s\n", m.Name, v, m.Unit)
		line.Metrics[m.Name] = value{v, m.Unit}
	}
	data, err := json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(out, "%s\n", data)
	return err
}
