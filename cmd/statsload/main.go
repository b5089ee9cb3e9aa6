// Command statsload drives a statsserved (or statsgate) endpoint with a
// workload spec: real NDJSON sessions, paced in wall time by the spec's
// virtual arrival process.
//
// Usage:
//
//	statsload -spec examples/workload/nonstationary.json
//	          [-target http://localhost:8417] [-speedup 1]
//	          [-max-concurrent 16] [-session-timeout 2m]
//	          [-out report.json] [-v]
//
// It expands the spec into its deterministic session trace
// (internal/workload.Generate): each session names a benchmark, an input
// count, and a seed that regenerates the session's exact input stream.
// The spec alone names the run: the same spec drives the same sessions,
// byte for byte, on any host.
//
// Sessions are launched at their trace arrival times (divided by
// -speedup), each as one POST /v1/stream/{benchmark}?seed=N&adapt=1
// whose body is the session's input stream and whose response trailer
// carries the pipeline's stats — including the autotune chunk-size
// trajectory. statsload aggregates trailers per benchmark (sessions,
// inputs, commit/abort rates, resize counts, chunk-size envelope) and
// prints a summary; -out also writes it as JSON.
//
// The pacing loop reads the wall clock — this is serving-side glue, like
// the rest of cmd/*, not determinism-critical protocol code. Everything
// below it (trace expansion, input regeneration, the pipelines on the
// server) is a pure function of the spec.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"sort"
	"sync"
	"time"

	_ "gostats/internal/bench/all"
	"gostats/internal/serve"
	"gostats/internal/workload"
)

func main() {
	specPath := flag.String("spec", "", "workload spec file to expand and drive (required)")
	target := flag.String("target", "http://localhost:8417", "statsserved or statsgate base URL")
	speedup := flag.Float64("speedup", 1, "divide virtual interarrival gaps by this factor")
	maxConc := flag.Int("max-concurrent", 16, "cap on in-flight sessions (pacing skews once saturated)")
	sessionTimeout := flag.Duration("session-timeout", 2*time.Minute, "per-session HTTP timeout")
	outPath := flag.String("out", "", "also write the JSON summary here")
	verbose := flag.Bool("v", false, "log each session as it completes")
	flag.Parse()

	if err := run(*specPath, *target, *speedup, *maxConc, *sessionTimeout, *outPath, *verbose); err != nil {
		fmt.Fprintln(os.Stderr, "statsload:", err)
		os.Exit(1)
	}
}

// loadRow aggregates the trailers of one benchmark's sessions.
type loadRow struct {
	Benchmark  string  `json:"benchmark"`
	Sessions   int     `json:"sessions"`
	Failures   int     `json:"failures"`
	Inputs     int64   `json:"inputs"`
	Outputs    int64   `json:"outputs"`
	Commits    int64   `json:"commits"`
	Aborts     int64   `json:"aborts"`
	CommitRate float64 `json:"commit_rate"`
	Resizes    int64   `json:"resizes"`
	ChunkMin   int     `json:"chunk_min,omitempty"`
	ChunkMax   int     `json:"chunk_max,omitempty"`
}

// loadReport is the -out schema.
type loadReport struct {
	Trace     string             `json:"trace"` // the spec's name
	Seed      uint64             `json:"seed"`
	Target    string             `json:"target"`
	Speedup   float64            `json:"speedup"`
	Sessions  int                `json:"sessions"`
	Failures  int                `json:"failures"`
	ElapsedNS int64              `json:"elapsed_ns"`
	Rows      map[string]loadRow `json:"rows"`
}

func run(specPath, target string, speedup float64, maxConc int,
	sessionTimeout time.Duration, outPath string, verbose bool) error {
	if specPath == "" {
		return fmt.Errorf("-spec is required")
	}
	if speedup <= 0 {
		return fmt.Errorf("-speedup must be positive, got %g", speedup)
	}
	if maxConc < 1 {
		maxConc = 1
	}

	spec, err := workload.Load(specPath)
	if err != nil {
		return err
	}
	trace, err := workload.Generate(spec)
	if err != nil {
		return err
	}

	client := &http.Client{Timeout: sessionTimeout}
	var (
		mu       sync.Mutex
		rows     = map[string]*loadRow{}
		failures int
	)
	sem := make(chan struct{}, maxConc)
	var wg sync.WaitGroup
	start := time.Now()
	for _, s := range trace.Sessions {
		// Pace: session s belongs at virtual time s.At, compressed by
		// -speedup. Sleep until then; launches are in trace order.
		due := start.Add(time.Duration(float64(s.At) / speedup))
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		sem <- struct{}{}
		wg.Add(1)
		go func(s workload.Session) {
			defer wg.Done()
			defer func() { <-sem }()
			tr, err := runSession(client, target, s)
			mu.Lock()
			defer mu.Unlock()
			r := rows[s.Benchmark]
			if r == nil {
				r = &loadRow{Benchmark: s.Benchmark}
				rows[s.Benchmark] = r
			}
			r.Sessions++
			if err != nil {
				r.Failures++
				failures++
				if verbose {
					fmt.Fprintf(os.Stderr, "session %d (%s): %v\n", s.Seq, s.Benchmark, err)
				}
				return
			}
			r.Inputs += tr.Stats.Inputs
			r.Outputs += tr.Stats.Outputs
			r.Commits += tr.Stats.Commits
			r.Aborts += tr.Stats.Aborts
			r.Resizes += tr.Stats.Resizes
			for _, pt := range tr.Stats.Trajectory {
				if r.ChunkMin == 0 || pt.Size < r.ChunkMin {
					r.ChunkMin = pt.Size
				}
				if pt.Size > r.ChunkMax {
					r.ChunkMax = pt.Size
				}
			}
			if verbose {
				fmt.Fprintf(os.Stderr, "session %d (%s): %d outputs, commit %d abort %d, %d resizes\n",
					s.Seq, s.Benchmark, tr.Stats.Outputs, tr.Stats.Commits, tr.Stats.Aborts, tr.Stats.Resizes)
			}
		}(s)
	}
	wg.Wait()
	elapsed := time.Since(start)

	rep := loadReport{
		Trace: trace.Name, Seed: trace.Seed, Target: target, Speedup: speedup,
		Sessions: len(trace.Sessions), Failures: failures,
		ElapsedNS: elapsed.Nanoseconds(), Rows: map[string]loadRow{},
	}
	names := make([]string, 0, len(rows))
	for name := range rows {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		r := rows[name]
		r.CommitRate = float64(r.Commits) / float64(max64(1, r.Commits+r.Aborts))
		rep.Rows[name] = *r
		chunks := ""
		if r.ChunkMax > 0 {
			chunks = fmt.Sprintf("  chunks [%d..%d]", r.ChunkMin, r.ChunkMax)
		}
		fmt.Printf("%-18s sessions=%-3d failures=%-2d inputs=%-7d commit %.2f  resizes %-4d%s\n",
			name, r.Sessions, r.Failures, r.Inputs, r.CommitRate, r.Resizes, chunks)
	}
	fmt.Printf("%d sessions in %s (%d failed)\n", rep.Sessions, elapsed.Round(time.Millisecond), failures)

	if outPath != "" {
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(outPath, append(data, '\n'), 0o644); err != nil {
			return err
		}
	}
	if failures > 0 {
		return fmt.Errorf("%d of %d sessions failed", failures, rep.Sessions)
	}
	return nil
}

// runSession regenerates one trace session's input stream, streams it to
// the target with adaptive chunk sizing, so its trailer carries a
// chunk-size trajectory, and returns the response trailer.
func runSession(client *http.Client, target string, s workload.Session) (*serve.Trailer, error) {
	var body bytes.Buffer
	if err := workload.WriteSessionNDJSON(&body, s); err != nil {
		return nil, err
	}
	url := fmt.Sprintf("%s/v1/stream/%s?seed=%d&adapt=1", target, s.Benchmark, s.Seed)
	resp, err := client.Post(url, "application/x-ndjson", &body)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s: HTTP %d", url, resp.StatusCode)
	}
	// The trailer is the last NDJSON line; everything before it is
	// committed outputs, drained and discarded here.
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 4<<20)
	var last []byte
	for sc.Scan() {
		if len(sc.Bytes()) > 0 {
			last = append(last[:0], sc.Bytes()...)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(last) == 0 {
		return nil, fmt.Errorf("empty response")
	}
	var tr serve.Trailer
	if err := json.Unmarshal(last, &tr); err != nil {
		return nil, fmt.Errorf("bad trailer %q: %w", last, err)
	}
	if !tr.Done {
		return nil, fmt.Errorf("session did not drain: %s", tr.Error)
	}
	return &tr, nil
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
