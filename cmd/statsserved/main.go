// Command statsserved serves streaming STATS sessions over HTTP.
//
// Usage:
//
//	statsserved [-addr :8417] [-chunk 16] [-lookback 4] [-workers 4]
//	            [-adapt] [-grace 15s] [-max-sessions 64]
//	            [-session-timeout 0] [-max-body 1073741824]
//	            [-max-line 1048576] [-pprof localhost:6060]
//	statsserved -gen facetrack [-n 64]
//	statsserved -gen-spec examples/workload/nonstationary.json [-gen-session 0]
//
// In serving mode it accepts NDJSON sessions at
// POST /v1/stream/{benchmark}: each request-body line is one benchmark
// input, each response line one committed output (in input order), and
// the final line a JSON trailer with the session's statistics. A session
// runs with one extra original state per chunk boundary and, unless it
// names its own (?seed=, ?extra=), nondeterminism seed 3. Concurrent
// sessions run on independent pipelines; /metrics aggregates binned stage
// latencies and counters across all of them, beside the front end's own
// gauges (active sessions, speculation-window occupancy, drain state);
// /healthz reports liveness; /readyz reports routability (not-ready while
// draining); GET /v1/benchmarks lists the streamable workloads. With
// -pprof it also serves net/http/pprof on a second address, kept off the
// session listener: /debug/pprof/profile for a CPU profile, /heap for the
// heap.
//
// The process is bounded on every axis a client controls: concurrent
// sessions (-max-sessions, shed with a 429 whose Retry-After hint is 1s,
// or 2s while any session has a chunk in flight), session
// lifetime (-session-timeout, the one wall-clock limit: it ends a
// session and never changes its bytes), request body size (-max-body,
// 413), and NDJSON line length (-max-line, 400). Inside a session the
// engine's fault layer isolates worker panics, retrying a faulted chunk
// at once up to engine.MaxRetries times before degrading it to
// sequential re-execution — committed outputs stay byte-identical
// throughout. On SIGTERM or
// SIGINT the server turns /readyz not-ready, stops accepting sessions,
// and drains in-flight ones for -grace before force-closing.
//
// With -gen it instead prints a benchmark's native input stream, drawn
// with input seed 1, as NDJSON to stdout — a ready-made session body for
// curl. With -gen-spec it prints one session of a workload spec
// (internal/workload) instead: -gen-session selects the session by
// sequence number, and the body is the exact input stream that session's
// trace line names (benchmark, length, seed), so a spec names every
// session byte-for-byte.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof/* on the default mux
	"os"
	"os/signal"
	"syscall"
	"time"

	"gostats/internal/bench"
	_ "gostats/internal/bench/all"
	"gostats/internal/engine"
	"gostats/internal/serve"
	"gostats/internal/workload"
)

func main() {
	addr := flag.String("addr", ":8417", "listen address")
	chunk := flag.Int("chunk", 16, "inputs per chunk (initial size with -adapt)")
	lookback := flag.Int("lookback", 4, "alternative-producer replay length k")
	workers := flag.Int("workers", engine.DefaultWorkers, "per-session worker pool / speculation window")
	adapt := flag.Bool("adapt", false, "retune chunk size online from commit/abort feedback")
	grace := flag.Duration("grace", 15*time.Second, "drain period for in-flight sessions on SIGTERM")
	maxSessions := flag.Int("max-sessions", 0, "concurrent session cap, excess shed with 429 (0: default 64)")
	sessionTimeout := flag.Duration("session-timeout", 0, "per-session wall-clock limit (0: none)")
	maxBody := flag.Int64("max-body", 0, "request body cap in bytes (0: default 1 GiB)")
	maxLine := flag.Int("max-line", 0, "NDJSON input line cap in bytes (0: default 1 MiB)")
	gen := flag.String("gen", "", "print this benchmark's inputs as NDJSON to stdout and exit")
	n := flag.Int("n", 0, "with -gen, cap the number of input lines (0: native length)")
	genSpec := flag.String("gen-spec", "", "print one session of this workload spec as NDJSON and exit")
	genSession := flag.Int("gen-session", 0, "with -gen-spec, the session sequence number to print")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060)")
	flag.Parse()

	if *gen != "" || *genSpec != "" {
		if err := generate(*gen, *n, *genSpec, *genSession); err != nil {
			fmt.Fprintln(os.Stderr, "statsserved:", err)
			os.Exit(1)
		}
		return
	}

	base := engine.StreamConfig{
		ChunkSize:   *chunk,
		Lookback:    *lookback,
		ExtraStates: 1,
		Workers:     *workers,
		Adapt:       *adapt,
		Seed:        3,
	}
	if err := base.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, "statsserved:", err)
		os.Exit(1)
	}

	lim := serve.Options{
		MaxSessions:    *maxSessions,
		SessionTimeout: *sessionTimeout,
		MaxBody:        *maxBody,
		MaxLine:        *maxLine,
	}
	if err := checkLimits(lim); err != nil {
		fmt.Fprintln(os.Stderr, "statsserved:", err)
		os.Exit(1)
	}

	if *pprofAddr != "" {
		go func() { log.Printf("statsserved: pprof listener: %v", http.ListenAndServe(*pprofAddr, nil)) }()
	}
	app := serve.New(base, lim)
	srv := &http.Server{Addr: *addr, Handler: app.Handler()}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	log.Printf("statsserved listening on %s (benchmarks: %v)", *addr, bench.CodecNames())

	select {
	case err := <-errc:
		log.Fatalf("statsserved: %v", err)
	case <-ctx.Done():
		stop()
		// Turn /readyz not-ready and refuse new sessions, then drain
		// in-flight ones; past the grace deadline, force-close every
		// connection — session contexts cancel and pipelines unwind.
		app.StartDrain()
		log.Printf("statsserved: signal received, draining sessions (grace %s)", *grace)
		sctx, cancel := context.WithTimeout(context.Background(), *grace)
		defer cancel()
		if err := srv.Shutdown(sctx); err != nil {
			log.Printf("statsserved: drain incomplete (%v), force closing", err)
			srv.Close()
		}
	}
}

// checkLimits refuses a negative limit flag, naming it. serve.New reads a
// non-positive limit as its default, which is not what a negative value
// asks for, so the command says so before it serves.
func checkLimits(lim serve.Options) error {
	for _, l := range [...]struct {
		flag string
		v    int64
	}{
		{"max-sessions", int64(lim.MaxSessions)},
		{"session-timeout", int64(lim.SessionTimeout)},
		{"max-body", lim.MaxBody},
		{"max-line", int64(lim.MaxLine)},
	} {
		if l.v < 0 {
			return fmt.Errorf("-%s must not be negative", l.flag)
		}
	}
	return nil
}

// generate prints a session body as NDJSON through the workload layer:
// either a benchmark's native input stream (-gen) or one session of a
// workload spec's generated trace (-gen-spec/-gen-session).
func generate(name string, n int, specPath string, session int) error {
	if specPath != "" {
		spec, err := workload.Load(specPath)
		if err != nil {
			return err
		}
		trace, err := workload.Generate(spec)
		if err != nil {
			return err
		}
		if session < 0 || session >= len(trace.Sessions) {
			return fmt.Errorf("spec %q has sessions 0..%d, asked for %d",
				spec.Name, len(trace.Sessions)-1, session)
		}
		return workload.WriteSessionNDJSON(os.Stdout, trace.Sessions[session])
	}
	codec, err := bench.CodecFor(name)
	if err != nil {
		return err
	}
	b, err := bench.New(name)
	if err != nil {
		return err
	}
	return workload.WriteNDJSON(os.Stdout, codec, workload.SessionInputs(b, n, 1))
}
