// Package serve implements the statsserved HTTP service: NDJSON
// streaming STATS sessions at POST /v1/stream/{benchmark}, aggregated
// /metrics with the front end's own gauges, /healthz liveness, /readyz
// routability with SIGTERM drain, and bounded-everything hardening. It
// lives outside cmd/statsserved so that statsgate's integration tests can
// run real in-process backends.
package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"gostats/internal/bench"
	"gostats/internal/cluster"
	"gostats/internal/critpath"
	"gostats/internal/engine"
)

// Options bounds what one statsserved process will accept. Zero or
// negative values select the defaults in New; every limit exists so a
// single misbehaving client — an unbounded body, an endless line, a
// session that never finishes, or too many sessions at once — degrades
// into a clean HTTP error instead of unbounded memory or goroutine
// growth.
type Options struct {
	// MaxSessions caps concurrent streaming sessions; excess requests
	// are shed with 429. 0 or less means the default (64).
	MaxSessions int
	// SessionTimeout bounds one session's wall-clock lifetime. 0 or less
	// means no timeout.
	SessionTimeout time.Duration
	// MaxBody caps a session request body in bytes. 0 or less means the
	// default (1 GiB).
	MaxBody int64
	// MaxLine caps one NDJSON input line in bytes. 0 or less means
	// bench.DefaultMaxLine.
	MaxLine int
}

const (
	defaultMaxSessions = 64
	defaultMaxBody     = 1 << 30
)

// The most a session may ask for of what NewStream sizes memory and
// goroutines from: a goroutine and two chunk records a worker, an output
// channel two chunks long, a buffer of ExtraStates+1 states and up to the
// largest chunk's inputs a record. A request picks these — by query, or
// wholesale in the snapshot of a #resume line, whose CRC is no MAC — so
// they are fixed here and not options. A session at every ceiling costs
// 257 goroutines (its workers and a reaper) and 2.8 MB before its first
// input, and spawns no more as it runs.
const (
	maxWorkers     = 256
	maxChunk       = 1 << 16
	maxLookback    = 1 << 16
	maxExtraStates = 64
)

// checkShape refuses a session shape over a ceiling, naming the parameter.
// Signs are StreamConfig.Validate's business.
func checkShape(c engine.StreamConfig) error {
	for _, p := range [...]struct {
		name   string
		v, max int
	}{
		{"workers", c.Workers, maxWorkers},
		{"chunk", c.ChunkSize, maxChunk},
		{"lookback", c.Lookback, maxLookback},
		{"extra", c.ExtraStates, maxExtraStates},
	} {
		if p.v > p.max {
			return fmt.Errorf("%s=%d: a session may ask for at most %d", p.name, p.v, p.max)
		}
	}
	return nil
}

// errBadRequest marks session failures caused by the request itself
// (malformed or oversized input); the handler maps them to 4xx when no
// output has been written yet.
var errBadRequest = errors.New("bad request")

// Server multiplexes NDJSON streaming sessions onto per-session STATS
// pipelines. Every session clones the base pipeline config (optionally
// overridden per request by query parameters), and with it the base
// Sink: the server's one Metrics collector, joined to the caller's sink
// if it gave one, so /metrics aggregates across all sessions served.
type Server struct {
	base engine.StreamConfig
	met  *engine.Metrics
	lim  Options

	front cluster.Front // /healthz, /readyz (flipped by StartDrain), panic recovery
	sem   chan struct{} // session slots; acquiring may not block
	shed  atomic.Int64  // sessions rejected at the cap

	// halters holds the pipelines of in-flight migrate=1 sessions;
	// StartDrain halts each at its commit frontier so the session emits a
	// final checkpoint and a #migrate marker instead of running to
	// completion on a process that is going away.
	halters sync.Map // *engine.Pipeline -> struct{}
}

// New builds a Server from a base pipeline config (cloned per session)
// and serving options.
func New(base engine.StreamConfig, lim Options) *Server {
	met := engine.NewMetrics()
	base.Sink = engine.Tee(met, base.Sink)
	// A limit cannot switch itself off: a non-positive one is the default.
	if lim.MaxSessions <= 0 {
		lim.MaxSessions = defaultMaxSessions
	}
	if lim.MaxBody <= 0 {
		lim.MaxBody = defaultMaxBody
	}
	if lim.MaxLine <= 0 {
		lim.MaxLine = bench.DefaultMaxLine
	}
	return &Server{base: base, met: met, lim: lim, front: cluster.Front{Name: "statsserved"},
		sem: make(chan struct{}, lim.MaxSessions)}
}

// Handler returns the server's HTTP surface inside the shared front-end
// shell: /healthz, /readyz and panic recovery.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /v1/benchmarks", s.handleBenchmarks)
	mux.HandleFunc("POST /v1/stream/{benchmark}", s.handleStream)
	return s.front.Handler(mux)
}

// StartDrain flips the server into draining mode: /readyz turns not-ready
// so load balancers stop routing here, and new sessions are refused.
// In-flight sessions run to completion (bounded by the caller's grace
// period) — except migrate=1 sessions, which are halted at their commit
// frontier: each finishes its in-flight chunks, emits a final checkpoint
// line, and ends with a #migrate marker the gateway resumes from.
func (s *Server) StartDrain() {
	s.front.StartDrain()
	s.halters.Range(func(k, _ any) bool {
		k.(*engine.Pipeline).Halt()
		return true
	})
}

// handleMetrics serves the engine collector's values beside the serving
// layer's own, which describe this HTTP front end, not the pipelines
// behind it. The gauges are for the operator: session slots held, the
// cap, chunks speculating right now across every in-flight session's
// window, and whether this process is draining. A gateway knows the
// backend by its address, so the page carries no label of its own.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	page := make(map[string]int64, 128)
	s.met.Put(page)
	page["serve/counter[handler_panics]"] = s.front.Panics()
	page["serve/counter[sessions_shed]"] = s.shed.Load()
	// Lines this process decoded through encoding/json because they were
	// not in a codec's canonical form: correct, at about three times the
	// cost. A client that moves this by one a line should drop the
	// whitespace from its encoder.
	page["serve/counter[decode_fallback_lines]"] = int64(bench.FallbackLines())
	page["serve/gauge[active_sessions]"] = int64(len(s.sem))
	page["serve/gauge[max_sessions]"] = int64(cap(s.sem))
	page["serve/gauge[window_occupancy]"] = s.met.InFlight.Load()
	page["serve/gauge[draining]"] = 0
	if s.front.Draining() {
		page["serve/gauge[draining]"] = 1
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	cluster.WriteMetrics(w, cluster.BackendMetrics{Values: page})
}

// retryAfterSeconds is the Retry-After hint sent with a 429 shed: 1s, or
// 2s when any active session has a chunk in flight. A server whose
// sessions are speculating is further from freeing a session slot than
// one shedding on a brief spike, so its clients — and the gateway using
// this hint to schedule re-routes — back off for twice as long.
func (s *Server) retryAfterSeconds() int {
	if s.met.Active.Load() > 0 && s.met.InFlight.Load() > 0 {
		return 2
	}
	return 1
}

func (s *Server) handleBenchmarks(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(map[string][]string{
		"streamable": bench.CodecNames(),
		"all":        bench.Names(),
	})
}

// Trailer is the final NDJSON line of every session: it tells the
// client the stream drained (or why it didn't) and summarizes the run.
type Trailer struct {
	Done      bool               `json:"done"`
	Benchmark string             `json:"benchmark"`
	Stats     engine.StreamStats `json:"stats"`
	Error     string             `json:"error,omitempty"`
	// Migrated reports that the server halted this session at its commit
	// frontier for migration: the output stream is a valid prefix, the
	// last #ckpt line resumes it elsewhere, and Done is false.
	Migrated bool `json:"migrated,omitempty"`
	// Attribution is the six-category overhead breakdown of the session,
	// present when the request asked for it with attrib=1.
	Attribution *Attribution `json:"attribution,omitempty"`
}

// Attribution is the paper's speedup-loss decomposition rendered for the
// trailer: how much of the ideal (linear) speedup the session achieved
// and where the rest went.
type Attribution struct {
	Ideal        float64            `json:"ideal"`
	Measured     float64            `json:"measured"`
	TotalLostPct float64            `json:"totalLostPct"`
	LostPct      map[string]float64 `json:"lostPct"`
	Error        string             `json:"error,omitempty"`
}

// attribute folds a session recorder into the trailer's attribution.
func attribute(rec *engine.Recorder, workers int) *Attribution {
	// The worker pool plus the Recorder's thread 0, where it files the
	// commit frontier's events. The frontier is a role a worker takes,
	// not a goroutine of its own.
	cores := workers + 1
	b, err := rec.Breakdown(cores)
	if err != nil {
		return &Attribution{Error: err.Error()}
	}
	a := &Attribution{
		Ideal:        b.Ideal,
		Measured:     b.Measured,
		TotalLostPct: b.TotalLostPct,
		LostPct:      make(map[string]float64, critpath.NumLosses),
	}
	for l := 0; l < critpath.NumLosses; l++ {
		a.LostPct[critpath.Loss(l).String()] = b.LostPct[l]
	}
	return a
}
