// Package serve implements the statsserved HTTP service: NDJSON
// streaming STATS sessions at POST /v1/stream/{benchmark}, aggregated
// /metrics with cluster-routing load gauges, /healthz liveness, /readyz
// routability with SIGTERM drain, and bounded-everything hardening. It
// lives outside cmd/statsserved so that statsgate's integration tests can
// run real in-process backends.
package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"math"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"gostats/internal/bench"
	"gostats/internal/checkpoint"
	"gostats/internal/critpath"
	"gostats/internal/engine"
)

// Options bounds what one statsserved process will accept and labels it
// for cluster aggregation. Zero values select the defaults in New; every
// limit exists so a single misbehaving client — an unbounded body, an
// endless line, a session that never finishes, or too many sessions at
// once — degrades into a clean HTTP error instead of unbounded memory or
// goroutine growth.
type Options struct {
	// MaxSessions caps concurrent streaming sessions; excess requests
	// are shed with 429. 0 means the default (64).
	MaxSessions int
	// SessionTimeout bounds one session's wall-clock lifetime. 0 means
	// no timeout.
	SessionTimeout time.Duration
	// MaxBody caps a session request body in bytes. 0 means the default
	// (1 GiB).
	MaxBody int64
	// MaxLine caps one NDJSON input line in bytes. 0 means
	// bench.DefaultMaxLine.
	MaxLine int
	// RetryAfterBase is the base Retry-After hint attached to 429 session
	// sheds, scaled up by current speculation-window occupancy (see
	// retryAfterSeconds). 0 means the default (1s).
	RetryAfterBase time.Duration
	// Instance labels this process in /metrics (the serve/instance line)
	// so a gateway aggregating several backends can tell them apart. ""
	// means the default ("statsserved").
	Instance string
}

const (
	defaultMaxSessions   = 64
	defaultMaxBody       = 1 << 30
	defaultRetryAfter    = time.Second
	defaultInstance      = "statsserved"
	maxRetryAfterSeconds = 60
)

// errBadRequest marks session failures caused by the request itself
// (malformed or oversized input); the handler maps them to 4xx when no
// output has been written yet.
var errBadRequest = errors.New("bad request")

// Server multiplexes NDJSON streaming sessions onto per-session STATS
// pipelines. Every session clones the base pipeline config (optionally
// overridden per request by query parameters) but shares one Metrics
// collector, so /metrics aggregates across all sessions served.
type Server struct {
	base engine.StreamConfig
	met  *engine.Metrics
	lim  Options

	sem      chan struct{} // session slots; acquiring may not block
	draining atomic.Bool   // readiness gate flipped by StartDrain
	shed     atomic.Int64  // sessions rejected at the cap
	panics   atomic.Int64  // handler panics recovered by the middleware

	// halters holds the pipelines of in-flight migrate=1 sessions;
	// StartDrain halts each at its commit frontier so the session emits a
	// final checkpoint and a #migrate marker instead of running to
	// completion on a process that is going away.
	halters sync.Map // *engine.Pipeline -> struct{}
}

// New builds a Server from a base pipeline config (cloned per session)
// and serving options.
func New(base engine.StreamConfig, lim Options) *Server {
	if base.Metrics == nil {
		base.Metrics = engine.NewMetrics()
	}
	if lim.MaxSessions == 0 {
		lim.MaxSessions = defaultMaxSessions
	}
	if lim.MaxBody == 0 {
		lim.MaxBody = defaultMaxBody
	}
	if lim.MaxLine == 0 {
		lim.MaxLine = bench.DefaultMaxLine
	}
	if lim.RetryAfterBase == 0 {
		lim.RetryAfterBase = defaultRetryAfter
	}
	if lim.Instance == "" {
		lim.Instance = defaultInstance
	}
	s := &Server{base: base, met: base.Metrics, lim: lim}
	if lim.MaxSessions > 0 {
		s.sem = make(chan struct{}, lim.MaxSessions)
	}
	return s
}

// Handler returns the server's HTTP surface, wrapped in panic recovery.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /v1/benchmarks", s.handleBenchmarks)
	mux.HandleFunc("POST /v1/stream/{benchmark}", s.handleStream)
	return s.recovered(mux)
}

// recovered is the outermost middleware: a panic escaping any handler is
// counted and answered with a 500 instead of tearing down the
// connection-serving goroutine silently. http.ErrAbortHandler is the
// net/http-sanctioned way to abort a response and is re-raised.
func (s *Server) recovered(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			v := recover()
			if v == nil {
				return
			}
			if v == http.ErrAbortHandler {
				panic(v)
			}
			s.panics.Add(1)
			log.Printf("statsserved: panic in %s %s: %v", r.Method, r.URL.Path, v)
			// Best effort: if the response has started this write fails,
			// and net/http closes the connection mid-body, which a
			// streaming client sees as a truncated session (no trailer).
			http.Error(w, "internal error", http.StatusInternalServerError)
		}()
		next.ServeHTTP(w, r)
	})
}

// StartDrain flips the server into draining mode: /readyz turns not-ready
// so load balancers stop routing here, and new sessions are refused.
// In-flight sessions run to completion (bounded by the caller's grace
// period) — except migrate=1 sessions, which are halted at their commit
// frontier: each finishes its in-flight chunks, emits a final checkpoint
// line, and ends with a #migrate marker the gateway resumes from.
func (s *Server) StartDrain() {
	s.draining.Store(true)
	s.halters.Range(func(k, _ any) bool {
		k.(*engine.Pipeline).Halt()
		return true
	})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

// handleReadyz is the routability signal, distinct from /healthz
// liveness: a draining process is still alive (don't restart it) but must
// not receive new sessions.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if s.draining.Load() {
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "draining")
		return
	}
	fmt.Fprintln(w, "ready")
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	s.met.WriteText(w)
	// Serving-layer counters, kept out of the engine collector: they
	// describe this HTTP front end, not the pipelines behind it.
	fmt.Fprintf(w, "serve/counter[handler_panics]=%d\n", s.panics.Load())
	fmt.Fprintf(w, "serve/counter[sessions_shed]=%d\n", s.shed.Load())
	// Load signals for cluster routing (statsgate's least-loaded policy
	// scrapes these): current session slots held, the cap, how many
	// chunks are speculating right now across every in-flight session's
	// window, and whether this process is draining. One line each,
	// machine-parseable as serve/gauge[name]=value; serve/instance
	// distinguishes backends once a gateway aggregates several of them.
	fmt.Fprintf(w, "serve/instance=%s\n", s.lim.Instance)
	fmt.Fprintf(w, "serve/gauge[active_sessions]=%d\n", len(s.sem))
	fmt.Fprintf(w, "serve/gauge[max_sessions]=%d\n", cap(s.sem))
	fmt.Fprintf(w, "serve/gauge[window_occupancy]=%d\n", s.met.InFlight.Load())
	draining := 0
	if s.draining.Load() {
		draining = 1
	}
	fmt.Fprintf(w, "serve/gauge[draining]=%d\n", draining)
}

// retryAfterSeconds computes the Retry-After hint sent with a 429 shed.
// The flag-tunable base (-retry-after) is scaled by how saturated the
// in-flight sessions' speculation windows are: a server whose sessions
// all have full windows (InFlight chunks ≈ active·Workers) is further
// from freeing a session slot than one shedding on a brief spike, so its
// clients — and the gateway using this hint to schedule re-routes — back
// off for up to twice the base. Clamped to [1s, 60s].
func (s *Server) retryAfterSeconds() int {
	base := s.lim.RetryAfterBase.Seconds()
	active := s.met.Active.Load()
	occ := 0.0
	if active > 0 {
		window := s.base.Workers
		if window <= 0 {
			window = 4 // the pipeline default
		}
		occ = float64(s.met.InFlight.Load()) / float64(active*int64(window))
		occ = math.Min(occ, 1)
	}
	secs := int(math.Ceil(base * (1 + occ)))
	if secs < 1 {
		secs = 1
	}
	if secs > maxRetryAfterSeconds {
		secs = maxRetryAfterSeconds
	}
	return secs
}

func (s *Server) handleBenchmarks(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(map[string][]string{
		"streamable": bench.CodecNames(),
		"all":        bench.Names(),
	})
}

// Session control lines. A session that opts into checkpointing
// (ckpt=N or migrate=1) gets #ckpt lines interleaved in its NDJSON
// output — each carries a base64 snapshot covering exactly the output
// lines written above it — and, if the server drains it away, a final
// #migrate marker before the trailer. A resume=1 session instead
// *starts* with a control line: its first body line must be
// "#resume <base64>", the snapshot to restore; input lines follow from
// the snapshot frontier onward. Plain sessions never see control lines.
const (
	ckptPrefix   = "#ckpt "
	resumePrefix = "#resume "
	migrateLine  = "#migrate"
)

// haltDrainGrace bounds how long a halted session waits for its client
// to see #migrate, stop uploading, and close the request body. Long
// enough for a round trip to a well-behaved client; short enough that a
// stuck one cannot pin the draining server.
const haltDrainGrace = time.Second

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
	cores := workers + 1 // worker pool plus the commit frontier
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

// handleStream runs one streaming session: NDJSON inputs in the request
// body, committed NDJSON outputs in the response, a trailer line last.
// Outputs stream back while inputs are still arriving; the pipeline's
// backpressure propagates to the client through unread request bytes.
//
// Failures before the first output byte get a plain HTTP status —
// 4xx when the request itself is at fault (malformed or oversized
// input), 429 at the session cap, 503 while draining. Once output has
// streamed, errors travel in the trailer line instead.
func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	if s.sem != nil {
		select {
		case s.sem <- struct{}{}:
			defer func() { <-s.sem }()
		default:
			s.shed.Add(1)
			w.Header().Set("Retry-After", strconv.Itoa(s.retryAfterSeconds()))
			http.Error(w, "session capacity reached", http.StatusTooManyRequests)
			return
		}
	}
	if r.ContentLength > s.lim.MaxBody {
		http.Error(w, "request body too large", http.StatusRequestEntityTooLarge)
		return
	}
	r.Body = http.MaxBytesReader(w, r.Body, s.lim.MaxBody)

	name := r.PathValue("benchmark")
	codec, err := bench.CodecFor(name)
	if err != nil {
		http.Error(w, err.Error(), http.StatusNotFound)
		return
	}
	prog, err := bench.New(name)
	if err != nil {
		http.Error(w, err.Error(), http.StatusNotFound)
		return
	}
	cfg := s.base
	if err := applyQuery(&cfg, r); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	// attrib=1 attaches a recorder to the session's engine event stream;
	// the trailer then carries the overhead breakdown of this session.
	var rec *engine.Recorder
	if v := r.URL.Query().Get("attrib"); v != "" {
		on, err := strconv.ParseBool(v)
		if err != nil {
			http.Error(w, fmt.Sprintf("query attrib=%q: %v", v, err), http.StatusBadRequest)
			return
		}
		if on {
			rec = engine.NewRecorder()
			cfg.Sink = rec
		}
	}

	// Checkpointed-session options (the statsgate relay speaks these):
	// ckpt=N interleaves a #ckpt control line every N commits, migrate=1
	// registers the session for drain-halt (and guarantees a final
	// checkpoint on halt), resume=1 restores the session from a #resume
	// first body line instead of starting fresh.
	ckptEvery, err := queryInt(r, "ckpt")
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	migrate, err := queryBool(r, "migrate")
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	resumeSess, err := queryBool(r, "resume")
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	var wire bench.WireCodec
	if ckptEvery > 0 || migrate || resumeSess {
		if wire, err = bench.WireFor(name); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
	}

	// The line scanner is shared between the resume prologue (which must
	// read the #resume line before the pipeline exists) and the pusher.
	sc := bench.NewLineScanner(r.Body, s.lim.MaxLine)
	var resumeBase int64 // outputs the restored session already delivered
	if resumeSess {
		snap, err := readResumeLine(sc)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		cfg.Resume = &engine.ResumeConfig{Snap: snap, Codec: wire}
		resumeBase = snap.Inputs
	}

	// Snapshots arrive synchronously from the commit stage, but a #ckpt
	// line may only be written after every output it covers: queue them
	// with their due output count and flush from the output loop.
	type ckptLine struct {
		due int64
		b64 string
	}
	var (
		ckptMu sync.Mutex
		ckptQ  []ckptLine
	)
	if ckptEvery > 0 || migrate {
		cfg.Checkpoint = engine.CheckpointConfig{
			Codec:        wire,
			EveryCommits: ckptEvery,
			OnSnapshot: func(snap *checkpoint.Snapshot) {
				b64, err := checkpoint.EncodeString(snap)
				if err != nil {
					return // surfaced via CheckpointErr after drain
				}
				ckptMu.Lock()
				ckptQ = append(ckptQ, ckptLine{due: snap.Inputs - resumeBase, b64: b64})
				ckptMu.Unlock()
			},
		}
	}

	// The session lives inside the request context — a client disconnect
	// or a forced server close tears the pipeline down — further bounded
	// by the per-session deadline when one is configured.
	ctx, cancel := context.WithCancel(r.Context())
	defer cancel()
	if s.lim.SessionTimeout > 0 {
		var tcancel context.CancelFunc
		ctx, tcancel = context.WithTimeoutCause(ctx, s.lim.SessionTimeout,
			fmt.Errorf("session exceeded -session-timeout %s", s.lim.SessionTimeout))
		defer tcancel()
	}
	p, err := engine.NewStream(ctx, prog, cfg)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if migrate {
		// Register for drain-halt, then re-check: a StartDrain that raced
		// past registration must still halt this session.
		s.halters.Store(p, struct{}{})
		defer s.halters.Delete(p)
		if s.draining.Load() {
			p.Halt()
		}
	}
	// Whatever path exits this handler, fully unwind the session: cancel,
	// drain the output channel, and wait for every pipeline goroutine.
	defer func() {
		cancel()
		for range p.Outputs() {
		}
		p.Wait()
	}()

	// Full duplex is enabled lazily, at the first output write (below):
	// error-only responses leave the body to net/http's usual
	// consume-or-close handling, which — unlike the full-duplex path —
	// never re-arms a background read after the handler returns. (With
	// full duplex on, finishRequest aborts pending reads *before* closing
	// the body; the close's drain then hits EOF and starts a background
	// read nothing aborts, and the next keep-alive read panics.)
	rc := http.NewResponseController(w)

	// Pusher: the single producer. It owns Push and Close, decoding body
	// lines until EOF or error. Oversized lines stop it with a typed
	// error instead of buffering without bound. It continues the scanner
	// the resume prologue may already have read a control line from.
	pushDone := make(chan error, 1)
	go func() {
		defer p.Close()
		for sc.Scan() {
			b := sc.Bytes()
			if len(bytes.TrimSpace(b)) == 0 {
				continue
			}
			in, err := codec.DecodeInput(b)
			if err != nil {
				pushDone <- fmt.Errorf("%w: input line %d: %v", errBadRequest, sc.Line(), err)
				return
			}
			if err := p.Push(ctx, in); err != nil {
				pushDone <- fmt.Errorf("input line %d: %w", sc.Line(), err)
				return
			}
		}
		err := sc.Err()
		if errors.Is(err, bench.ErrLineTooLong) {
			err = fmt.Errorf("%w: %v", errBadRequest, err)
		}
		pushDone <- err
	}()

	out := bufio.NewWriter(w)
	flusher, _ := w.(http.Flusher)
	started := false // true once a response byte is committed
	writeLine := func(b []byte) {
		if !started {
			// Outputs stream back while the client is still sending
			// inputs. Without full duplex, this first write would try
			// to drain the request body and deadlock against
			// backpressure. (Errors mean the transport is full duplex
			// already, e.g. HTTP/2.)
			_ = rc.EnableFullDuplex()
			w.Header().Set("Content-Type", "application/x-ndjson")
			started = true
		}
		out.Write(b)
		out.WriteByte('\n')
		out.Flush()
		if flusher != nil {
			flusher.Flush()
		}
	}
	// flushCkpt writes every queued #ckpt line whose covered outputs have
	// all been written — a snapshot may only appear below the last line it
	// accounts for. Lines are popped under the lock but written outside
	// it: OnSnapshot runs on the commit path and must never wait on a slow
	// client.
	var written int64 // output lines written (control lines excluded)
	flushCkpt := func() {
		ckptMu.Lock()
		var due []ckptLine
		for len(ckptQ) > 0 && ckptQ[0].due <= written {
			due = append(due, ckptQ[0])
			ckptQ = ckptQ[1:]
		}
		ckptMu.Unlock()
		for _, c := range due {
			writeLine([]byte(ckptPrefix + c.b64))
		}
	}
	var encErr error
	for o := range p.Outputs() {
		b, err := codec.EncodeOutput(o)
		if err != nil {
			encErr = err
			cancel() // abandon the session; drain happens in the defer
			break
		}
		writeLine(b)
		written++
		flushCkpt()
	}
	flushCkpt() // the halt-frontier snapshot lands after the last output

	// A halted session was stopped at its commit frontier for migration:
	// tell the client now — before waiting on the pusher — so a gateway
	// parked on this response knows to stop sending inputs and close the
	// body, which in turn unblocks the pusher. The read deadline is set a
	// beat into the future, not poisoned to now: the client is likely
	// still uploading, and an immediate poison closes the connection
	// under its in-flight bytes, RSTing the #migrate line and trailer out
	// of its receive buffer. The grace window unblocks a parked pusher
	// soon while leaving room for the client to see #migrate, stop, and
	// close the body for a clean EOF (the drain after the trailer below).
	halted := p.Halted()
	if halted {
		writeLine([]byte(migrateLine))
		_ = rc.SetReadDeadline(time.Now().Add(haltDrainGrace))
	}

	// The pusher can be blocked reading a body the client holds open; when
	// the session context ends first (timeout, disconnect, drain), poison
	// the connection read deadline so that read fails, then wait for the
	// pusher: the handler must never return with a body read in flight.
	var pushErr error
	pusherExited := false
	select {
	case pushErr = <-pushDone:
		pusherExited = true
	case <-ctx.Done():
		if rc.SetReadDeadline(time.Now()) == nil {
			<-pushDone
			pusherExited = true
		}
		pushErr = context.Cause(ctx)
	}
	stats, runErr := p.Wait()
	if halted {
		// Push-after-halt and poisoned-read errors are expected fallout of
		// halting, not session failures.
		pushErr = nil
	}
	var sessionErr error
	for _, err := range []error{encErr, pushErr, runErr} {
		if err != nil {
			sessionErr = err
			break
		}
	}

	// An errored session leaves unread body bytes, with the client
	// possibly still sending — and net/http's post-handler cleanup
	// reads them in ways that misbehave here: the pre-response drain can
	// block the error status against a streaming client, and (with full
	// duplex on) a drain that reaches EOF after the handler's pending
	// reads were aborted re-arms a background read nothing cancels,
	// panicking the next keep-alive read. So finish the body story
	// in-handler: poison the connection read deadline, then drain
	// whatever is already buffered. Either the body hits EOF here — where
	// finishRequest still reaps the read it triggers — or every later
	// read fails fast and the connection is simply not reused.
	// (Halted sessions get the gentler post-trailer drain below instead:
	// their client is healthy and needs the trailer intact.)
	if sessionErr != nil && !halted && pusherExited && rc.SetReadDeadline(time.Now()) == nil {
		_, _ = io.CopyN(io.Discard, r.Body, 64<<10)
	}

	// Nothing written yet: the failure can still be a clean status line.
	if !started && sessionErr != nil {
		status := http.StatusInternalServerError
		var mbe *http.MaxBytesError
		switch {
		case errors.As(sessionErr, &mbe):
			status = http.StatusRequestEntityTooLarge
		case errors.Is(sessionErr, errBadRequest):
			status = http.StatusBadRequest
		}
		http.Error(w, sessionErr.Error(), status)
		return
	}

	if !started {
		w.Header().Set("Content-Type", "application/x-ndjson")
	}
	tr := Trailer{Done: true, Benchmark: name, Stats: stats}
	if rec != nil {
		workers := cfg.Workers
		if workers == 0 {
			workers = 4 // the pipeline default
		}
		tr.Attribution = attribute(rec, workers)
	}
	if sessionErr != nil {
		tr.Done, tr.Error = false, sessionErr.Error()
	}
	if halted {
		tr.Done, tr.Migrated = false, true
		if tr.Error == "" {
			tr.Error = "session migrated"
		}
		if err := p.CheckpointErr(); err != nil {
			tr.Error = "migration checkpoint failed: " + err.Error()
		}
	}
	if b, err := json.Marshal(tr); err == nil {
		out.Write(b)
		out.WriteByte('\n')
	}
	out.Flush()
	if flusher != nil {
		flusher.Flush()
	}

	// A halted session's client was mid-upload when the session migrated
	// away. Returning now would close the connection under its in-flight
	// bytes and RST the #migrate line and trailer out of its receive
	// buffer — so read the body to EOF instead: the client sees #migrate,
	// stops, and closes for a clean EOF. The read deadline armed when
	// #migrate was written bounds how long a misbehaving client can hold
	// the handler here.
	if halted && pusherExited {
		_, _ = io.Copy(io.Discard, r.Body)
	}
}

// applyQuery overrides the session's pipeline config from request query
// parameters: seed, chunk, lookback, extra, workers, adapt.
func applyQuery(cfg *engine.StreamConfig, r *http.Request) error {
	q := r.URL.Query()
	setInt := func(key string, dst *int) error {
		if v := q.Get(key); v != "" {
			n, err := strconv.Atoi(v)
			if err != nil {
				return fmt.Errorf("query %s=%q: %w", key, v, err)
			}
			*dst = n
		}
		return nil
	}
	for key, dst := range map[string]*int{
		"chunk": &cfg.ChunkSize, "lookback": &cfg.Lookback,
		"extra": &cfg.ExtraStates, "workers": &cfg.Workers,
	} {
		if err := setInt(key, dst); err != nil {
			return err
		}
	}
	if v := q.Get("seed"); v != "" {
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			return fmt.Errorf("query seed=%q: %w", v, err)
		}
		cfg.Seed = n
	}
	if v := q.Get("adapt"); v != "" {
		b, err := strconv.ParseBool(v)
		if err != nil {
			return fmt.Errorf("query adapt=%q: %w", v, err)
		}
		cfg.Adapt = b
	}
	return cfg.Validate()
}

// queryInt parses an optional non-negative integer query parameter;
// absent means 0.
func queryInt(r *http.Request, key string) (int, error) {
	v := r.URL.Query().Get(key)
	if v == "" {
		return 0, nil
	}
	n, err := strconv.Atoi(v)
	if err != nil || n < 0 {
		return 0, fmt.Errorf("query %s=%q: want a non-negative integer", key, v)
	}
	return n, nil
}

// queryBool parses an optional boolean query parameter; absent means
// false.
func queryBool(r *http.Request, key string) (bool, error) {
	v := r.URL.Query().Get(key)
	if v == "" {
		return false, nil
	}
	b, err := strconv.ParseBool(v)
	if err != nil {
		return false, fmt.Errorf("query %s=%q: %v", key, v, err)
	}
	return b, nil
}

// readResumeLine consumes a resume=1 session's first body line, which
// must be a "#resume <base64>" control line, and decodes its snapshot.
// Input lines follow it from the snapshot frontier onward.
func readResumeLine(sc *bench.LineScanner) (*checkpoint.Snapshot, error) {
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		if !bytes.HasPrefix(line, []byte(resumePrefix)) {
			return nil, fmt.Errorf("resume=1 session must start with a %q line", resumePrefix)
		}
		snap, err := checkpoint.DecodeString(string(line[len(resumePrefix):]))
		if err != nil {
			return nil, fmt.Errorf("resume line: %v", err)
		}
		return snap, nil
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("reading resume line: %v", err)
	}
	return nil, errors.New("resume=1 session has an empty body")
}
