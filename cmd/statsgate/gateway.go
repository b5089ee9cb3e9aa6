package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"io"
	"log"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"gostats/internal/checkpoint"
	"gostats/internal/cluster"
)

// maxCrashResumes bounds checkpoint resumes after *unplanned* backend
// loss (planned drain migrations are unbounded — each needs a real drain
// event). A session whose backends keep dying mid-chunk is better
// truncated than ping-ponged forever.
const maxCrashResumes = 3

// fetchTimeout bounds the gateway's GETs of a backend.
const fetchTimeout = 2 * time.Second

// gateway is the statsgate front door: it admits sessions through a
// token bucket, picks a backend with the configured routing policy,
// proxies the full-duplex NDJSON session, and — when a backend sheds
// with 429/503 before any output byte has reached the client — replays
// the consumed request bytes to the next backend the policy picks.
type gateway struct {
	reg    *cluster.Registry
	policy cluster.RoutingPolicy
	bucket *cluster.TokenBucket
	client *http.Client
	met    cluster.GateMetrics

	front cluster.Front // /healthz, /readyz (flipped by startDrain), panic recovery
	epoch time.Time     // token-bucket clock origin
	seq   atomic.Uint64 // admission sequence numbers for SessionKey

	// migrate switches sessions to the checkpointed protocol: backends
	// are asked for #ckpt lines every ckptEvery commits, and a session a
	// backend halts (#migrate, typically on drain) — or loses outright —
	// is resumed from its latest checkpoint on the next backend the
	// policy picks, invisibly to the client.
	migrate   bool
	ckptEvery int
}

func newGateway(reg *cluster.Registry, policy cluster.RoutingPolicy, bucket *cluster.TokenBucket) *gateway {
	return &gateway{
		reg:    reg,
		policy: policy,
		bucket: bucket,
		// One shared transport: backend connections are long-lived
		// streams, so allow plenty of idle conns per backend host.
		client: &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: 64,
			IdleConnTimeout:     90 * time.Second,
		}},
		front: cluster.Front{Name: "statsgate"},
		epoch: time.Now(),
	}
}

func (g *gateway) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /metrics", g.handleMetrics)
	mux.HandleFunc("GET /v1/backends", g.handleBackends)
	mux.HandleFunc("GET /v1/benchmarks", g.handleBenchmarks)
	mux.HandleFunc("POST /v1/stream/{benchmark}", g.handleStream)
	return g.front.Handler(mux)
}

// startDrain flips /readyz not-ready and refuses new sessions, like
// statsserved: in-flight proxied sessions run to completion under the
// caller's grace period.
func (g *gateway) startDrain() { g.front.StartDrain() }

// handleMetrics renders the gateway's own counters and routing table,
// then a live aggregation of every reachable backend's /metrics:
// per-backend lines under backend[instance]/ and cluster-wide sums under
// cluster/.
func (g *gateway) handleMetrics(w http.ResponseWriter, r *http.Request) {
	page := make(map[string]int64, 512)
	backends := g.reg.Snapshots()
	g.met.Put(page, backends)
	page["gate/counter[handler_panics]"] = g.front.Panics()
	for _, b := range backends {
		if b.Health == cluster.Down {
			continue
		}
		text, status, err := cluster.Get(r.Context(), b.Addr+"/metrics", fetchTimeout)
		if err != nil || status != http.StatusOK {
			continue
		}
		cluster.Aggregate(page, b.ID, cluster.ParseMetrics(text).Values)
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	cluster.WriteMetrics(w, cluster.BackendMetrics{Values: page})
}

func (g *gateway) handleBackends(w http.ResponseWriter, r *http.Request) {
	type row struct {
		ID        string `json:"id"`
		Addr      string `json:"addr"`
		Health    string `json:"health"`
		InFlight  int    `json:"inFlight"`
		Active    int    `json:"active"`
		Occupancy int    `json:"occupancy"`
		Routed    int64  `json:"routed"`
		Shed      int64  `json:"shed"`
	}
	rows := []row{}
	for _, b := range g.reg.Snapshots() {
		rows = append(rows, row{b.ID, b.Addr, b.Health.String(),
			b.InFlight, b.Active, b.Occupancy, b.Routed, b.Shed})
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(map[string]any{
		"policy":   g.policy.Name(),
		"backends": rows,
	})
}

// handleBenchmarks forwards discovery to the first ready backend.
func (g *gateway) handleBenchmarks(w http.ResponseWriter, r *http.Request) {
	for _, b := range g.reg.Ready() {
		text, status, err := cluster.Get(r.Context(), b.Addr+"/v1/benchmarks", fetchTimeout)
		if err != nil || status != http.StatusOK {
			continue
		}
		w.Header().Set("Content-Type", "application/json")
		io.WriteString(w, text)
		return
	}
	http.Error(w, "no ready backend", http.StatusBadGateway)
}

// handleStream proxies one streaming session. Shed-and-re-route
// contract: a backend that answers 429 (session cap) or 503 (draining),
// or that cannot be reached at all, does so before emitting any output
// byte — statsserved decides those before reading the body — so the
// gateway replays the already-consumed request bytes to the next
// backend the policy picks. Once the first output byte has been relayed
// the session is pinned: failures after that point surface to the
// client exactly as the backend produced them, preserving the
// determinism contract (committed NDJSON bytes are the backend's,
// untouched).
func (g *gateway) handleStream(w http.ResponseWriter, r *http.Request) {
	rr := newReplayReader(r.Body)
	rc := http.NewResponseController(w)

	// Whatever path exits — the gateway's own refusals below included — no
	// goroutine may be left reading the request body (net/http forbids it
	// after the handler returns), and no status line may wait on a client
	// that holds its body open: kill every attempt view, and — unless the
	// body already drained to EOF — poison the connection read deadline so
	// a blocked read fails, then take the reader lock once to wait that
	// read out.
	defer func() {
		rr.killAll()
		if !rr.sawEOF() && rc.SetReadDeadline(time.Now()) == nil {
			rr.quiesce()
			_, _ = io.CopyN(io.Discard, r.Body, 64<<10)
		}
	}()

	if g.front.Draining() {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	if ok, wait := g.bucket.Admit(time.Since(g.epoch)); !ok {
		g.met.ShedAdmission.Add(1)
		w.Header().Set("Retry-After", retryAfterSeconds(wait))
		http.Error(w, "cluster admission rate exceeded", http.StatusTooManyRequests)
		return
	}
	if g.migrate {
		rr.trackLines()
	}
	g.route(w, r, rc, rr, cluster.SessionKey{
		Benchmark: r.PathValue("benchmark"),
		Seq:       g.seq.Add(1) - 1,
	})
}

// relayState tracks one session across backend attempts. Only a
// checkpointed session (-migrate) ever gets past its first relayed byte
// to use more than started.
type relayState struct {
	started  bool   // response status + headers committed to the client
	relayed  int64  // lines relayed to the client so far
	snap     string // latest checkpoint (base64), "" before the first
	frontier int64  // inputs the latest checkpoint covers
	crashes  int    // unplanned backend losses resumed so far
}

// Outcomes of one proxy attempt.
const (
	attemptDone    = iota // session answered; the handler must return
	attemptShed           // backend refused before output; re-routable
	attemptMigrate        // backend halted (or died) with a checkpoint to resume
)

// route runs one session across as many backends as it takes: ordinary
// re-routes for sheds before any output and, for a checkpointed session,
// a resume after a drain halt (#migrate) or a lost backend. The client
// sees a single uninterrupted NDJSON stream whose committed lines are
// byte-identical to a run that never moved.
func (g *gateway) route(w http.ResponseWriter, r *http.Request,
	rc *http.ResponseController, rr *replayReader, key cluster.SessionKey) {
	st := &relayState{}
	var hints []int
	for migrated := true; migrated; {
		migrated = false
		candidates := g.reg.Ready()
		for len(candidates) > 0 && !migrated {
			i := g.policy.Pick(candidates, key)
			outcome, hint := g.attempt(w, r, rc, candidates[i], rr, key.Benchmark, st)
			switch outcome {
			case attemptDone:
				return
			case attemptMigrate:
				g.met.Migrations.Add(1)
				migrated = true // re-snapshot Ready: the halted backend is on its way out
			case attemptShed:
				if hint > 0 {
					hints = append(hints, hint)
				}
				g.met.Reroutes.Add(1)
				candidates = append(candidates[:i:i], candidates[i+1:]...)
			}
		}
	}

	if st.started {
		// Mid-stream with no backend able to take the resume: end without
		// a trailer — the canonical truncated-session signal.
		log.Printf("statsgate: session %s/%d stranded mid-migration: no backend can resume it",
			key.Benchmark, key.Seq)
		return
	}
	// Every candidate shed or was unreachable: shed to the client with
	// the soonest Retry-After hint any backend offered.
	g.met.ShedCapacity.Add(1)
	w.Header().Set("Retry-After", strconv.Itoa(soonest(hints)))
	http.Error(w, "no backend can take the session", http.StatusTooManyRequests)
}

// soonest is the smallest Retry-After hint, 1 when no backend gave one.
func soonest(hints []int) int {
	if len(hints) == 0 {
		return 1
	}
	return slices.Min(hints)
}

// sessionURL builds a backend session URL: the client's query verbatim,
// or — checkpointed — with the gateway-managed parameters set.
func (g *gateway) sessionURL(b cluster.Backend, r *http.Request, benchmark string, resume bool) string {
	query := r.URL.RawQuery
	if g.migrate {
		q := r.URL.Query()
		q.Set("migrate", "1")
		if g.ckptEvery > 0 {
			q.Set("ckpt", strconv.Itoa(g.ckptEvery))
		}
		if resume {
			q.Set("resume", "1")
		} else {
			q.Del("resume")
		}
		query = q.Encode()
	}
	url := b.Addr + "/v1/stream/" + benchmark
	if query != "" {
		url += "?" + query
	}
	return url
}

// attempt proxies the session to one backend. attemptShed means the
// backend shed or was unreachable before any output byte, and the caller
// may re-route with hint (the backend's Retry-After in seconds, 0 if
// none). On a resume attempt the body is the latest snapshot's #resume
// line followed by the retained inputs from its frontier.
func (g *gateway) attempt(w http.ResponseWriter, r *http.Request, rc *http.ResponseController,
	b cluster.Backend, rr *replayReader, benchmark string, st *relayState) (outcome, hint int) {
	resume := st.snap != ""
	view := rr.view()
	var body io.Reader = view
	if resume {
		view = rr.viewAtLine(st.frontier)
		body = io.MultiReader(strings.NewReader(checkpoint.ResumePrefix+st.snap+"\n"), view)
	}
	defer view.Close()
	req, err := http.NewRequestWithContext(r.Context(), http.MethodPost, g.sessionURL(b, r, benchmark, resume), body)
	if err != nil {
		g.met.BackendErrors.Add(1)
		return attemptShed, 0
	}
	req.Header.Set("Content-Type", r.Header.Get("Content-Type"))
	// Session bodies stream; never let the transport wait to buffer one.
	req.ContentLength = -1

	g.reg.StartSession(b.ID)
	defer g.reg.EndSession(b.ID)
	resp, err := g.client.Do(req)
	if err != nil {
		g.met.BackendErrors.Add(1)
		return attemptShed, 0
	}
	defer resp.Body.Close()

	if resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode == http.StatusServiceUnavailable {
		// The backend shed before reading the session: re-routable.
		g.reg.MarkShed(b.ID)
		if s, err := strconv.Atoi(strings.TrimSpace(resp.Header.Get("Retry-After"))); err == nil {
			hint = s
		}
		return attemptShed, hint
	}

	// Anything else is the session's answer. Relay it: status and content
	// type once, then the body. Full duplex first: outputs flow while the
	// client is still uploading inputs.
	g.reg.MarkRouted(b.ID)
	lines := g.migrate && resp.StatusCode == http.StatusOK
	if !lines {
		if st.started {
			return attemptDone, 0 // a resume was refused mid-stream: headers are out, swallow it
		}
		rr.release(view)
	}
	if !st.started {
		_ = rc.EnableFullDuplex()
		if ct := resp.Header.Get("Content-Type"); ct != "" {
			w.Header().Set("Content-Type", ct)
		}
		w.WriteHeader(resp.StatusCode)
		st.started = true
	}
	if lines {
		return g.relayLines(w, rc, resp.Body, rr, st), 0
	}
	// The plain relay: the backend's bytes untouched, a flush per read so
	// committed outputs stream to the client as the backend emits them.
	buf := make([]byte, 32<<10)
	for {
		n, rerr := resp.Body.Read(buf)
		if n > 0 {
			if _, werr := w.Write(buf[:n]); werr != nil {
				return attemptDone, 0
			}
			_ = rc.Flush()
		}
		if rerr != nil {
			return attemptDone, 0
		}
	}
}

// relayLines is the checkpointed relay: output lines go to the client
// whole, #ckpt lines are recorded (and trim the replay window to the
// checkpoint frontier — retained request memory is bounded by checkpoint
// lag, not session length), and #migrate plus the halt trailer are
// consumed. Outputs a resumed backend recomputes below what the client
// already has are skipped.
func (g *gateway) relayLines(w http.ResponseWriter, rc *http.ResponseController,
	from io.Reader, rr *replayReader, st *relayState) (outcome int) {
	// Outputs below what the client already received are recomputed by a
	// resumed backend (frontier ≤ relayed); drop them.
	var skip int64
	if st.snap != "" {
		skip = st.relayed - st.frontier
	}
	br := bufio.NewReaderSize(from, 64<<10)
	migrating := false
	// Flush when the backend has nothing more buffered, not per line: what
	// one backend write carried — a committed chunk's outputs — leaves in
	// one write, and an interactive client still sees every line before
	// the relay blocks on the next read (serve's pump does the same with
	// Outputs). dirty: lines written since the last flush.
	dirty := false
	flush := func() {
		if dirty {
			_ = rc.Flush()
			dirty = false
		}
	}
	defer flush() // a hand-off must not sit on relayed lines while the next backend resumes
	for {
		if br.Buffered() == 0 {
			flush()
		}
		line, rerr := br.ReadString('\n')
		if rerr != nil {
			// Stream over. A clean EOF after #migrate is the handoff; a clean
			// EOF otherwise means the trailer went out whole and the session is
			// complete. Anything else — a transport error, or a torn final line
			// (never relayed: client lines stay whole) — is a lost backend,
			// resumable iff a checkpoint is in hand.
			switch {
			case rerr == io.EOF && len(line) == 0 && migrating:
				return attemptMigrate
			case rerr == io.EOF && len(line) == 0:
				return attemptDone
			}
			g.met.BackendErrors.Add(1)
			switch {
			case st.snap != "" && st.crashes < maxCrashResumes:
				st.crashes++
				return attemptMigrate
			case st.relayed == 0 && st.snap == "":
				return attemptShed // nothing reached the client; replay in full
			}
			return attemptDone // truncated mid-stream with nothing to resume from
		}
		switch kind, b64 := checkpoint.ParseControl(line[:len(line)-1]); {
		case kind == checkpoint.Ckpt:
			if snap, err := checkpoint.DecodeString(b64); err == nil {
				st.snap, st.frontier = b64, snap.Inputs
				rr.trimToLine(snap.Inputs)
			}
		case kind == checkpoint.Migrate:
			migrating = true
		case migrating:
			// The halt trailer — the last line the backend writes, and
			// the client gets the final backend's instead. Hand off now
			// rather than waiting for EOF: the backend holds its side
			// open until we close the request body, and closing it (the
			// deferred Body.Close) is what releases the backend.
			return attemptMigrate
		case skip > 0:
			skip--
		default:
			if _, werr := io.WriteString(w, line); werr != nil {
				return attemptDone
			}
			dirty = true
			st.relayed++
		}
	}
}

// retryAfterSeconds renders a wait as a whole-second Retry-After value,
// rounding up so a client never retries early.
func retryAfterSeconds(wait time.Duration) string {
	s := int((wait + time.Second - 1) / time.Second)
	if s < 1 {
		s = 1
	}
	return strconv.Itoa(s)
}

// errAttemptAborted stops a shed attempt's transport from consuming
// more of the session body once the gateway has moved on.
var errAttemptAborted = errors.New("statsgate: attempt aborted")

// replayReader lets one logical session body feed several sequential
// proxy attempts. Bytes read from the client are retained until
// release(), so an attempt that a backend sheds — always before it has
// produced output, and in practice before it has consumed much input —
// can be replayed in full to the next backend. release() (first output
// byte relayed: no more re-routes) keeps only what the winning view has
// not read yet; the winner reads that, then straight through, and nothing
// further is retained, so a long session costs no replay memory.
//
// Retained bytes live in fixed-size blocks, never in one growing slice:
// each source read lands in a block of its own, or — a short read that
// fits — in the room left in the last one, so a retained byte is copied
// at most once, and never again as the window grows. A block that release(),
// trimToLine() or killAll() (the session's end) drops goes back to a
// pool shared by every session.
//
// Reads of the underlying body are serialized by the reading flag, with
// mu dropped during the (possibly blocking) source read itself, so
// bookkeeping calls like release() and killAll() never wait on a client
// that has paused uploading. A shed attempt's transport that is still
// mid-read when the gateway moves on deposits whatever it consumed into
// the window, where the successor view picks it up in order — no byte is
// lost or reordered. The block a source read fills belongs to that read
// until it lands, so nothing can recycle it under the read.
type replayReader struct {
	mu       sync.Mutex
	cond     *sync.Cond // signals reading falling false / new bytes landing
	src      io.Reader
	reading  bool    // a source read is in flight (mu dropped)
	start    int64   // absolute offset of the first retained byte
	end      int64   // absolute offset just past the last byte read from src
	blocks   []block // the retained bytes [start, end), in order
	err      error   // terminal src error, sticky
	released bool
	winner   *replayView // sole view allowed to read post-release
	dead     bool        // killAll: every view refuses further reads

	// Input-line bookkeeping for checkpointed sessions (trackLines): nl
	// holds the absolute offset just past each retained non-blank line's
	// newline — non-blank (checkpoint.IsJSONSpace) because that is what
	// the backend's pusher counts as an input — and nlBase is how many such lines trimming
	// already discarded. Together they map the checkpoint frontier (an
	// input count) onto byte offsets, so trimToLine can bound retained
	// memory by checkpoint lag and viewAtLine can start a resume body
	// exactly at an input-line boundary. Checkpointed sessions never
	// release(), so every byte lands in the window and is seen here.
	track   bool
	nl      []int64
	nlBase  int64
	midLine bool // the current unterminated line has non-blank content
}

// blockSize is one source read's room, and a retained block's size.
const blockSize = 32 << 10

// blockPool holds the blocks no session retains.
var blockPool = sync.Pool{New: func() any { return new([blockSize]byte) }}

// block is buf[lo:hi], a run of retained bytes.
type block struct {
	buf    *[blockSize]byte
	lo, hi int
}

func (b block) bytes() []byte { return b.buf[b.lo:b.hi] }

func newReplayReader(src io.Reader) *replayReader {
	rr := &replayReader{src: src}
	rr.cond = sync.NewCond(&rr.mu)
	return rr
}

// view returns the full logical stream for one proxy attempt.
func (rr *replayReader) view() *replayView { return &replayView{rr: rr} }

// trackLines enables input-line bookkeeping; call before the first read.
func (rr *replayReader) trackLines() {
	rr.mu.Lock()
	rr.track = true
	rr.mu.Unlock()
}

// recordLines folds a freshly-landed chunk (whose first byte sits at
// absolute offset base) into the line index. Caller holds mu.
func (rr *replayReader) recordLines(b []byte, base int64) {
	for i, c := range b {
		switch {
		case c == '\n':
			if rr.midLine {
				rr.nl = append(rr.nl, base+int64(i)+1)
				rr.midLine = false
			}
		case checkpoint.IsJSONSpace(c):
			// JSON whitespace keeps a line blank, as it does for the backend
		default:
			rr.midLine = true
		}
	}
}

// land appends the n bytes a source read put in buf to the window, and
// returns buf to the pool unless it became the window's last block.
// Bytes landing after killAll are nobody's. Caller holds mu.
func (rr *replayReader) land(buf *[blockSize]byte, n int) {
	if n > 0 && !rr.dead {
		if rr.track {
			rr.recordLines(buf[:n], rr.end)
		}
		rr.end += int64(n)
		if k := len(rr.blocks); k > 0 && blockSize-rr.blocks[k-1].hi >= n {
			last := &rr.blocks[k-1]
			last.hi += copy(last.buf[last.hi:], buf[:n])
		} else {
			rr.blocks = append(rr.blocks, block{buf: buf, hi: n})
			return
		}
	}
	blockPool.Put(buf)
}

// drop stops retaining the bytes before off, recycling every block that
// holds nothing else. Caller holds mu.
func (rr *replayReader) drop(off int64) {
	off = min(off, rr.end)
	if off <= rr.start {
		return
	}
	k := 0
	for ; k < len(rr.blocks); k++ {
		b := &rr.blocks[k]
		n := int64(b.hi - b.lo)
		if rr.start+n > off {
			b.lo += int(off - rr.start)
			break
		}
		rr.start += n
		blockPool.Put(b.buf)
	}
	rr.blocks = slices.Delete(rr.blocks, 0, k)
	rr.start = off
}

// copyAt copies retained bytes from absolute offset off, at most to the
// end of the block that holds it. Caller holds mu; start <= off < end.
func (rr *replayReader) copyAt(p []byte, off int64) int {
	pos := rr.start
	for _, b := range rr.blocks {
		bs := b.bytes()
		if off < pos+int64(len(bs)) {
			return copy(p, bs[off-pos:])
		}
		pos += int64(len(bs))
	}
	return 0
}

// trimToLine discards retained bytes before the start of input line n
// (0-based): a checkpoint covering n inputs supersedes them, so the
// replay window shrinks to the checkpoint lag instead of growing with
// the session. Safe concurrently with an active view: a backend only
// checkpoints inputs it has already read, so the live view's offset is
// always at or past the cut.
func (rr *replayReader) trimToLine(n int64) {
	rr.mu.Lock()
	defer rr.mu.Unlock()
	if !rr.track || n <= rr.nlBase {
		return
	}
	idx := n - 1 - rr.nlBase
	if idx >= int64(len(rr.nl)) {
		return // frontier past what has been read; nothing safe to cut
	}
	rr.drop(rr.nl[idx])
	rr.nl = rr.nl[:copy(rr.nl, rr.nl[idx+1:])]
	rr.nlBase = n
}

// viewAtLine returns a view whose reads start at input line n — the
// inputs a resumed session still needs. n is the latest checkpoint
// frontier, which trimToLine has made the retained-window origin.
func (rr *replayReader) viewAtLine(n int64) *replayView {
	rr.mu.Lock()
	defer rr.mu.Unlock()
	off := rr.start
	if d := n - rr.nlBase; d > 0 && d <= int64(len(rr.nl)) {
		off = rr.nl[d-1]
	}
	return &replayView{rr: rr, off: off}
}

// release pins the winning view and stops retaining replayed bytes:
// re-routing is over. What the winner has not read yet stays until it
// has. Never blocks on client I/O.
func (rr *replayReader) release(winner *replayView) {
	rr.mu.Lock()
	defer rr.mu.Unlock()
	rr.released = true
	rr.winner = winner
	rr.drop(winner.off)
}

// killAll makes every view (current and stale) refuse further reads, and
// recycles the window.
func (rr *replayReader) killAll() {
	rr.mu.Lock()
	defer rr.mu.Unlock()
	rr.dead = true
	rr.drop(rr.end)
	rr.cond.Broadcast()
}

// sawEOF reports whether the client body has drained cleanly — in which
// case no read can block and no connection poisoning is needed.
func (rr *replayReader) sawEOF() bool {
	rr.mu.Lock()
	defer rr.mu.Unlock()
	return rr.err == io.EOF
}

// quiesce waits out any in-flight source read; the caller must first
// have made that read fail fast (poisoned connection deadline).
func (rr *replayReader) quiesce() {
	rr.mu.Lock()
	for rr.reading {
		rr.cond.Wait()
	}
	rr.mu.Unlock()
}

type replayView struct {
	rr     *replayReader
	off    int64 // absolute offset into the logical stream
	closed bool
}

func (v *replayView) Read(p []byte) (int, error) {
	rr := v.rr
	rr.mu.Lock()
	defer rr.mu.Unlock()
	for {
		if rr.dead || v.closed || (rr.released && rr.winner != v) {
			return 0, errAttemptAborted
		}
		if v.off < rr.start {
			// Only reachable if an attempt started after release(),
			// which the proxy loop never does.
			return 0, errors.New("statsgate: replay window released")
		}
		if v.off < rr.end {
			n := rr.copyAt(p, v.off)
			v.off += int64(n)
			if rr.released {
				rr.drop(v.off) // only the winner reads now
			}
			return n, nil
		}
		if rr.err != nil {
			return 0, rr.err
		}
		if rr.reading {
			// Another view's source read is in flight; when it lands its
			// bytes in the window (or errors out), re-check from the top.
			rr.cond.Wait()
			continue
		}
		if rr.released {
			// Direct passthrough for the winner: read into p with mu
			// dropped, retaining nothing.
			rr.reading = true
			rr.mu.Unlock()
			n, err := rr.src.Read(p)
			rr.mu.Lock()
			rr.reading = false
			rr.end += int64(n)
			rr.start = rr.end
			v.off += int64(n)
			if err != nil {
				rr.err = err
			}
			rr.cond.Broadcast()
			if n > 0 {
				return n, nil
			}
			if err != nil {
				return 0, err
			}
			continue
		}
		// Pull a fresh block into the window, mu dropped during the read;
		// even if this view is abandoned mid-read, the bytes are retained
		// for successors.
		buf := blockPool.Get().(*[blockSize]byte)
		rr.reading = true
		rr.mu.Unlock()
		n, err := rr.src.Read(buf[:])
		rr.mu.Lock()
		rr.reading = false
		rr.land(buf, n)
		if err != nil {
			rr.err = err
		}
		rr.cond.Broadcast()
	}
}

// Close marks this attempt's view dead. The transport calls it when an
// attempt ends; the proxy loop relies on the shared-buffer invariant
// (see Read) rather than on Close timing.
func (v *replayView) Close() error {
	v.rr.mu.Lock()
	defer v.rr.mu.Unlock()
	v.closed = true
	v.rr.cond.Broadcast()
	return nil
}
