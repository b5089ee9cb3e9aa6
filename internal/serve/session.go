package serve

import (
	"bufio"
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"sync"
	"time"

	"gostats/internal/bench"
	"gostats/internal/checkpoint"
	"gostats/internal/engine"
)

// phase is where a session stands. It only moves forward, and it decides
// which of the two exits is open: refuse while admitted, finish after.
type phase int

const (
	admitted  phase = iota // slot held, no response byte written
	streaming              // 200 committed; errors now travel in the trailer
	halted                 // stopped at the commit frontier for migration
	failed                 // ended on an error
	done                   // ran to completion
)

// haltDrainGrace bounds how long a halted session waits for its client
// to see #migrate, stop uploading, and close the request body. Long
// enough for a round trip to a well-behaved client; short enough that a
// stuck one cannot pin the draining server.
const haltDrainGrace = time.Second

// session is one streaming request: NDJSON inputs in the request body,
// committed NDJSON outputs in the response, a trailer line last. Outputs
// stream back while inputs are still arriving; the pipeline's
// backpressure propagates to the client through unread request bytes.
//
// Its life is parse, open, pump, close, in that order on the handler's
// goroutine, and it leaves through exactly one of two exits. refuse: a
// failure before the first output byte gets a plain HTTP status — 4xx
// when the request itself is at fault, 429 at the session cap, 503 while
// draining. finish: once output has streamed, the outcome travels in the
// trailer line instead.
type session struct {
	*Server
	w     http.ResponseWriter
	r     *http.Request
	rc    *http.ResponseController
	out   *bufio.Writer // made by start
	dirty bool          // out holds lines not yet flushed to the client
	phase phase
	err   error // first failure of an admitted session

	name      string
	prog      bench.Benchmark
	codec     bench.ReusingCodec // the benchmark's, or a fallback over its allocating methods
	wire      bench.WireCodec    // set iff the session checkpoints or resumes
	cfg       engine.StreamConfig
	rec       *engine.Recorder // attrib=1: the trailer carries its breakdown
	ckptEvery int
	migrate   bool
	resume    bool

	sc       *bench.LineScanner
	lineBuf  *[bench.LineBuffer]byte // sc's first buffer, from lineBufs
	ctx      context.Context
	cancel   context.CancelFunc
	p        *engine.Pipeline
	pushDone chan error
	reading  bool // the pusher may have a body read in flight
	body     notedBody

	// Snapshots arrive synchronously from the engine's commit frontier —
	// whichever of its workers holds it, or its reaper for the halt
	// snapshot — but a #ckpt line may only be written after every output
	// it covers: they queue here with their due output count and
	// flushCkpt writes them. ckptKick wakes an idle pump for a snapshot
	// queued after the last output it wrote; nil when the session does
	// not checkpoint.
	ckptMu     sync.Mutex
	ckptQ      []ckptLine
	ckptKick   chan struct{}
	resumeBase int64  // outputs the restored session already delivered
	written    int64  // output lines written (control lines excluded)
	line       []byte // pump's one output line, encoded in place each time
}

type ckptLine struct {
	due int64
	b64 string
}

// handleStream admits a session — refusing while draining or at the
// session cap — and walks it through its phases.
func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	ss := &session{Server: s, w: w, r: r, rc: http.NewResponseController(w)}
	ss.body.ReadCloser, r.Body = r.Body, &ss.body
	if s.front.Draining() {
		ss.refuse(http.StatusServiceUnavailable, "draining")
		return
	}
	select {
	case s.sem <- struct{}{}:
		defer func() { <-s.sem }()
	default:
		s.shed.Add(1)
		w.Header().Set("Retry-After", strconv.Itoa(s.retryAfterSeconds()))
		ss.refuse(http.StatusTooManyRequests, "session capacity reached")
		return
	}
	if ss.parse() && ss.open() {
		defer ss.unwind()
		ss.pump()
		ss.close()
	}
}

// refuse is the exit of a session that has written nothing: a plain
// status and message. It reports false so a phase can return it.
func (ss *session) refuse(status int, msg string) bool {
	ss.phase = failed
	ss.dropBody()
	http.Error(ss.w, msg, status)
	return false
}

// dropBody ends the request-body story of a session that is not going to
// read the rest of it, with the client possibly still sending. Left to
// net/http's post-handler cleanup the unread bytes misbehave: the
// pre-response drain blocks a status line against a client that holds
// its body open, and (with full duplex on) a drain that reaches EOF after
// the handler's pending reads were aborted re-arms a background read
// nothing cancels, panicking the next keep-alive read. So finish it
// in-handler: poison the connection read deadline, then drain whatever is
// already buffered. Either the body hits EOF here — where finishRequest
// still reaps the read it triggers — or every later read fails fast and
// the connection is simply not reused. A body already read to its end has
// no story left, and must be left alone: net/http has parked a background
// read on the connection by then, the poisoned deadline fails it, and that
// cancels the context of every later request the connection carries.
func (ss *session) dropBody() {
	if !ss.reading && !ss.body.eof && ss.rc.SetReadDeadline(time.Now()) == nil {
		_, _ = io.CopyN(io.Discard, ss.r.Body, 64<<10)
	}
}

// notedBody is a request body that remembers having been read to its end.
type notedBody struct {
	io.ReadCloser
	eof bool
}

func (b *notedBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.eof = b.eof || err == io.EOF
	return n, err
}

// queryParam parses the optional query parameter key into *dst. The
// first malformed value is kept in *errp and ends the parse.
func queryParam[T any](q url.Values, errp *error, key string, dst *T, parse func(string) (T, error)) {
	v := q.Get(key)
	if v == "" || *errp != nil {
		return
	}
	x, err := parse(v)
	if err != nil {
		*errp = fmt.Errorf("query %s=%q: %w", key, v, err)
		return
	}
	*dst = x
}

// parse resolves the benchmark and reads the session's parameters: the
// pipeline overrides seed, chunk, lookback, extra, workers and adapt;
// attrib=1, which attaches a recorder to the session's engine events;
// and the checkpointed-session options the statsgate relay speaks —
// ckpt=N interleaves a #ckpt control line every N commits, migrate=1
// registers the session for drain-halt (and guarantees a final
// checkpoint on halt), resume=1 restores the session from a #resume
// first body line instead of starting fresh.
func (ss *session) parse() bool {
	if ss.r.ContentLength > ss.lim.MaxBody {
		return ss.refuse(http.StatusRequestEntityTooLarge, "request body too large")
	}
	ss.r.Body = http.MaxBytesReader(ss.w, ss.r.Body, ss.lim.MaxBody)

	ss.name = ss.r.PathValue("benchmark")
	codec, err := bench.CodecFor(ss.name)
	if err != nil {
		return ss.refuse(http.StatusNotFound, err.Error())
	}
	ss.codec = bench.Reusing(codec)
	if ss.prog, err = bench.New(ss.name); err != nil {
		return ss.refuse(http.StatusNotFound, err.Error())
	}

	ss.cfg = ss.base
	q := ss.r.URL.Query()
	var attrib bool
	queryParam(q, &err, "seed", &ss.cfg.Seed, func(v string) (uint64, error) { return strconv.ParseUint(v, 10, 64) })
	queryParam(q, &err, "chunk", &ss.cfg.ChunkSize, strconv.Atoi)
	queryParam(q, &err, "lookback", &ss.cfg.Lookback, strconv.Atoi)
	queryParam(q, &err, "extra", &ss.cfg.ExtraStates, strconv.Atoi)
	queryParam(q, &err, "workers", &ss.cfg.Workers, strconv.Atoi)
	queryParam(q, &err, "adapt", &ss.cfg.Adapt, strconv.ParseBool)
	queryParam(q, &err, "attrib", &attrib, strconv.ParseBool)
	queryParam(q, &err, "ckpt", &ss.ckptEvery, strconv.Atoi)
	queryParam(q, &err, "migrate", &ss.migrate, strconv.ParseBool)
	queryParam(q, &err, "resume", &ss.resume, strconv.ParseBool)
	if err == nil && ss.ckptEvery < 0 {
		err = fmt.Errorf("query ckpt=%d: want a non-negative integer", ss.ckptEvery)
	}
	if err == nil {
		err = ss.cfg.Validate()
	}
	if err == nil {
		err = checkShape(ss.cfg)
	}
	if err == nil && (ss.ckptEvery > 0 || ss.migrate || ss.resume) {
		ss.wire, err = bench.WireFor(ss.name)
	}
	if err != nil {
		return ss.refuse(http.StatusBadRequest, err.Error())
	}
	if attrib {
		ss.rec = engine.NewRecorder()
		ss.cfg.Sink = engine.Tee(ss.cfg.Sink, ss.rec)
	}
	return true
}

// open reads the resume prologue, starts the pipeline, and registers a
// migrate=1 session for drain-halt.
func (ss *session) open() bool {
	// The resume prologue is read before the pipeline exists, and the
	// pusher's line scanner goes on from where it stopped.
	body := io.Reader(ss.r.Body)
	if ss.resume {
		br := bufio.NewReader(ss.r.Body)
		body = br
		snap, err := readResumeLine(br)
		if err == nil {
			// The snapshot's shape replaces the query's, here as in
			// NewStream: the trailer reports against the shape that ran.
			ss.cfg = ss.cfg.WithShape(snap)
			err = checkShape(ss.cfg)
		}
		if err != nil {
			return ss.refuse(http.StatusBadRequest, err.Error())
		}
		ss.cfg.Resume = &engine.ResumeConfig{Snap: snap, Codec: ss.wire}
		ss.resumeBase = snap.Inputs
	}
	if ss.ckptEvery > 0 || ss.migrate {
		ss.cfg.Checkpoint = engine.CheckpointConfig{Codec: ss.wire, EveryCommits: ss.ckptEvery, OnSnapshot: ss.queueCkpt}
		ss.ckptKick = make(chan struct{}, 1)
	}
	ss.lineBuf = lineBufs.Get().(*[bench.LineBuffer]byte)
	ss.sc = bench.NewLineScanner(body, ss.lim.MaxLine, ss.lineBuf[:])

	// The session lives inside the request context — a client disconnect
	// or a forced server close tears the pipeline down — further bounded
	// by the per-session deadline when one is configured.
	ctx, cancel := context.WithCancel(ss.r.Context())
	ss.ctx, ss.cancel = ctx, cancel
	if d := ss.lim.SessionTimeout; d > 0 {
		tctx, stop := context.WithTimeoutCause(ctx, d, fmt.Errorf("session exceeded -session-timeout %s", d))
		ss.ctx, ss.cancel = tctx, func() { stop(); cancel() }
	}
	p, err := engine.NewStream(ss.ctx, ss.prog, ss.cfg)
	if err != nil {
		ss.cancel()
		return ss.refuse(http.StatusBadRequest, err.Error())
	}
	ss.p = p
	if ss.migrate {
		// Register for drain-halt, then re-check: a StartDrain that raced
		// past registration must still halt this session.
		ss.halters.Store(p, struct{}{})
		if ss.front.Draining() {
			p.Halt()
		}
	}
	return true
}

// lineBufs holds the line buffers no session's scanner reads into.
var lineBufs = sync.Pool{New: func() any { return new([bench.LineBuffer]byte) }}

// unwind runs whatever path leaves an opened session: cancel, drain the
// output channel, and wait for every pipeline goroutine. The scanner's
// first buffer goes back to the pool unless a body read into it may
// still be in flight. A scanner that outgrew it no longer reads into it.
func (ss *session) unwind() {
	ss.cancel()
	ss.halters.Delete(ss.p)
	for range ss.p.Outputs() {
	}
	ss.p.Wait()
	if !ss.reading {
		lineBufs.Put(ss.lineBuf)
	}
}

// push is the single producer. It owns Push and Close, decoding body
// lines until EOF or error, each into the input its record slot retires
// (Pipeline.PushFrom), so a line reuses the storage of one a lap of the
// record array ago. Oversized lines stop it with a typed error instead of
// buffering without bound. It continues the scanner the resume prologue
// may already have read a control line from.
func (ss *session) push() error {
	defer ss.p.Close()
	for ss.sc.Scan() {
		// Decoded without the padding JSON allows around a value, which
		// would cost the line the codec's fast path and nothing else. A
		// line of nothing but that padding is blank and skipped; any other
		// byte makes it an input, which the codec refuses if it is not one.
		b := checkpoint.TrimJSONSpace(ss.sc.Bytes())
		if len(b) == 0 {
			continue
		}
		err := ss.p.PushFrom(ss.ctx, func(spare engine.Input) (engine.Input, error) {
			in, err := ss.codec.DecodeInputInto(b, spare)
			if err != nil {
				return nil, fmt.Errorf("%w: input line %d: %v", errBadRequest, ss.sc.Line(), err)
			}
			return in, nil
		})
		if errors.Is(err, errBadRequest) {
			return err
		}
		if err != nil {
			return fmt.Errorf("input line %d: %w", ss.sc.Line(), err)
		}
	}
	err := ss.sc.Err()
	if errors.Is(err, bench.ErrLineTooLong) {
		err = fmt.Errorf("%w: %v", errBadRequest, err)
	}
	return err
}

// pump starts the pusher and writes committed outputs, and the #ckpt
// lines that fall due between them, until the pipeline closes its output.
func (ss *session) pump() {
	ss.pushDone = make(chan error, 1)
	ss.reading = true
	go func() { ss.pushDone <- ss.push() }()

	outs := ss.p.Outputs()
	for {
		// Flush when idle: lines gather in the buffer while more outputs
		// are ready — a committed chunk's worth leaves as one write — and
		// go out the moment none is, before this blocks. A client never
		// waits for bytes behind anything but the pipeline itself.
		var o engine.Output
		var ok bool
		select {
		case o, ok = <-outs:
		default:
			ss.flush()
			select {
			case o, ok = <-outs:
			case <-ss.ckptKick:
				// A snapshot came after the outputs it covers had all been
				// written: it is due now, not at the next output, which a
				// client that pauses its upload may not cause for long.
				ss.flushCkpt()
				continue
			}
		}
		if !ok {
			break
		}
		b, err := ss.codec.AppendOutput(ss.line[:0], o)
		if err != nil {
			ss.err = err
			ss.cancel() // abandon the session; unwind drains the rest
			break
		}
		ss.line = b
		ss.writeLine(b)
		ss.written++
		ss.flushCkpt()
	}
	ss.flushCkpt() // the halt-frontier snapshot lands after the last output
	ss.flush()
}

// start commits the 200. Full duplex is enabled lazily, here at the first
// output write: outputs stream back while the client is still sending
// inputs, and without full duplex this write would try to drain the
// request body and deadlock against backpressure. Error-only responses
// never get here and leave full duplex off, so net/http never re-arms a
// background read after the handler returns (see dropBody). (An error
// from EnableFullDuplex means the transport is full duplex already, e.g.
// HTTP/2.)
func (ss *session) start() {
	_ = ss.rc.EnableFullDuplex()
	ss.w.Header().Set("Content-Type", "application/x-ndjson")
	ss.out = bufio.NewWriter(ss.w)
	ss.phase = streaming
}

// writeLine buffers one response line; flush sends what is buffered.
func (ss *session) writeLine(b []byte) {
	if ss.phase == admitted {
		ss.start()
	}
	ss.out.Write(b)
	ss.out.WriteByte('\n')
	ss.dirty = true
}

// flush pushes every buffered line to the client. Control lines and the
// trailer call it at once; output lines leave it to pump.
func (ss *session) flush() {
	if ss.dirty {
		ss.out.Flush()
		_ = ss.rc.Flush()
		ss.dirty = false
	}
}

// queueCkpt is the pipeline's OnSnapshot hook.
func (ss *session) queueCkpt(snap *checkpoint.Snapshot) {
	b64, err := checkpoint.EncodeString(snap)
	if err != nil {
		return // surfaced via CheckpointErr after drain
	}
	ss.ckptMu.Lock()
	ss.ckptQ = append(ss.ckptQ, ckptLine{due: snap.Inputs - ss.resumeBase, b64: b64})
	ss.ckptMu.Unlock()
	select {
	case ss.ckptKick <- struct{}{}:
	default: // a kick is pending already
	}
}

// flushCkpt writes every queued #ckpt line whose covered outputs have all
// been written — a snapshot may only appear below the last line it
// accounts for. Lines are popped under the lock but written outside it:
// OnSnapshot runs on the commit path and must never wait on a slow
// client.
func (ss *session) flushCkpt() {
	ss.ckptMu.Lock()
	n := 0
	for n < len(ss.ckptQ) && ss.ckptQ[n].due <= ss.written {
		n++
	}
	due := ss.ckptQ[:n:n]
	ss.ckptQ = ss.ckptQ[n:]
	ss.ckptMu.Unlock()
	for _, c := range due {
		ss.writeLine([]byte(checkpoint.CkptPrefix + c.b64))
	}
	if len(due) > 0 {
		ss.flush()
	}
}

// close joins the pusher and the pipeline, settles the session's terminal
// phase, and leaves through refuse or finish.
func (ss *session) close() {
	// A halted session was stopped at its commit frontier for migration:
	// tell the client now — before waiting on the pusher — so a gateway
	// parked on this response knows to stop sending inputs and close the
	// body, which in turn unblocks the pusher. The read deadline is set a
	// beat into the future, not poisoned to now: the client is likely
	// still uploading, and an immediate poison closes the connection
	// under its in-flight bytes, RSTing the #migrate line and trailer out
	// of its receive buffer. The grace window unblocks a parked pusher
	// soon while leaving room for the client to see #migrate, stop, and
	// close the body for a clean EOF (finish drains to it).
	if ss.p.Halted() {
		ss.writeLine([]byte(checkpoint.MigrateLine))
		ss.flush()
		ss.phase = halted
		_ = ss.rc.SetReadDeadline(time.Now().Add(haltDrainGrace))
	}

	// The pusher can be blocked reading a body the client holds open; when
	// the session context ends first (timeout, disconnect, drain), poison
	// the connection read deadline so that read fails, then wait for the
	// pusher: the handler must never return with a body read in flight.
	var pushErr error
	select {
	case pushErr = <-ss.pushDone:
		ss.reading = false
	case <-ss.ctx.Done():
		if ss.rc.SetReadDeadline(time.Now()) == nil {
			<-ss.pushDone
			ss.reading = false
		}
		pushErr = context.Cause(ss.ctx)
	}
	stats, runErr := ss.p.Wait()
	if ss.phase == halted {
		// Push-after-halt and poisoned-read errors are expected fallout of
		// halting, not session failures.
		pushErr = nil
	}
	ss.err = cmp.Or(ss.err, pushErr, runErr)

	if ss.phase == admitted {
		if ss.err != nil {
			// Nothing written yet: the failure can still be a clean status line.
			status := http.StatusInternalServerError
			var mbe *http.MaxBytesError
			switch {
			case errors.As(ss.err, &mbe):
				status = http.StatusRequestEntityTooLarge
			case errors.Is(ss.err, errBadRequest):
				status = http.StatusBadRequest
			}
			ss.refuse(status, ss.err.Error())
			return
		}
		ss.start() // an empty session still gets its 200 and trailer
	}
	switch {
	case ss.phase == halted:
	case ss.err != nil:
		ss.phase = failed
	default:
		ss.phase = done
	}
	ss.finish(ss.trailer(stats))
}

// trailer summarizes a session that reached its terminal phase.
func (ss *session) trailer(stats engine.StreamStats) Trailer {
	tr := Trailer{Done: ss.phase == done, Benchmark: ss.name, Stats: stats, Migrated: ss.phase == halted}
	if ss.rec != nil {
		workers := ss.cfg.Workers
		if workers == 0 {
			workers = engine.DefaultWorkers
		}
		tr.Attribution = attribute(ss.rec, workers)
	}
	if ss.err != nil {
		tr.Error = ss.err.Error()
	}
	if ss.phase == halted {
		if tr.Error == "" {
			tr.Error = "session migrated"
		}
		if err := ss.p.CheckpointErr(); err != nil {
			tr.Error = "migration checkpoint failed: " + err.Error()
		}
	}
	return tr
}

// finish is the exit of a session whose outcome travels in the trailer:
// settle the body of one that failed, write the trailer, and see a halted
// session's client off.
func (ss *session) finish(tr Trailer) {
	if ss.phase == failed {
		ss.dropBody()
	}
	if b, err := json.Marshal(tr); err == nil {
		ss.writeLine(b)
	}
	ss.flush()

	// A halted session's client was mid-upload when the session migrated
	// away. Returning now would close the connection under its in-flight
	// bytes and RST the #migrate line and trailer out of its receive
	// buffer — so read the body to EOF instead: the client sees #migrate,
	// stops, and closes for a clean EOF. The read deadline armed when
	// #migrate was written bounds how long a misbehaving client can hold
	// the handler here.
	if ss.phase == halted && !ss.reading {
		_, _ = io.Copy(io.Discard, ss.r.Body)
	}
}

// maxResumeLine bounds a resume=1 session's #resume line. The line
// carries a snapshot, not an input, so -max-line does not bound it: a
// bodytrack snapshot at statsserved's defaults is 3.4 MB, over the
// default 1 MiB input line.
const maxResumeLine = 64 << 20

// readResumeLine consumes a resume=1 session's first non-blank body line
// from br, which must be a "#resume <base64>" control line of at most
// maxResumeLine bytes, and decodes its snapshot. Input lines follow it
// from the snapshot frontier onward, and br is left at the first.
func readResumeLine(br *bufio.Reader) (*checkpoint.Snapshot, error) {
	for {
		var line []byte
		var err error
		for {
			var frag []byte
			frag, err = br.ReadSlice('\n')
			if line = append(line, frag...); len(line) > maxResumeLine+1 { // +1: the newline
				return nil, fmt.Errorf("resume line: %w (%d bytes)", bench.ErrLineTooLong, maxResumeLine)
			}
			if err != bufio.ErrBufferFull {
				break
			}
		}
		if err != nil && err != io.EOF {
			return nil, fmt.Errorf("reading resume line: %v", err)
		}
		if line = checkpoint.TrimJSONSpace(line); len(line) == 0 {
			if err == io.EOF {
				return nil, errors.New("resume=1 session has an empty body")
			}
			continue
		}
		kind, b64 := checkpoint.ParseControl(string(line))
		if kind != checkpoint.Resume {
			return nil, fmt.Errorf("resume=1 session must start with a %q line", checkpoint.ResumePrefix)
		}
		snap, err := checkpoint.DecodeString(b64)
		if err != nil {
			return nil, fmt.Errorf("resume line: %v", err)
		}
		return snap, nil
	}
}
