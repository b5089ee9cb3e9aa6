package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"gostats/internal/bench"
	"gostats/internal/checkpoint"
	"gostats/internal/engine"
)

// TestOversizedBodyRejected: a request body beyond -max-body gets 413,
// both when Content-Length announces it up front and when it only shows
// up while streaming.
func TestOversizedBodyRejected(t *testing.T) {
	ts := httptest.NewServer(New(baseConfig(), Options{MaxBody: 1024}).Handler())
	defer ts.Close()

	// Announced: Content-Length exceeds the cap, rejected before reading.
	big := bytes.Repeat([]byte(" \n"), 2048)
	resp, err := http.Post(ts.URL+"/v1/stream/facetrack", "application/x-ndjson", bytes.NewReader(big))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("announced oversized body: status %d, want 413", resp.StatusCode)
	}

	// Unannounced: an io.Reader without a length streams until
	// MaxBytesReader trips; blank lines produce no output, so the failure
	// still arrives as a clean status.
	resp, err = http.Post(ts.URL+"/v1/stream/facetrack", "application/x-ndjson",
		struct{ io.Reader }{bytes.NewReader(big)})
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("streamed oversized body: status %d, want 413", resp.StatusCode)
	}
}

// TestOversizedLineRejected: one NDJSON line beyond -max-line is a 400
// naming the limit — the scanner's buffer never grows past the cap.
func TestOversizedLineRejected(t *testing.T) {
	ts := httptest.NewServer(New(baseConfig(), Options{MaxLine: 64}).Handler())
	defer ts.Close()

	body := strings.Repeat("x", 65) + "\n"
	resp, err := http.Post(ts.URL+"/v1/stream/facetrack", "application/x-ndjson", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	b, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("oversized line: status %d, want 400 (%s)", resp.StatusCode, b)
	}
	if !strings.Contains(string(b), "length limit") {
		t.Fatalf("oversized line: body %q does not name the limit", b)
	}
}

// TestBlankLineIsJSONWhitespaceOnly: a body line is blank, and skipped,
// only when it holds nothing but JSON's whitespace — space, tab, CR —
// which is also all statsgate's line index counts as blank. A line of
// \v, \f, U+0085 or U+00A0 is an input the decoder refuses: a 400 when it
// comes first, the trailer's error when outputs have already streamed.
func TestBlankLineIsJSONWhitespaceOnly(t *testing.T) {
	ts := httptest.NewServer(New(baseConfig(), Options{}).Handler())
	defer ts.Close()
	const name = "streamcluster"
	inputs := sessionInputs(t, name, 3)
	lines := strings.Split(strings.TrimSuffix(string(ndjsonBody(t, name, inputs)), "\n"), "\n")
	post := func(body string) (int, string) {
		t.Helper()
		resp, err := http.Post(ts.URL+"/v1/stream/"+name, "application/x-ndjson", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(b)
	}

	// JSON whitespace between, before and after inputs: all three commit.
	outs, tr := runSession(t, ts.URL, name, []byte(" \t\r\n"+lines[0]+"\n\n \n"+lines[1]+"\r\n\t\n"+lines[2]+"\n \n"))
	if len(outs) != 3 || !tr.Done || tr.Error != "" {
		t.Fatalf("JSON-whitespace lines between inputs: %d outputs, trailer %+v; want 3, done", len(outs), tr)
	}

	for _, ws := range []string{"\v", "\f", "\u0085", "\u00a0", " \v\t"} {
		code, body := post(ws + "\n" + strings.Join(lines, "\n") + "\n")
		if code != http.StatusBadRequest || !strings.Contains(body, "input line 1") {
			t.Errorf("body led by a %q line: status %d, %q; want 400 naming input line 1", ws, code, body)
		}
		code, body = post(lines[0] + "\n" + ws + "\n" + lines[1] + "\n" + lines[2] + "\n")
		if code == http.StatusOK && (strings.Contains(body, `"done":true`) || !strings.Contains(body, "input line 2")) {
			t.Errorf("a %q line between inputs: status 200, %q; want the trailer to refuse input line 2", ws, body)
		}
		if code != http.StatusOK && (code != http.StatusBadRequest || !strings.Contains(body, "input line 2")) {
			t.Errorf("a %q line between inputs: status %d, %q; want 400 naming input line 2", ws, code, body)
		}
	}
}

// TestSessionCapShedsWith429: with -max-sessions 1 a second concurrent
// session is shed with 429 and a Retry-After hint, the shed shows up in
// /metrics, and the slot frees once the first session ends.
func TestSessionCapShedsWith429(t *testing.T) {
	baseline := runtime.NumGoroutine()
	ts := httptest.NewServer(New(baseConfig(), Options{MaxSessions: 1}).Handler())
	client := &http.Client{}

	// Session 1: feed a full chunk so output proves the handler is live,
	// then hold the body open to pin the session slot.
	inputs := sessionInputs(t, "facetrack", 24)
	body := ndjsonBody(t, "facetrack", inputs)
	pr, pw := io.Pipe()
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/stream/facetrack", pr)
	if err != nil {
		t.Fatal(err)
	}
	go pw.Write(body)
	resp1, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(resp1.Body)
	if !sc.Scan() {
		t.Fatalf("no output from pinned session: %v", sc.Err())
	}

	// Session 2 hits the cap.
	resp2, err := http.Post(ts.URL+"/v1/stream/facetrack", "application/x-ndjson",
		bytes.NewReader(ndjsonBody(t, "facetrack", inputs[:8])))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp2.Body)
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second session: status %d, want 429", resp2.StatusCode)
	}
	if resp2.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}

	// Release session 1; its slot frees and a new session is admitted.
	pw.Close()
	io.Copy(io.Discard, resp1.Body)
	resp1.Body.Close()

	resp3, err := http.Post(ts.URL+"/v1/stream/facetrack", "application/x-ndjson",
		bytes.NewReader(ndjsonBody(t, "facetrack", inputs[:8])))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp3.Body)
	resp3.Body.Close()
	if resp3.StatusCode != http.StatusOK {
		t.Fatalf("session after slot freed: status %d, want 200", resp3.StatusCode)
	}

	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mb, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	if !strings.Contains(string(mb), "serve/counter[sessions_shed]=1") {
		t.Fatalf("/metrics does not count the shed session:\n%s", mb)
	}

	ts.Close()
	client.CloseIdleConnections()
	checkGoroutines(t, baseline)
}

// TestNegativeLimitsAreDefaults: a negative limit cannot switch itself
// off. Every Options field at -1 serves as the zero Options do: the
// session cap is the default's, and a session runs to its trailer instead
// of being refused for its body or its lines.
func TestNegativeLimitsAreDefaults(t *testing.T) {
	ts := httptest.NewServer(New(baseConfig(), Options{
		MaxSessions: -1, SessionTimeout: -1, MaxBody: -1, MaxLine: -1}).Handler())
	defer ts.Close()

	inputs := sessionInputs(t, "facetrack", 8)
	outs, tr := runSession(t, ts.URL, "facetrack", ndjsonBody(t, "facetrack", inputs))
	if len(outs) != len(inputs) || !tr.Done {
		t.Fatalf("%d outputs for %d inputs, trailer %+v", len(outs), len(inputs), tr)
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	page, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	want := fmt.Sprintf("serve/gauge[max_sessions]=%d\n", defaultMaxSessions)
	if !strings.Contains(string(page), want) {
		t.Fatalf("/metrics lacks %q:\n%s", want, page)
	}
}

// TestRetryAfterHint pins the shed hint to its two values: 1 s while no
// active session has a chunk in flight, 2 s once one does.
func TestRetryAfterHint(t *testing.T) {
	s := New(baseConfig(), Options{})
	if got := s.retryAfterSeconds(); got != 1 {
		t.Fatalf("idle server: Retry-After %d, want 1", got)
	}
	s.met.Active.Add(1)
	if got := s.retryAfterSeconds(); got != 1 {
		t.Fatalf("active session, no chunk in flight: Retry-After %d, want 1", got)
	}
	s.met.InFlight.Add(1)
	if got := s.retryAfterSeconds(); got != 2 {
		t.Fatalf("one chunk in flight: Retry-After %d, want 2", got)
	}
	s.met.InFlight.Add(1 << 20)
	if got := s.retryAfterSeconds(); got != 2 {
		t.Fatalf("every window full and more: Retry-After %d, want 2", got)
	}
}

// TestReadyzFlipsOnDrain: /readyz is the routability gate — ready until
// startDrain, then 503, with new sessions refused while /healthz stays
// green (a draining process is alive, just not routable).
func TestReadyzFlipsOnDrain(t *testing.T) {
	app := New(baseConfig(), Options{})
	ts := httptest.NewServer(app.Handler())
	defer ts.Close()

	status := func(path string) int {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := status("/readyz"); code != http.StatusOK {
		t.Fatalf("/readyz before drain: %d", code)
	}
	app.StartDrain()
	if code := status("/readyz"); code != http.StatusServiceUnavailable {
		t.Fatalf("/readyz during drain: %d, want 503", code)
	}
	if code := status("/healthz"); code != http.StatusOK {
		t.Fatalf("/healthz during drain: %d, want 200", code)
	}
	resp, err := http.Post(ts.URL+"/v1/stream/facetrack", "application/x-ndjson", strings.NewReader(""))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("session during drain: status %d, want 503", resp.StatusCode)
	}
}

// TestSessionTimeoutEndsSession: a session that outlives -session-timeout
// is cut off with an error trailer (outputs already streamed stay valid)
// and the server unwinds its goroutines.
func TestSessionTimeoutEndsSession(t *testing.T) {
	baseline := runtime.NumGoroutine()
	ts := httptest.NewServer(New(baseConfig(), Options{SessionTimeout: 300 * time.Millisecond}).Handler())
	client := &http.Client{}

	inputs := sessionInputs(t, "facetrack", 24)
	body := ndjsonBody(t, "facetrack", inputs)
	pr, pw := io.Pipe()
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/stream/facetrack", pr)
	if err != nil {
		t.Fatal(err)
	}
	// Feed the whole body but never close the pipe: only the timeout can
	// end this session.
	go pw.Write(body)

	resp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var lines []string
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		lines = append(lines, sc.Text())
	}
	resp.Body.Close()
	pw.CloseWithError(io.ErrClosedPipe)
	if len(lines) == 0 {
		t.Fatal("timed-out session returned nothing")
	}
	var tr Trailer
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &tr); err != nil {
		t.Fatalf("last line is not a trailer: %q", lines[len(lines)-1])
	}
	if tr.Done || tr.Error == "" {
		t.Fatalf("timed-out session trailer: %+v, want error", tr)
	}

	ts.Close()
	client.CloseIdleConnections()
	checkGoroutines(t, baseline)
}

// TestPanicMiddlewareRecovers: a panic below the middleware becomes a 500
// and a counted event, not a crashed connection goroutine.
func TestPanicMiddlewareRecovers(t *testing.T) {
	app := New(baseConfig(), Options{})
	mux := http.NewServeMux()
	mux.HandleFunc("/boom", func(http.ResponseWriter, *http.Request) { panic("handler bug") })
	h := app.front.Handler(mux)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/boom", nil))
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("recovered panic: status %d, want 500", rec.Code)
	}
	if app.front.Panics() != 1 {
		t.Fatalf("panic counter = %d, want 1", app.front.Panics())
	}

	mrec := httptest.NewRecorder()
	app.Handler().ServeHTTP(mrec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if !strings.Contains(mrec.Body.String(), "serve/counter[handler_panics]=1") {
		t.Fatalf("/metrics does not count the panic:\n%s", mrec.Body.String())
	}
}

// lockedLog is a goroutine-safe sink for http.Server.ErrorLog, which is
// written from connection goroutines.
type lockedLog struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (l *lockedLog) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.buf.Write(p)
}

func (l *lockedLog) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.buf.String()
}

// TestKeepAliveSurvivesEarlyError: a session that errors while unread
// body bytes remain must not crash its connection goroutine. Regression:
// with full duplex enabled unconditionally, net/http's post-handler body
// drain hit EOF after the handler's pending reads were already aborted,
// re-armed a background read nothing could cancel, and the next
// keep-alive read panicked with "invalid concurrent Body.Read call".
func TestKeepAliveSurvivesEarlyError(t *testing.T) {
	errLog := new(lockedLog)
	ts := httptest.NewUnstartedServer(New(baseConfig(), Options{MaxLine: 1024}).Handler())
	ts.Config.ErrorLog = log.New(errLog, "", 0)
	ts.Start()
	defer ts.Close()
	client := ts.Client()

	bad := strings.Repeat("x", 2048) + "\n"

	// Error before any output: the oversized line rejects the whole
	// session as a 400 with ~1KiB of body never read by the handler.
	resp, err := client.Post(ts.URL+"/v1/stream/facetrack", "application/x-ndjson", strings.NewReader(bad))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("oversized line: status %d, want 400", resp.StatusCode)
	}

	// Error after output has streamed (the full-duplex branch): push
	// enough valid lines for outputs to flow, then the oversized line.
	inputs := sessionInputs(t, "facetrack", 40)
	good := ndjsonBody(t, "facetrack", inputs)
	pr, pw := io.Pipe()
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/stream/facetrack", pr)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/x-ndjson")
	go pw.Write(good)
	resp, err = client.Do(req) // returns once the first output flushes headers
	if err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(resp.Body)
	if _, err := br.ReadString('\n'); err != nil {
		t.Fatalf("reading first output line: %v", err)
	}
	if _, err := pw.Write([]byte(bad)); err != nil {
		t.Fatal(err)
	}
	pw.Close()
	rest, _ := io.ReadAll(br)
	resp.Body.Close()
	if !strings.Contains(string(rest), `"done":false`) || !strings.Contains(string(rest), "length limit") {
		t.Fatalf("mid-stream oversized line: trailer does not report the error:\n%s", rest)
	}

	// Nudge both connections through their next keep-alive read, then
	// give any crashing goroutine time to reach the server's error log.
	for i := 0; i < 2; i++ {
		r, err := client.Get(ts.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, r.Body)
		r.Body.Close()
	}
	time.Sleep(100 * time.Millisecond)
	if s := errLog.String(); strings.Contains(s, "panic") {
		t.Fatalf("connection goroutine panicked:\n%s", s)
	}
}

// TestKeepAliveSurvivesRefusalAfterEOF: a session refused once its whole
// body has been read — a malformed line in a short body — must leave its
// connection fit for the next request. Regression: the refusal poisoned
// the connection's read deadline under the background read net/http parks
// there after a body's EOF; that read failed, the connection's context was
// canceled, and every later session it carried died with a 500.
func TestKeepAliveSurvivesRefusalAfterEOF(t *testing.T) {
	const name = "streamcluster"
	ts := httptest.NewServer(New(baseConfig(), Options{}).Handler())
	defer ts.Close()
	client := ts.Client()
	body := ndjsonBody(t, name, sessionInputs(t, name, 24))
	for i := 0; i < 10; i++ {
		for _, tc := range []struct {
			body string
			want int
		}{{"garbage\n", http.StatusBadRequest}, {string(body), http.StatusOK}} {
			resp, err := client.Post(ts.URL+"/v1/stream/"+name, "application/x-ndjson", strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			msg, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != tc.want {
				t.Fatalf("round %d: status %d %.200q, want %d", i, resp.StatusCode, msg, tc.want)
			}
		}
	}
}

// TestSessionShapeCeilings: the parameters NewStream sizes rings, records,
// the output channel and goroutines from are the request's to pick — by
// query, or in the snapshot of a #resume line — so each has a ceiling, and
// a value over it (for the chunk, the largest an adaptive session can
// grow to) is a 400 naming the parameter before any pipeline exists. A session at every ceiling is admitted, and costs what the
// ceilings were chosen for: under 300 goroutines and 16 MB before its
// first input.
func TestSessionShapeCeilings(t *testing.T) {
	const name = "streamcluster"
	app := New(baseConfig(), Options{})
	ts := httptest.NewServer(app.Handler())
	defer ts.Close()
	inputs := sessionInputs(t, name, 24)
	body := ndjsonBody(t, name, inputs)

	// A snapshot to forge from, and with it a warmed client connection.
	lines, _ := postSession(t, ts.URL+"/v1/stream/"+name+"?ckpt=1", body)
	_, snaps := splitControl(t, lines)
	if len(snaps) == 0 {
		t.Fatal("ckpt=1 session gave no snapshot")
	}
	resume := func(forge func(*checkpoint.Snapshot)) string {
		snap := *snaps[0]
		forge(&snap)
		b64, err := checkpoint.EncodeString(&snap)
		if err != nil {
			t.Fatal(err)
		}
		return checkpoint.ResumePrefix + b64 + "\n" + string(body)
	}
	started, baseline := app.met.Snapshot().Sessions, runtime.NumGoroutine()

	for _, tc := range []struct{ query, body, names string }{
		{"workers=100000", string(body), "workers=100000"},
		{fmt.Sprintf("chunk=%d", maxChunk+1), string(body), "chunk="},
		{fmt.Sprintf("chunk=%d&adapt=1", maxChunk), string(body), "chunk="},
		{fmt.Sprintf("lookback=%d", maxLookback+1), string(body), "lookback="},
		{fmt.Sprintf("extra=%d", maxExtraStates+1), string(body), "extra="},
		{"resume=1", resume(func(s *checkpoint.Snapshot) { s.Workers = maxWorkers + 1 }), "workers="},
		{"resume=1", resume(func(s *checkpoint.Snapshot) {
			s.ChunkSize, s.Adapt = maxChunk, true
		}), "chunk="},
	} {
		resp, err := http.Post(ts.URL+"/v1/stream/"+name+"?"+tc.query, "application/x-ndjson", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		msg, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(msg), tc.names) {
			t.Errorf("?%s: status %d %.200q, want 400 naming %q", tc.query, resp.StatusCode, msg, tc.names)
		}
	}
	if n := app.met.Snapshot().Sessions - started; n != 0 {
		t.Errorf("the refusals started %d pipelines", n)
	}
	checkGoroutines(t, baseline)

	atCeilings := engine.StreamConfig{Workers: maxWorkers, ChunkSize: maxChunk, Lookback: maxLookback,
		ExtraStates: maxExtraStates}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	p, err := engine.NewStream(context.Background(), bench.MustNew(name), atCeilings)
	if err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	goroutines, heap := runtime.NumGoroutine()-baseline, after.TotalAlloc-before.TotalAlloc
	p.Close()
	if _, err := p.Wait(); err != nil {
		t.Fatal(err)
	}
	t.Logf("a session at every ceiling: %d goroutines, %d bytes before its first input", goroutines, heap)
	if goroutines >= 300 || heap >= 16<<20 {
		t.Errorf("a session at every ceiling costs %d goroutines and %d bytes before its first input, want under 300 and 16 MB", goroutines, heap)
	}
	_, tr := postSession(t, fmt.Sprintf("%s/v1/stream/%s?workers=%d&chunk=%d&lookback=%d&extra=%d",
		ts.URL, name, maxWorkers, maxChunk, maxLookback, maxExtraStates), body)
	if !tr.Done || tr.Error != "" || tr.Stats.Outputs != int64(len(inputs)) {
		t.Errorf("session at every ceiling: trailer %+v, want %d outputs and done", tr, len(inputs))
	}
}
