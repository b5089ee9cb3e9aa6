package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"gostats/internal/bench"
	_ "gostats/internal/bench/all"
	"gostats/internal/checkpoint"
	"gostats/internal/engine"
	"gostats/internal/rng"
)

func baseConfig() engine.StreamConfig {
	return engine.StreamConfig{ChunkSize: 8, Lookback: 3, ExtraStates: 1, Workers: 3, Seed: 7}
}

// sessionInputs truncates a benchmark's native inputs to n.
func sessionInputs(t *testing.T, name string, n int) []engine.Input {
	t.Helper()
	b, err := bench.New(name)
	if err != nil {
		t.Fatal(err)
	}
	inputs := b.Inputs(rng.New(1))
	if len(inputs) < n {
		t.Fatalf("%s: only %d native inputs, need %d", name, len(inputs), n)
	}
	return inputs[:n]
}

// ndjsonBody encodes inputs as a session request body.
func ndjsonBody(t *testing.T, name string, inputs []engine.Input) []byte {
	t.Helper()
	codec, err := bench.CodecFor(name)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	for _, in := range inputs {
		line, err := codec.EncodeInput(in)
		if err != nil {
			t.Fatal(err)
		}
		buf.Write(line)
		buf.WriteByte('\n')
	}
	return buf.Bytes()
}

// wantLines computes the session's expected response body by running the
// same pipeline locally and encoding its committed outputs.
func wantLines(t *testing.T, name string, cfg engine.StreamConfig, inputs []engine.Input) []string {
	t.Helper()
	prog, err := bench.New(name)
	if err != nil {
		t.Fatal(err)
	}
	codec, err := bench.CodecFor(name)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	p, err := engine.NewStream(ctx, prog, cfg)
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		defer p.Close()
		for _, in := range inputs {
			if p.Push(ctx, in) != nil {
				return
			}
		}
	}()
	var lines []string
	for out := range p.Outputs() {
		b, err := codec.EncodeOutput(out)
		if err != nil {
			t.Error(err)
			break
		}
		lines = append(lines, string(b))
	}
	if _, err := p.Wait(); err != nil {
		t.Fatal(err)
	}
	return lines
}

// runSession POSTs one NDJSON session and returns the output lines and
// the parsed trailer.
func runSession(t *testing.T, url, name string, body []byte) ([]string, Trailer) {
	t.Helper()
	resp, err := http.Post(url+"/v1/stream/"+name, "application/x-ndjson", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("session %s: status %d: %s", name, resp.StatusCode, b)
	}
	var lines []string
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 8<<20)
	for sc.Scan() {
		lines = append(lines, sc.Text())
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(lines) == 0 {
		t.Fatalf("session %s: empty response", name)
	}
	var tr Trailer
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &tr); err != nil {
		t.Fatalf("session %s: bad trailer %q: %v", name, lines[len(lines)-1], err)
	}
	return lines[:len(lines)-1], tr
}

// checkGoroutines waits for the goroutine count to return to (near) the
// baseline, dumping stacks on failure — the in-test leak detector the
// drain guarantees are held to.
func checkGoroutines(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= baseline+2 {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	buf := make([]byte, 1<<20)
	n := runtime.Stack(buf, true)
	t.Fatalf("goroutine leak: %d running, baseline %d\n%s",
		runtime.NumGoroutine(), baseline, buf[:n])
}

// TestServeConcurrentSessions runs two different benchmarks' NDJSON
// sessions concurrently against one server and checks each response is
// exactly the deterministic committed output sequence, in input order,
// with a clean trailer — then that the server leaks no goroutines.
func TestServeConcurrentSessions(t *testing.T) {
	baseline := runtime.NumGoroutine()
	cfg := baseConfig()
	ts := httptest.NewServer(New(cfg, Options{}).Handler())

	sessions := []struct {
		name string
		n    int
	}{
		{"facetrack", 60},
		{"streamcluster", 50},
		{"streamclassifier", 40},
	}

	var wg sync.WaitGroup
	for _, s := range sessions {
		inputs := sessionInputs(t, s.name, s.n)
		body := ndjsonBody(t, s.name, inputs)
		want := wantLines(t, s.name, cfg, inputs)
		wg.Add(1)
		go func() {
			defer wg.Done()
			got, tr := runSession(t, ts.URL, s.name, body)
			if !tr.Done || tr.Error != "" {
				t.Errorf("%s: trailer %+v", s.name, tr)
				return
			}
			if int(tr.Stats.Outputs) != s.n {
				t.Errorf("%s: trailer reports %d outputs, want %d", s.name, tr.Stats.Outputs, s.n)
			}
			if len(got) != len(want) {
				t.Errorf("%s: %d output lines, want %d", s.name, len(got), len(want))
				return
			}
			for i := range got {
				if got[i] != want[i] {
					t.Errorf("%s: output %d = %q, want %q", s.name, i, got[i], want[i])
					return
				}
			}
		}()
	}
	wg.Wait()

	// facetrack outputs carry their frame index: re-check input order
	// end-to-end on a fresh session.
	inputs := sessionInputs(t, "facetrack", 40)
	got, tr := runSession(t, ts.URL, "facetrack", ndjsonBody(t, "facetrack", inputs))
	if !tr.Done {
		t.Fatalf("trailer: %+v", tr)
	}
	for i, line := range got {
		var res struct{ Frame int }
		if err := json.Unmarshal([]byte(line), &res); err != nil {
			t.Fatal(err)
		}
		if res.Frame != i {
			t.Fatalf("output %d is frame %d: commits out of input order", i, res.Frame)
		}
	}

	ts.Close()
	http.DefaultClient.CloseIdleConnections()
	checkGoroutines(t, baseline)
}

// TestSessionDrainsOnCancel abandons a session mid-stream by canceling
// the request context and verifies the server side fully unwinds — no
// pipeline or handler goroutines left behind.
func TestSessionDrainsOnCancel(t *testing.T) {
	baseline := runtime.NumGoroutine()
	ts := httptest.NewServer(New(baseConfig(), Options{}).Handler())
	client := &http.Client{}

	inputs := sessionInputs(t, "facetrack", 48)
	body := ndjsonBody(t, "facetrack", inputs)

	ctx, cancel := context.WithCancel(context.Background())
	pr, pw := io.Pipe()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/stream/facetrack", pr)
	if err != nil {
		t.Fatal(err)
	}
	// Feed the whole body but never close the pipe: the session stays
	// open, mid-stream, until the context is canceled.
	go pw.Write(body)

	resp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(resp.Body)
	if !sc.Scan() {
		t.Fatalf("no output before cancel: %v", sc.Err())
	}
	cancel()
	resp.Body.Close()
	pw.CloseWithError(context.Canceled)

	ts.Close()
	client.CloseIdleConnections()
	checkGoroutines(t, baseline)
}

// TestServeEndpoints covers the service surface around sessions:
// liveness, benchmark discovery, aggregated metrics, and rejection of
// unknown benchmarks and bad parameters.
func TestServeEndpoints(t *testing.T) {
	ts := httptest.NewServer(New(baseConfig(), Options{}).Handler())
	defer ts.Close()

	get := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(b)
	}

	if code, body := get("/healthz"); code != http.StatusOK || strings.TrimSpace(body) != "ok" {
		t.Fatalf("/healthz: %d %q", code, body)
	}

	code, body := get("/v1/benchmarks")
	if code != http.StatusOK {
		t.Fatalf("/v1/benchmarks: %d", code)
	}
	var lists map[string][]string
	if err := json.Unmarshal([]byte(body), &lists); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"facetrack", "streamcluster", "streamclassifier"} {
		found := false
		for _, have := range lists["streamable"] {
			found = found || have == name
		}
		if !found {
			t.Fatalf("/v1/benchmarks: %s missing from streamable %v", name, lists["streamable"])
		}
	}

	// A session, then /metrics must reflect it.
	inputs := sessionInputs(t, "facetrack", 24)
	if _, tr := runSession(t, ts.URL, "facetrack", ndjsonBody(t, "facetrack", inputs)); !tr.Done {
		t.Fatalf("trailer: %+v", tr)
	}
	if code, body := get("/metrics"); code != http.StatusOK ||
		!strings.Contains(body, "stream/counter[sessions]=") ||
		!strings.Contains(body, "stream/stage[speculate]/time[") {
		t.Fatalf("/metrics: %d %q", code, body)
	}

	resp, err := http.Post(ts.URL+"/v1/stream/nosuch", "application/x-ndjson", strings.NewReader(""))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown benchmark: status %d, want 404", resp.StatusCode)
	}

	resp, err = http.Post(ts.URL+"/v1/stream/facetrack?chunk=bogus", "application/x-ndjson", strings.NewReader(""))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad query: status %d, want 400", resp.StatusCode)
	}

	// Malformed input before any output: a clean 400, not a 200 with an
	// error trailer and not a connection reset.
	resp, err = http.Post(ts.URL+"/v1/stream/facetrack", "application/x-ndjson",
		strings.NewReader("{not json}\n"))
	if err != nil {
		t.Fatal(err)
	}
	b, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed input: status %d, want 400 (%s)", resp.StatusCode, b)
	}
	if !strings.Contains(string(b), "input line 1") {
		t.Fatalf("malformed input: body %q does not locate the bad line", b)
	}
}

// TestTrailerIsCheckpointTrailer holds the trailer to the one definition
// the gateway recognises it by (checkpoint.IsTrailer): every marshalled
// Trailer starts with checkpoint.TrailerPrefix, and in a checkpointed
// session of every streamable benchmark the last line is the one line
// that does.
func TestTrailerIsCheckpointTrailer(t *testing.T) {
	for _, tr := range []Trailer{
		{},
		{Done: true, Benchmark: "streamcluster"},
		{Error: "input line 3: bad", Migrated: true},
		{Done: true, Attribution: &Attribution{Error: "no events"}},
	} {
		b, err := json.Marshal(tr)
		if err != nil {
			t.Fatal(err)
		}
		if !checkpoint.IsTrailer(string(b)) {
			t.Errorf("trailer %s does not start with %s", b, checkpoint.TrailerPrefix)
		}
	}

	ts := httptest.NewServer(New(baseConfig(), Options{}).Handler())
	defer ts.Close()
	for _, name := range bench.CodecNames() {
		body := ndjsonBody(t, name, sessionInputs(t, name, 16))
		resp, err := http.Post(ts.URL+"/v1/stream/"+name+"?ckpt=1", "application/x-ndjson", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 0, 64<<10), 8<<20)
		var lines []string
		for sc.Scan() {
			lines = append(lines, sc.Text())
		}
		resp.Body.Close()
		if err := sc.Err(); err != nil || len(lines) == 0 {
			t.Fatalf("%s: %d lines, %v", name, len(lines), err)
		}
		for i, line := range lines {
			if last := i == len(lines)-1; checkpoint.IsTrailer(line) != last {
				t.Errorf("%s: line %d of %d reads as a trailer %v: %.80s", name, i+1, len(lines), !last, line)
			}
		}
	}
}
