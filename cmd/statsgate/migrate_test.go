package main

// Gateway-level session-mobility tests: a migrate-enabled statsgate in
// front of real in-process statsserved backends. The contract under test
// is the tentpole's: a backend draining away mid-session must be
// invisible to the client — one stream, no control lines, committed
// bytes identical to a run that never moved.

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"gostats/internal/cluster"
	"gostats/internal/serve"
)

// newMigrateGate fronts the backends with a gateway running the
// checkpointed-session protocol.
func newMigrateGate(t *testing.T, ckptEvery int, addrs ...string) (*gateway, *cluster.Registry, *httptest.Server) {
	t.Helper()
	g, reg, ts := newGate(t, addrs...)
	g.migrate = true
	g.ckptEvery = ckptEvery
	return g, reg, ts
}

// TestGateMigrateCleanSession: the checkpointed protocol on the happy
// path. A complete session through a migrate-enabled gateway returns
// exactly the plain session's lines — every #ckpt consumed, no
// migration, trailer intact.
func TestGateMigrateCleanSession(t *testing.T) {
	_, direct := newBackend(t, serve.Options{})
	_, ts0 := newBackend(t, serve.Options{})
	g, _, gts := newMigrateGate(t, 2, ts0.URL)

	inputs := sessionInputs(t, "streamcluster", 40)
	body := ndjsonBody(t, "streamcluster", inputs)
	_, want, wantTr, _ := postSession(t, direct.URL, "streamcluster", body)
	if !wantTr.Done {
		t.Fatalf("direct trailer: %+v", wantTr)
	}

	status, lines, tr, _ := postSession(t, gts.URL, "streamcluster", body)
	if status != http.StatusOK || !tr.Done || tr.Error != "" || tr.Migrated {
		t.Fatalf("clean session: status %d trailer %+v", status, tr)
	}
	for _, line := range lines {
		if strings.HasPrefix(line, "#") {
			t.Fatalf("control line leaked to the client: %q", line)
		}
	}
	if len(lines) != len(want) {
		t.Fatalf("%d output lines, want %d", len(lines), len(want))
	}
	for i := range lines {
		if lines[i] != want[i] {
			t.Fatalf("line %d differs through checkpointed relay:\n got %s\nwant %s", i, lines[i], want[i])
		}
	}
	if g.met.Migrations.Load() != 0 {
		t.Fatalf("clean session recorded %d migrations", g.met.Migrations.Load())
	}
}

// TestGateMigrateMidSession is the session-mobility e2e: a session is
// streaming on b0 when b0 drains. The serve layer halts it at the commit
// frontier and the gateway resumes it on b1 from the final checkpoint —
// while the client keeps uploading inputs and reading outputs on one
// uninterrupted connection. The client must see no control lines, no gap
// and no duplicates: the full stream byte-identical to a session that
// never migrated, ending in a Done trailer.
func TestGateMigrateMidSession(t *testing.T) {
	name := "dedupstream"
	_, direct := newBackend(t, serve.Options{})
	b0, ts0 := newBackend(t, serve.Options{})
	_, ts1 := newBackend(t, serve.Options{})
	g, reg, gts := newMigrateGate(t, 2, ts0.URL, ts1.URL)

	inputs := sessionInputs(t, name, 60)
	_, want, _, _ := postSession(t, direct.URL, name, ndjsonBody(t, name, inputs))
	firstHalf := ndjsonBody(t, name, inputs[:40])
	secondHalf := ndjsonBody(t, name, inputs[40:])

	// Session seq 0: round-robin sends it to b0. Feed the first half and
	// keep the body open so the session is mid-stream when b0 drains.
	pr, pw := io.Pipe()
	req, err := http.NewRequest(http.MethodPost, gts.URL+"/v1/stream/"+name, pr)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/x-ndjson")
	type result struct {
		lines []string
		err   error
	}
	resc := make(chan result, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			resc <- result{err: err}
			return
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			resc <- result{err: fmt.Errorf("status %d", resp.StatusCode)}
			return
		}
		var lines []string
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 0, 64<<10), 8<<20)
		for sc.Scan() {
			lines = append(lines, sc.Text())
		}
		resc <- result{lines: lines, err: sc.Err()}
	}()
	if _, err := pw.Write(firstHalf); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "session streaming on b0", func() bool { return reg.Snapshots()[0].Routed >= 1 })

	// Drain b0: the serve layer halts the session at its commit frontier,
	// emits the final #ckpt and #migrate, and the gateway must resume on
	// b1 (the 503 from still-listed b0 is an ordinary re-route).
	b0.StartDrain()
	waitFor(t, "session migrated to b1", func() bool { return g.met.Migrations.Load() >= 1 })

	// The client never noticed: keep uploading on the same connection.
	if _, err := pw.Write(secondHalf); err != nil {
		t.Fatal(err)
	}
	pw.Close()
	res := <-resc
	if res.err != nil {
		t.Fatal(res.err)
	}
	if len(res.lines) != len(want)+1 {
		t.Fatalf("migrated session: %d lines, want %d outputs + trailer", len(res.lines), len(want))
	}
	for i := range want {
		if strings.HasPrefix(res.lines[i], "#") {
			t.Fatalf("control line leaked to the client: %q", res.lines[i])
		}
		if res.lines[i] != want[i] {
			t.Fatalf("line %d differs across migration:\n got %s\nwant %s", i, res.lines[i], want[i])
		}
	}
	var tr serve.Trailer
	if err := json.Unmarshal([]byte(res.lines[len(res.lines)-1]), &tr); err != nil {
		t.Fatalf("bad trailer %q: %v", res.lines[len(res.lines)-1], err)
	}
	if !tr.Done || tr.Error != "" || tr.Migrated {
		t.Fatalf("migrated session trailer: %+v", tr)
	}

	if g.met.Migrations.Load() != 1 {
		t.Fatalf("migrations = %d, want 1", g.met.Migrations.Load())
	}
	snaps := reg.Snapshots()
	if snaps[0].Routed < 1 || snaps[1].Routed < 1 {
		t.Fatalf("routed b0=%d b1=%d: session did not span both backends",
			snaps[0].Routed, snaps[1].Routed)
	}
}

// flushCounter counts the flushes the gateway asks of its client
// connection. http.ResponseController finds Flush here and everything
// else (full duplex, read deadlines) through Unwrap.
type flushCounter struct {
	http.ResponseWriter
	n *atomic.Int64
}

func (f flushCounter) Flush() {
	f.n.Add(1)
	f.ResponseWriter.(http.Flusher).Flush()
}

func (f flushCounter) Unwrap() http.ResponseWriter { return f.ResponseWriter }

// TestGateRelayFlushesWhenIdle holds the checkpointed relay to the flush
// rule serve's pump follows (TestOutputsFlushWhenIdle), one hop out. An
// interactive client — some lines sent, the body held open — must see the
// outputs those lines commit without sending anything more: the relay
// flushes before it blocks on the backend. And a client whose whole body
// is already there must not pay a write per line: lines that arrive from
// the backend together leave together.
func TestGateRelayFlushesWhenIdle(t *testing.T) {
	const name = "streamcluster"
	cfg := baseConfig()
	_, direct := newBackend(t, serve.Options{})
	_, ts0 := newBackend(t, serve.Options{})
	g, _, _ := newMigrateGate(t, 2, ts0.URL)
	var flushes atomic.Int64
	h := g.handler()
	gts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		h.ServeHTTP(flushCounter{w, &flushes}, r)
	}))
	defer gts.Close()

	// One chunk a worker: the first chunk's commit waits for nothing the
	// client has not sent, so its outputs are owed at once.
	inputs := sessionInputs(t, name, cfg.Workers*cfg.ChunkSize)
	_, want, _, _ := postSession(t, direct.URL, name, ndjsonBody(t, name, inputs))

	pr, pw := io.Pipe()
	defer pw.Close()
	req, err := http.NewRequest(http.MethodPost, gts.URL+"/v1/stream/"+name, pr)
	if err != nil {
		t.Fatal(err)
	}
	go pw.Write(ndjsonBody(t, name, inputs)) // then the body stays open
	lines := make(chan string, len(inputs)+1)
	go func() {
		defer close(lines)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			return
		}
		defer resp.Body.Close()
		for sc := bufio.NewScanner(resp.Body); sc.Scan(); {
			lines <- sc.Text()
		}
	}()
	timeout := time.After(time.Second)
	for i := 0; i < cfg.ChunkSize; i++ {
		select {
		case got, ok := <-lines:
			if !ok || got != want[i] {
				t.Fatalf("output %d = %q (stream open: %v), want %q", i, got, ok, want[i])
			}
		case <-timeout:
			t.Fatalf("%d of the first chunk's %d outputs within 1s of sending a window: the rest sit unflushed in the relay", i, cfg.ChunkSize)
		}
	}
	pw.Close()
	n := cfg.ChunkSize
	for range lines {
		n++
	}
	if n != len(inputs)+1 {
		t.Fatalf("interactive session ended with %d lines, want %d outputs and a trailer", n, len(inputs))
	}

	// The buffered session: every input is in the request before the
	// first output is out, so the backend's lines arrive a chunk at a time.
	inputs = sessionInputs(t, name, 32*cfg.ChunkSize)
	flushes.Store(0)
	status, outs, tr, _ := postSession(t, gts.URL, name, ndjsonBody(t, name, inputs))
	if status != http.StatusOK || !tr.Done || len(outs) != len(inputs) {
		t.Fatalf("buffered session: status %d, %d outputs, trailer %+v", status, len(outs), tr)
	}
	if got := flushes.Load(); got == 0 || got >= int64(len(outs)) {
		t.Fatalf("%d flushes for %d relayed lines: want at least one and fewer than one a line", got, len(outs))
	}
}
