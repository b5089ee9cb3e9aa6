//go:build goexperiment.synctest

package main

// Gateway tests inside a testing/synctest bubble: backends, gateway and
// client talk HTTP over in-memory pipes, so every goroutine of the
// session blocks only on things the bubble can see, and synctest.Wait
// says when the whole stack has settled. Run them with
//
//	GOEXPERIMENT=synctest go test -run InBubble ./cmd/statsgate

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net"
	"net/http"
	"slices"
	"strings"
	"sync"
	"testing"
	"testing/synctest"
	"time"

	"gostats/internal/bench"
	"gostats/internal/cluster"
	"gostats/internal/serve"
)

// memNet is an in-memory network: each host is a listener whose
// connections are net.Pipe ends, and dial hands the other end to it.
type memNet struct {
	mu      sync.Mutex
	hosts   map[string]*memListener
	servers []*http.Server
}

// memListener is one memNet host. Accept waits on a channel, which a
// bubble counts as durably blocked; a socket's accept is not.
type memListener struct {
	host     string
	conns    chan net.Conn
	done     chan struct{}
	once     sync.Once
	accepted []net.Conn // server ends handed to Accept; memNet.mu guards it
}

func (l *memListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.conns:
		return c, nil
	case <-l.done:
		return nil, net.ErrClosed
	}
}

func (l *memListener) Close() error {
	l.once.Do(func() { close(l.done) })
	return nil
}

func (l *memListener) Addr() net.Addr { return memAddr(l.host) }

type memAddr string

func (a memAddr) Network() string { return "mem" }
func (a memAddr) String() string  { return string(a) }

// serve answers HTTP for host with h and returns the host's base URL.
func (n *memNet) serve(host string, h http.Handler) string {
	l := &memListener{host: host, conns: make(chan net.Conn), done: make(chan struct{})}
	srv := &http.Server{Handler: h}
	n.mu.Lock()
	n.hosts[host+":80"] = l
	n.servers = append(n.servers, srv)
	n.mu.Unlock()
	go srv.Serve(l)
	return "http://" + host
}

// dial connects to a served host; it is an http.Transport's DialContext.
func (n *memNet) dial(ctx context.Context, _, addr string) (net.Conn, error) {
	n.mu.Lock()
	l := n.hosts[addr]
	n.mu.Unlock()
	if l == nil {
		return nil, errors.New("memnet: no host " + addr)
	}
	client, server := net.Pipe()
	select {
	case l.conns <- server:
		n.mu.Lock()
		l.accepted = append(l.accepted, server)
		n.mu.Unlock()
		return client, nil
	case <-l.done:
		return nil, errors.New("memnet: " + addr + " is closed")
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// cut closes the server end of every connection host has accepted: to
// its peers, the network failing under whatever is in flight.
func (n *memNet) cut(host string) {
	n.mu.Lock()
	l := n.hosts[host+":80"]
	conns := l.accepted
	l.accepted = nil
	n.mu.Unlock()
	for _, c := range conns {
		c.Close()
	}
}

// client is an HTTP client that dials the memNet.
func (n *memNet) client() *http.Client {
	return &http.Client{Transport: &http.Transport{DialContext: n.dial}}
}

// inBubble runs f in a synctest bubble over a fresh memNet and closes
// every server f started before the bubble ends, which is when every
// goroutine f started must have exited.
func inBubble(f func(n *memNet)) {
	synctest.Run(func() {
		n := &memNet{hosts: map[string]*memListener{}}
		defer func() {
			for _, srv := range n.servers {
				srv.Close()
			}
		}()
		f(n)
	})
}

// TestGateMigrateMidSessionInBubble is TestGateMigrateMidSession with
// synctest.Wait where the original polls: once the first half of the
// body is in and the stack has settled, the session is on b0; once b0
// drains and the stack settles again, it has moved to b1, exactly once,
// with no time passed. The client's bytes are the same as a session
// that never moved.
func TestGateMigrateMidSessionInBubble(t *testing.T) {
	inBubble(func(n *memNet) {
		const name = "dedupstream"
		direct := n.serve("direct", serve.New(baseConfig(), serve.Options{}).Handler())
		b0 := serve.New(baseConfig(), serve.Options{})
		reg := cluster.NewRegistry(
			cluster.Backend{ID: "b0", Addr: n.serve("b0", b0.Handler())},
			cluster.Backend{ID: "b1", Addr: n.serve("b1", serve.New(baseConfig(), serve.Options{}).Handler())},
		)
		g := newGateway(reg)
		g.migrate, g.ckptEvery, g.client = true, 2, n.client()
		gate := n.serve("gate", g.handler())
		client := n.client()
		defer client.CloseIdleConnections()
		defer g.client.CloseIdleConnections()

		inputs := sessionInputs(t, name, 60)
		_, want, _, _ := postSessionVia(t, client, direct, name, ndjsonBody(t, name, inputs))

		pr, pw := io.Pipe()
		defer pw.Close() // a failed check must not leave the gateway reading
		req, err := http.NewRequest(http.MethodPost, gate+"/v1/stream/"+name, pr)
		if err != nil {
			t.Fatal(err)
		}
		lines := make(chan []string, 1)
		go func() {
			defer close(lines)
			resp, err := client.Do(req)
			if err != nil || resp.StatusCode != http.StatusOK {
				return
			}
			defer resp.Body.Close()
			var got []string
			sc := bufio.NewScanner(resp.Body)
			sc.Buffer(make([]byte, 0, 64<<10), 8<<20)
			for sc.Scan() {
				got = append(got, sc.Text())
			}
			lines <- got
		}()
		if _, err := pw.Write(ndjsonBody(t, name, inputs[:40])); err != nil {
			t.Fatal(err)
		}
		synctest.Wait()
		if got := reg.Snapshots()[0].Routed; got != 1 {
			t.Fatalf("session settled with b0 routed %d times, want 1", got)
		}

		// The gateway hands the session off at #migrate, so no timer has
		// to fire for it: the stack settles with the migration done and
		// the bubble's clock where it was. Waiting for b0's halt trailer
		// instead would wait out serve's one-second halt grace.
		mark := time.Now()
		b0.StartDrain()
		synctest.Wait()
		if got := g.met.Migrations.Load(); got != 1 {
			t.Fatalf("drained b0 settled with %d migrations, want 1", got)
		}
		if waited := time.Since(mark); waited != 0 {
			t.Fatalf("the hand-off waited %s on the bubble's clock, want 0", waited)
		}

		if _, err := pw.Write(ndjsonBody(t, name, inputs[40:])); err != nil {
			t.Fatal(err)
		}
		pw.Close()
		got, ok := <-lines
		if !ok {
			t.Fatal("migrated session failed")
		}
		if len(got) != len(want)+1 {
			t.Fatalf("migrated session: %d lines, want %d outputs + trailer", len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("line %d differs across migration:\n got %s\nwant %s", i, got[i], want[i])
			}
		}
		var tr serve.Trailer
		if err := json.Unmarshal([]byte(got[len(got)-1]), &tr); err != nil || !tr.Done || tr.Error != "" || tr.Migrated {
			t.Fatalf("migrated session trailer %q (%v)", got[len(got)-1], err)
		}
		if strings.HasPrefix(got[0], "#") || reg.Snapshots()[1].Routed < 1 {
			t.Fatalf("session did not reach b1 cleanly: first line %q, b1 routed %d", got[0], reg.Snapshots()[1].Routed)
		}
		// A planned hand-off takes b0 off the ready set at #migrate, so the
		// resume goes straight to b1: no wasted pick of b0, no shed, no
		// error.
		if rer, errs, shed := g.met.Reroutes.Load(), g.met.BackendErrors.Load(), reg.Snapshots()[0].Shed; rer != 0 || errs != 0 || shed != 0 {
			t.Fatalf("clean drain hand-off: reroutes=%d backend_errors=%d b0 shed=%d, want 0 each", rer, errs, shed)
		}
	})
}

// TestGateDrainMidRunInBubble is TestGateDrainMidRun with the gateway's
// own probe loop running over the memNet, and synctest.Wait where the
// original polls: b0 drains while a session it serves is mid-run, one
// probe interval later the registry offers only b1, new sessions land
// there, and the in-flight session finishes on b0 byte-identical to a
// direct run. The probe loop ends with the test, as every goroutine in
// the bubble must.
func TestGateDrainMidRunInBubble(t *testing.T) {
	inBubble(func(n *memNet) {
		const name = "facetrack"
		const interval = 100 * time.Millisecond
		b0 := serve.New(baseConfig(), serve.Options{})
		b1 := n.serve("b1", serve.New(baseConfig(), serve.Options{}).Handler())
		reg := cluster.NewRegistry(
			cluster.Backend{ID: "b0", Addr: n.serve("b0", b0.Handler())},
			cluster.Backend{ID: "b1", Addr: b1},
		)
		g := newGateway(reg)
		g.client = n.client()
		gate := n.serve("gate", g.handler())
		client := n.client()
		defer client.CloseIdleConnections()
		defer g.client.CloseIdleConnections()
		ctx, cancel := context.WithCancel(context.Background())
		probing := make(chan struct{})
		go func() {
			defer close(probing)
			g.probeLoop(ctx, interval)
		}()
		defer func() {
			cancel()
			<-probing
		}()

		inputs := sessionInputs(t, name, 32)
		_, want, _, _ := postSessionVia(t, client, b1, name, ndjsonBody(t, name, inputs))

		// Session seq 0: round-robin routes it to b0. Feed half the
		// inputs, then keep the body open so it is mid-run at the drain.
		pr, pw := io.Pipe()
		defer pw.Close() // a failed check must not leave the gateway reading
		req, err := http.NewRequest(http.MethodPost, gate+"/v1/stream/"+name, pr)
		if err != nil {
			t.Fatal(err)
		}
		lines := make(chan []string, 1)
		go func() {
			defer close(lines)
			resp, err := client.Do(req)
			if err != nil || resp.StatusCode != http.StatusOK {
				return
			}
			defer resp.Body.Close()
			var got []string
			sc := bufio.NewScanner(resp.Body)
			sc.Buffer(make([]byte, 0, 64<<10), 8<<20)
			for sc.Scan() {
				got = append(got, sc.Text())
			}
			lines <- got
		}()
		if _, err := pw.Write(ndjsonBody(t, name, inputs[:16])); err != nil {
			t.Fatal(err)
		}
		synctest.Wait()
		if got := reg.Snapshots()[0].Routed; got != 1 {
			t.Fatalf("session settled with b0 routed %d times, want 1", got)
		}

		// The drain: /readyz flips to 503, the next probe round sees it,
		// and the registry stops offering b0 to new sessions.
		b0.StartDrain()
		time.Sleep(interval)
		synctest.Wait()
		if ready := reg.Ready(); len(ready) != 1 || ready[0].ID != "b1" {
			t.Fatalf("ready backends a probe interval after the drain = %v, want [b1]", ready)
		}

		for i := 0; i < 3; i++ {
			status, _, tr, _ := postSessionVia(t, client, gate, name, ndjsonBody(t, name, inputs))
			if status != http.StatusOK || !tr.Done || tr.Error != "" {
				t.Fatalf("post-drain session %d: status %d trailer %+v", i, status, tr)
			}
		}
		if snaps := reg.Snapshots(); snaps[0].Routed != 1 || snaps[1].Routed != 3 {
			t.Fatalf("routed b0=%d b1=%d, want 1 and 3: draining backend took a new session",
				snaps[0].Routed, snaps[1].Routed)
		}

		// The in-flight session on the draining backend finishes untouched.
		if _, err := pw.Write(ndjsonBody(t, name, inputs[16:])); err != nil {
			t.Fatal(err)
		}
		pw.Close()
		got, ok := <-lines
		if !ok {
			t.Fatal("mid-drain session failed")
		}
		if len(got) != len(want)+1 {
			t.Fatalf("mid-drain session: %d lines, want %d outputs + trailer", len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("mid-drain line %d differs:\n got %s\nwant %s", i, got[i], want[i])
			}
		}
		var tr serve.Trailer
		if err := json.Unmarshal([]byte(got[len(got)-1]), &tr); err != nil || !tr.Done || tr.Error != "" {
			t.Fatalf("mid-drain trailer %q (%v)", got[len(got)-1], err)
		}
		synctest.Wait()
		if inFlight := reg.Snapshots()[0].InFlight; inFlight != 0 {
			t.Fatalf("b0 settled with %d sessions in flight, want 0", inFlight)
		}
	})
}

// TestGateReroutesShedSessionInBubble is TestGateReroutesShedSession with
// synctest.Wait where the original polls: b0 runs at MaxSessions 1 with
// its slot held, so of two sessions through the gateway the one
// round-robin offers b0 first is shed there and re-routed to b1, and
// both come back byte-identical to a direct run.
func TestGateReroutesShedSessionInBubble(t *testing.T) {
	inBubble(func(n *memNet) {
		const name = "facetrack"
		b0 := n.serve("b0", serve.New(baseConfig(), serve.Options{MaxSessions: 1}).Handler())
		b1 := n.serve("b1", serve.New(baseConfig(), serve.Options{}).Handler())
		reg := cluster.NewRegistry(cluster.Backend{ID: "b0", Addr: b0}, cluster.Backend{ID: "b1", Addr: b1})
		g := newGateway(reg)
		g.client = n.client()
		gate := n.serve("gate", g.handler())
		client := n.client()
		defer client.CloseIdleConnections()
		defer g.client.CloseIdleConnections()

		// Hold b0's one slot with a session whose body stays open.
		pr, pw := io.Pipe()
		defer pw.Close()
		req, err := http.NewRequest(http.MethodPost, b0+"/v1/stream/"+name, pr)
		if err != nil {
			t.Fatal(err)
		}
		held := make(chan struct{})
		go func() {
			defer close(held)
			if resp, err := client.Do(req); err == nil {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}()
		defer func() { pw.Close(); <-held }()
		synctest.Wait()
		if status, _, _, _ := postSessionVia(t, client, b0, name, nil); status != http.StatusTooManyRequests {
			t.Fatalf("direct post to b0 with its slot held: status %d, want 429", status)
		}

		inputs := sessionInputs(t, name, 40)
		body := ndjsonBody(t, name, inputs)
		_, want, _, _ := postSessionVia(t, client, b1, name, body)
		for i := 0; i < 2; i++ {
			status, lines, tr, _ := postSessionVia(t, client, gate, name, body)
			if status != http.StatusOK || !tr.Done || tr.Error != "" {
				t.Fatalf("session %d: status %d trailer %+v", i, status, tr)
			}
			if len(lines) != len(want) {
				t.Fatalf("session %d: %d lines, want %d", i, len(lines), len(want))
			}
			for j := range lines {
				if lines[j] != want[j] {
					t.Fatalf("session %d line %d differs after re-route:\n got %s\nwant %s", i, j, lines[j], want[j])
				}
			}
		}
		snaps := reg.Snapshots()
		if rer := g.met.Reroutes.Load(); rer != 1 || snaps[0].Shed != 1 || snaps[0].Routed != 0 || snaps[1].Routed != 2 {
			t.Fatalf("reroutes=%d b0 shed=%d routed=%d b1 routed=%d, want 1, 1, 0 and 2",
				rer, snaps[0].Shed, snaps[0].Routed, snaps[1].Routed)
		}
	})
}

// TestGateRefusalReachesStreamingClientInBubble is
// TestGateRefusalReachesStreamingClient with synctest.Wait where the
// original waits out a one-second timer: a client that holds its request
// body open gets the gateway's own refusal — the 503 of a draining gate,
// and the 429, with a Retry-After, when its one backend's slot is held —
// and the handler has returned, once the stack has settled and with no
// time passed.
func TestGateRefusalReachesStreamingClientInBubble(t *testing.T) {
	const name = "facetrack"
	line := ndjsonBody(t, name, sessionInputs(t, name, 1))
	for _, tc := range []struct {
		name string
		opt  serve.Options
		want int
	}{
		{"draining", serve.Options{}, http.StatusServiceUnavailable},
		{"capacity", serve.Options{MaxSessions: 1}, http.StatusTooManyRequests},
	} {
		t.Run(tc.name, func(t *testing.T) {
			inBubble(func(n *memNet) {
				b0 := n.serve("b0", serve.New(baseConfig(), tc.opt).Handler())
				g := newGateway(cluster.NewRegistry(cluster.Backend{ID: "b0", Addr: b0}))
				g.client = n.client()
				h := g.handler()
				returned := make(chan struct{})
				gate := n.serve("gate", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
					h.ServeHTTP(w, r)
					close(returned)
				}))
				client := n.client()
				defer client.CloseIdleConnections()
				defer g.client.CloseIdleConnections()

				// open posts body to url and holds the request body open
				// until the returned function closes it and waits for the
				// exchange to end.
				open := func(url string, body []byte) (<-chan answer, func()) {
					pr, pw := io.Pipe()
					req, err := http.NewRequest(http.MethodPost, url, pr)
					if err != nil {
						t.Fatal(err)
					}
					go pw.Write(body)
					got, done := make(chan answer, 1), make(chan struct{})
					go func() {
						defer close(done)
						resp, err := client.Do(req)
						got <- answer{resp, err}
						if err == nil {
							io.Copy(io.Discard, resp.Body)
							resp.Body.Close()
						}
					}()
					return got, func() { pw.Close(); <-done }
				}

				if tc.want == http.StatusServiceUnavailable {
					g.startDrain()
				} else {
					_, release := open(b0+"/v1/stream/"+name, nil)
					defer release()
					synctest.Wait()
				}
				got, release := open(gate+"/v1/stream/"+name, line)
				defer release()
				synctest.Wait()
				select {
				case a := <-got:
					if a.err != nil {
						t.Fatal(a.err)
					}
					if a.resp.StatusCode != tc.want {
						t.Fatalf("status %d, want %d", a.resp.StatusCode, tc.want)
					}
					if ra := a.resp.Header.Get("Retry-After"); tc.want == http.StatusTooManyRequests && ra != "1" {
						t.Fatalf("429 Retry-After = %q, want 1, the backend's hint while its one session has no chunk in flight", ra)
					}
				default:
					t.Fatalf("no %d once the stack settled: the refusal is stuck behind the open request body", tc.want)
				}
				select {
				case <-returned:
				default:
					t.Fatal("the gateway's handler had not returned once the stack settled, with the client body open")
				}
			})
		})
	}
}

// ckptTap watches the lines a backend writes. By default it counts the
// #ckpt lines and, right after the line that makes the count at, drains
// the backend. With cut set it counts every line instead and, right after
// the at-th (at 0: once the status line is out, before any line), calls
// cut: nothing the response writes after that line reaches the gateway.
type ckptTap struct {
	mu    sync.Mutex
	seen  int
	at    int // draining, 0 never drains; cutting, below 0 never cuts
	drain func()
	cut   func()
	// What a cut tap saw through the at-th line: whether it cut, and how
	// many #ckpt lines and other lines (outputs or the trailer) went out.
	fired          bool
	ckpts, outputs int
}

// handler wraps a backend's handler so its responses pass the tap.
func (tp *ckptTap) handler(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		h.ServeHTTP(&tappedWriter{ResponseWriter: w, tap: tp, lineStart: true}, r)
	})
}

// count is how many lines the tap has counted.
func (tp *ckptTap) count() int {
	tp.mu.Lock()
	defer tp.mu.Unlock()
	return tp.seen
}

// tappedWriter is one response through a ckptTap. A control line is the
// one kind of line that starts with '#', and until the drain the only
// control line a backend writes is #ckpt; a write may end anywhere in a
// line.
type tappedWriter struct {
	http.ResponseWriter
	tap       *ckptTap
	lineStart bool
	control   bool // the current line starts with '#'
}

func (w *tappedWriter) Write(b []byte) (int, error) {
	tp := w.tap
	tp.mu.Lock()
	end, fire := len(b), false
	if tp.cut != nil && tp.at == 0 && !tp.fired {
		end, fire = 0, true
	}
	for i := 0; i < end; i++ {
		c := b[i]
		if w.lineStart {
			w.control = c == '#'
		}
		w.lineStart = c == '\n'
		if !w.lineStart || (tp.cut == nil && !w.control) {
			continue
		}
		tp.seen++
		if tp.cut != nil && tp.seen <= tp.at {
			if w.control {
				tp.ckpts++
			} else {
				tp.outputs++
			}
		}
		if tp.seen == tp.at {
			fire = true
			if tp.cut != nil {
				end = i + 1
			}
		}
	}
	tp.fired = tp.fired || fire
	tp.mu.Unlock()
	n, err := w.ResponseWriter.Write(b[:end])
	switch {
	case !fire:
	case tp.cut == nil:
		tp.drain()
	default:
		// Everything through the at-th line leaves before the cut.
		_ = http.NewResponseController(w.ResponseWriter).Flush()
		tp.cut()
		if err == nil {
			err = io.ErrClosedPipe
		}
	}
	return n, err
}

// Unwrap lets the backend's ResponseController reach the connection.
func (w *tappedWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// TestGateDrainAtEveryCheckpointInBubble drains a migrating session's
// backend right after each of the checkpoints it writes, for every
// streamable benchmark: a short session at ckpt=1, its body held open, so
// b0 writes one #ckpt a commit, and for each index k a bubble in which b0
// drains right after its k-th. Wherever the drain falls, the session moves
// to b1 exactly once, the client's bytes are a direct run's, and the
// bubble ends with no goroutine left.
func TestGateDrainAtEveryCheckpointInBubble(t *testing.T) {
	const inputs = 3 * 8 // three chunks of baseConfig's
	for _, name := range bench.CodecNames() {
		body := ndjsonBody(t, name, sessionInputs(t, name, inputs))
		// session runs body through a gateway in front of a tapped b0 and
		// a plain b1, holding the body open until the stack has settled
		// once after the drain, and returns the client's lines, a direct
		// run's, the migrations and the #ckpt lines b0 wrote by the first
		// settling. They leave the bubble on a channel: what a bubbled
		// goroutine wrote, the race detector sees read after synctest.Run
		// only through a synchronizing operation.
		session := func(at int) (got, want []string, migrations int64, ckpts int) {
			type result struct {
				got, want  []string
				migrations int64
				ckpts      int
			}
			res := make(chan result, 1)
			inBubble(func(n *memNet) {
				_, want, _, _ := postSessionVia(t, n.client(), n.serve("direct", serve.New(baseConfig(), serve.Options{}).Handler()), name, body)
				b0 := serve.New(baseConfig(), serve.Options{})
				tap := &ckptTap{at: at, drain: b0.StartDrain}
				reg := cluster.NewRegistry(
					cluster.Backend{ID: "b0", Addr: n.serve("b0", tap.handler(b0.Handler()))},
					cluster.Backend{ID: "b1", Addr: n.serve("b1", serve.New(baseConfig(), serve.Options{}).Handler())},
				)
				g := newGateway(reg)
				g.migrate, g.ckptEvery, g.client = true, 1, n.client()
				gate := n.serve("gate", g.handler())
				client := n.client()
				defer client.CloseIdleConnections()
				defer g.client.CloseIdleConnections()

				pr, pw := io.Pipe()
				defer pw.Close()
				req, err := http.NewRequest(http.MethodPost, gate+"/v1/stream/"+name, pr)
				if err != nil {
					t.Fatal(err)
				}
				lines := make(chan []string, 1)
				go func() {
					defer close(lines)
					resp, err := client.Do(req)
					if err != nil || resp.StatusCode != http.StatusOK {
						return
					}
					defer resp.Body.Close()
					var got []string
					sc := bufio.NewScanner(resp.Body)
					sc.Buffer(make([]byte, 0, 64<<10), 8<<20)
					for sc.Scan() {
						got = append(got, sc.Text())
					}
					lines <- got
				}()
				if _, err := pw.Write(body); err != nil {
					t.Fatal(err)
				}
				synctest.Wait()
				ckpts := tap.count()
				pw.Close()
				res <- result{<-lines, want, g.met.Migrations.Load(), ckpts}
			})
			r := <-res
			return r.got, r.want, r.migrations, r.ckpts
		}

		got, want, migrations, ckpts := session(0)
		if ckpts < 2 || migrations != 0 || !sameOutputs(got, want) {
			t.Fatalf("%s undrained: %d #ckpt lines, %d migrations, outputs match %v; want at least 2, 0 and true",
				name, ckpts, migrations, sameOutputs(got, want))
		}
		for k := 1; k <= ckpts; k++ {
			got, want, migrations, _ := session(k)
			if migrations != 1 || !sameOutputs(got, want) {
				t.Errorf("%s drained after #ckpt %d of %d: %d migrations, outputs match %v; want 1 and true",
					name, k, ckpts, migrations, sameOutputs(got, want))
			}
		}
	}
}

// sameOutputs reports whether got is want's output lines and then a
// trailer that says the session is done.
func sameOutputs(got, want []string) bool {
	if len(got) != len(want)+1 || !slices.Equal(got[:len(want)], want) {
		return false
	}
	var tr serve.Trailer
	return json.Unmarshal([]byte(got[len(want)]), &tr) == nil && tr.Done && tr.Error == "" && !tr.Migrated
}

// TestGateBackendCutAtEveryLineInBubble loses a migrating session's
// backend mid-stream: a short session at ckpt=1, and for each k a bubble
// in which b0's connection is cut right after the k-th line of its
// response (k 0: right after the status line). What the gateway does
// depends only on what had reached it by then. With a #ckpt in hand it
// resumes from it, once, and the client's bytes are a direct run's; with
// no line at all it re-routes the whole session, and the client's bytes
// are again a direct run's; with outputs relayed but no checkpoint it
// ends the client's stream after them, without a trailer. Each way the
// loss is one backend error. A cut after the trailer loses nothing: the
// session is over, with no migration and no backend error. The bubble
// ends with no goroutine left.
func TestGateBackendCutAtEveryLineInBubble(t *testing.T) {
	const inputs = 3 * 8 // three chunks of baseConfig's
	// A small-state benchmark and a tracker: under -race every benchmark
	// would take minutes.
	for _, name := range []string{"streamcluster", "facetrack"} {
		body := ndjsonBody(t, name, sessionInputs(t, name, inputs))
		type result struct {
			got, want                         []string
			fired                             bool
			ckpts, outputs, lines             int
			migrations, reroutes, backendErrs int64
		}
		// session runs body through a gateway in front of a tapped b0 and
		// a plain b1, cutting b0 after its at-th line (at < 0: never).
		session := func(at int) result {
			res := make(chan result, 1)
			inBubble(func(n *memNet) {
				_, want, _, _ := postSessionVia(t, n.client(), n.serve("direct", serve.New(baseConfig(), serve.Options{}).Handler()), name, body)
				tap := &ckptTap{at: at, cut: func() { n.cut("b0") }}
				reg := cluster.NewRegistry(
					cluster.Backend{ID: "b0", Addr: n.serve("b0", tap.handler(serve.New(baseConfig(), serve.Options{}).Handler()))},
					cluster.Backend{ID: "b1", Addr: n.serve("b1", serve.New(baseConfig(), serve.Options{}).Handler())},
				)
				g := newGateway(reg)
				g.migrate, g.ckptEvery, g.client = true, 1, n.client()
				gate := n.serve("gate", g.handler())
				client := n.client()
				defer client.CloseIdleConnections()
				defer g.client.CloseIdleConnections()

				var got []string
				resp, err := client.Post(gate+"/v1/stream/"+name, "application/x-ndjson", bytes.NewReader(body))
				if err != nil {
					t.Error(err)
				} else {
					sc := bufio.NewScanner(resp.Body)
					sc.Buffer(make([]byte, 0, 64<<10), 8<<20)
					for sc.Scan() {
						got = append(got, sc.Text())
					}
					resp.Body.Close()
				}
				synctest.Wait()
				tap.mu.Lock()
				defer tap.mu.Unlock()
				res <- result{got, want, tap.fired, tap.ckpts, tap.outputs, tap.seen,
					g.met.Migrations.Load(), g.met.Reroutes.Load(), g.met.BackendErrors.Load()}
			})
			return <-res
		}

		whole := session(-1)
		if whole.fired || whole.migrations+whole.reroutes+whole.backendErrs != 0 || !sameOutputs(whole.got, whole.want) {
			t.Fatalf("%s uncut: migrations=%d reroutes=%d backend_errors=%d, outputs match %v; want 0s and true",
				name, whole.migrations, whole.reroutes, whole.backendErrs, sameOutputs(whole.got, whole.want))
		}
		for k := 0; k <= whole.lines; k++ {
			r := session(k)
			var ok bool
			var outcome string
			switch {
			case !r.fired: // this run wrote fewer lines than the uncut one
				outcome, ok = "uncut", r.migrations+r.reroutes+r.backendErrs == 0 && sameOutputs(r.got, r.want)
			case k == whole.lines: // the cut came after the trailer: the session was over
				outcome, ok = "done", r.migrations+r.reroutes+r.backendErrs == 0 && sameOutputs(r.got, r.want)
			case r.ckpts > 0:
				outcome, ok = "resumed", r.migrations == 1 && r.reroutes == 0 && r.backendErrs == 1 && sameOutputs(r.got, r.want)
			case r.outputs == 0:
				outcome, ok = "re-routed", r.migrations == 0 && r.reroutes == 1 && r.backendErrs == 1 && sameOutputs(r.got, r.want)
			default:
				outcome, ok = "truncated", r.migrations == 0 && r.reroutes == 0 && r.backendErrs == 1 &&
					len(r.got) == r.outputs && slices.Equal(r.got, r.want[:r.outputs])
			}
			if !ok {
				t.Errorf("%s cut after line %d of %d (%d #ckpt, %d outputs before it), %s: migrations=%d reroutes=%d backend_errors=%d, %d client lines for %d outputs",
					name, k, whole.lines, r.ckpts, r.outputs, outcome, r.migrations, r.reroutes, r.backendErrs, len(r.got), len(r.want))
			}
		}
	}
}
