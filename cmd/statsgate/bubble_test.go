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
	"context"
	"encoding/json"
	"errors"
	"io"
	"net"
	"net/http"
	"strings"
	"sync"
	"testing"
	"testing/synctest"
	"time"

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
	host  string
	conns chan net.Conn
	done  chan struct{}
	once  sync.Once
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
		return client, nil
	case <-l.done:
		return nil, errors.New("memnet: " + addr + " is closed")
	case <-ctx.Done():
		return nil, ctx.Err()
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
