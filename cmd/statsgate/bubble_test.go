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
// drains and the stack settles again, it has moved to b1, exactly once.
// The client's bytes are the same as a session that never moved.
func TestGateMigrateMidSessionInBubble(t *testing.T) {
	inBubble(func(n *memNet) {
		const name = "dedupstream"
		direct := n.serve("direct", serve.New(baseConfig(), serve.Options{}).Handler())
		b0 := serve.New(baseConfig(), serve.Options{})
		reg := cluster.NewRegistry(
			cluster.Backend{ID: "b0", Addr: n.serve("b0", b0.Handler())},
			cluster.Backend{ID: "b1", Addr: n.serve("b1", serve.New(baseConfig(), serve.Options{}).Handler())},
		)
		g := newGateway(reg, cluster.RoundRobin{}, cluster.NewTokenBucket(0, 0))
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

		// A halted backend may hold its response open until the gateway
		// closes the request body or serve's one-second halt grace runs
		// out, while the gateway waits for the halt trailer that ends it.
		// The bubble's clock passes that second at once.
		b0.StartDrain()
		time.Sleep(2 * time.Second)
		synctest.Wait()
		if got := g.met.Migrations.Load(); got != 1 {
			t.Fatalf("drained b0 settled with %d migrations, want 1", got)
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
	})
}
