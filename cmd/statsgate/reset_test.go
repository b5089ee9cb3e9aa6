//go:build goexperiment.synctest

package main

import (
	"io"
	"net"
	"net/http"
	"os"
	"sync"
	"syscall"
	"testing"
	"testing/synctest"
	"time"

	"gostats/internal/cluster"
	"gostats/internal/serve"
)

// tcpLatency and tcpWindow shape a tcpPipe: how long bytes take to reach
// the other end, and how many bytes may be on the way or unread there
// before a writer waits, a socket buffer's worth.
const (
	tcpLatency = time.Millisecond
	tcpWindow  = 64 << 10
)

// tcpPipe returns the two ends of an in-memory connection that behaves,
// where a refused upload needs it to, like TCP rather than like net.Pipe:
// a write returns once its bytes are on the way, and they arrive at the
// other end tcpLatency later, in order. A read past its deadline fails
// whatever has arrived, as Go's poller fails it. An end that closes with bytes it
// has not read — arrived, or still on the way — resets the connection:
// when the reset arrives, the other end's writes fail and what it had
// received but not read is lost, as many TCP stacks lose it. An end that
// closes having read everything sends a FIN, which the other end reads
// as EOF after the bytes before it. Every wait is on a sync.Cond or a
// bubble timer, which a synctest bubble counts as durably blocked.
func tcpPipe(client, server memAddr) (net.Conn, net.Conn) {
	up, down := newTCPHalf(), newTCPHalf()
	return &tcpConn{in: down, out: up, local: client, remote: server},
		&tcpConn{in: up, out: down, local: server, remote: client}
}

// tcpHalf is one direction of a tcpPipe.
type tcpHalf struct {
	mu       sync.Mutex
	cond     *sync.Cond
	flight   []tcpSegment // sent, not yet arrived, in order
	buf      []byte       // arrived, not yet read
	pending  int          // bytes in flight and in buf: the writer's window
	fin      bool         // the writer's FIN arrived
	reset    bool         // a reset arrived: reads and writes fail
	rclosed  bool         // the reading end closed
	wclosed  bool         // the writing end closed
	deadline time.Time    // the reader's
}

// tcpSegment is what a write, or the close after it, puts on the way.
type tcpSegment struct {
	at    time.Time
	data  []byte
	fin   bool
	reset bool
}

func newTCPHalf() *tcpHalf {
	h := &tcpHalf{}
	h.cond = sync.NewCond(&h.mu)
	return h
}

// send puts s on the way; h.mu is held.
func (h *tcpHalf) send(s tcpSegment) {
	s.at = time.Now().Add(tcpLatency)
	h.flight = append(h.flight, s)
	time.AfterFunc(tcpLatency, h.arrive)
}

// arrive takes in every segment due by now, in the order they were sent.
func (h *tcpHalf) arrive() {
	h.mu.Lock()
	defer h.mu.Unlock()
	now := time.Now()
	for len(h.flight) > 0 && !h.flight[0].at.After(now) {
		s := h.flight[0]
		h.flight = h.flight[1:]
		switch {
		case s.reset:
			h.reset, h.buf, h.pending = true, nil, h.pending-len(h.buf)
		case s.fin:
			h.fin = true
		case h.reset || h.rclosed:
			h.pending -= len(s.data)
		default:
			h.buf = append(h.buf, s.data...)
		}
	}
	h.cond.Broadcast()
}

// wake wakes the reader when its deadline passes.
func (h *tcpHalf) wake() {
	h.mu.Lock()
	h.cond.Broadcast()
	h.mu.Unlock()
}

type tcpConn struct {
	in, out       *tcpHalf
	local, remote memAddr
	once          sync.Once
}

func (c *tcpConn) Read(p []byte) (int, error) {
	h := c.in
	h.mu.Lock()
	defer h.mu.Unlock()
	for {
		switch {
		case h.rclosed:
			return 0, net.ErrClosed
		case h.reset:
			return 0, syscall.ECONNRESET
		case !h.deadline.IsZero() && !time.Now().Before(h.deadline):
			return 0, os.ErrDeadlineExceeded
		case len(h.buf) > 0:
			n := copy(p, h.buf)
			h.buf, h.pending = h.buf[n:], h.pending-n
			h.cond.Broadcast() // room in the window
			return n, nil
		case h.fin:
			return 0, io.EOF
		}
		h.cond.Wait()
	}
}

func (c *tcpConn) Write(p []byte) (int, error) {
	h := c.out
	h.mu.Lock()
	defer h.mu.Unlock()
	n := 0
	for n < len(p) {
		switch {
		case h.wclosed:
			return n, net.ErrClosed
		case h.reset:
			return n, syscall.ECONNRESET
		case h.pending >= tcpWindow:
			h.cond.Wait()
			continue
		}
		k := min(len(p)-n, tcpWindow-h.pending)
		h.pending += k
		h.send(tcpSegment{data: append([]byte(nil), p[n:n+k]...)})
		n += k
	}
	return n, nil
}

// Close resets the connection if bytes to this end are unread, and
// sends a FIN otherwise.
func (c *tcpConn) Close() error {
	c.once.Do(func() {
		c.in.mu.Lock()
		unread := c.in.pending > 0
		c.in.rclosed = true
		c.in.cond.Broadcast()
		c.in.mu.Unlock()
		c.out.mu.Lock()
		c.out.wclosed = true
		c.out.send(tcpSegment{fin: !unread, reset: unread})
		c.out.cond.Broadcast()
		c.out.mu.Unlock()
		if unread {
			// The reset reaches the peer's writes too.
			c.in.mu.Lock()
			c.in.send(tcpSegment{reset: true})
			c.in.mu.Unlock()
		}
	})
	return nil
}

func (c *tcpConn) SetReadDeadline(t time.Time) error {
	h := c.in
	h.mu.Lock()
	h.deadline = t
	h.cond.Broadcast()
	h.mu.Unlock()
	if d := time.Until(t); !t.IsZero() && d > 0 {
		time.AfterFunc(d, h.wake)
	}
	return nil
}

// A write waits only for room in the window, which a reset or a close
// also ends; nothing in these tests sets a write deadline.
func (c *tcpConn) SetDeadline(t time.Time) error    { return c.SetReadDeadline(t) }
func (c *tcpConn) SetWriteDeadline(time.Time) error { return nil }
func (c *tcpConn) LocalAddr() net.Addr              { return c.local }
func (c *tcpConn) RemoteAddr() net.Addr             { return c.remote }

// TestGateShedOverResetInBubble is the shed TestGateReroutesShedSession
// re-routes, over connections that reset like TCP: b0, its one slot
// held, refuses the gateway's session with a 429 while the gateway is
// still uploading the replayed body. A backend that closed the
// connection at once, under those bytes, reset it; the reset reached the
// gateway with the 429 unread, its body write failed, and Go's transport
// returned that write error in place of the refusal: the gateway counted
// a backend error, and neither marked b0 shed nor kept its Retry-After.
// In a bubble the reset arrives with the status, deterministically, and
// takes it with it; a backend that goes on taking the body until the
// gateway closes lets the 429 through.
func TestGateShedOverResetInBubble(t *testing.T) {
	inBubble(func(n *memNet) {
		n.tcp = true
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

		// A body the gateway sends whole before b0 answers, and more of it
		// than the 4 KB net/http reads ahead with the request's head: b0
		// refuses with most of it unread.
		body := ndjsonBody(t, name, sessionInputs(t, name, 40))
		if len(body) <= 8<<10 || len(body) >= tcpWindow {
			t.Fatalf("a %d-byte body: want over 8 KB and under a window", len(body))
		}
		_, want, _, _ := postSessionVia(t, client, b1, name, body)
		status, lines, tr, _ := postSessionVia(t, client, gate, name, body)
		if status != http.StatusOK || !tr.Done || tr.Error != "" {
			t.Fatalf("status %d trailer %+v", status, tr)
		}
		if len(lines) != len(want) {
			t.Fatalf("%d lines, want %d", len(lines), len(want))
		}
		for j := range lines {
			if lines[j] != want[j] {
				t.Fatalf("line %d differs after re-route:\n got %s\nwant %s", j, lines[j], want[j])
			}
		}
		snaps := reg.Snapshots()
		if rer, errs := g.met.Reroutes.Load(), g.met.BackendErrors.Load(); rer != 1 || errs != 0 || snaps[0].Shed != 1 || snaps[1].Routed != 1 {
			t.Fatalf("reroutes=%d backend_errors=%d b0 shed=%d b1 routed=%d, want 1, 0, 1 and 1",
				rer, errs, snaps[0].Shed, snaps[1].Routed)
		}
	})
}
