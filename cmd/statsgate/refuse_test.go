package main

import (
	"bufio"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"
	"time"

	"gostats/internal/cluster"
	"gostats/internal/serve"
)

// openPost starts a POST whose body is sent and then held open — a slow
// uploader — and delivers the response once its status line arrives. The
// body stays open until the test ends or closes the returned writer.
func openPost(t *testing.T, url string, body []byte) (*io.PipeWriter, <-chan answer) {
	t.Helper()
	pr, pw := io.Pipe()
	t.Cleanup(func() { pw.Close() })
	req, err := http.NewRequest(http.MethodPost, url, pr)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/x-ndjson")
	go pw.Write(body)
	got := make(chan answer, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		got <- answer{resp, err}
	}()
	return pw, got
}

type answer struct {
	resp *http.Response
	err  error
}

// TestGateRefusalReachesStreamingClient: the gateway's own refusals —
// draining, and the 429 when every backend sheds — must reach a client
// that holds its request body open, and the handler must return without
// waiting for that body.
func TestGateRefusalReachesStreamingClient(t *testing.T) {
	line := ndjsonBody(t, "facetrack", sessionInputs(t, "facetrack", 1))
	cases := []struct {
		name   string
		opt    serve.Options
		before func(t *testing.T, g *gateway, backend string)
		want   int
	}{
		{name: "draining", want: http.StatusServiceUnavailable,
			before: func(_ *testing.T, g *gateway, _ string) { g.startDrain() }},
		{name: "capacity", opt: serve.Options{MaxSessions: 1}, want: http.StatusTooManyRequests,
			before: func(t *testing.T, _ *gateway, backend string) { // fill the only backend
				holdSession(t, backend)
				waitFor(t, "b0 slot held", func() bool { return activeSessions(t, backend) == 1 })
			}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, ts0 := newBackend(t, tc.opt)
			g := newGateway(cluster.NewRegistry(cluster.Backend{ID: "b0", Addr: ts0.URL}))
			h := g.handler()
			returned := make(chan struct{}, 1)
			gts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				h.ServeHTTP(w, r)
				returned <- struct{}{}
			}))
			t.Cleanup(func() {
				gts.Close()
				g.client.CloseIdleConnections()
			})
			tc.before(t, g, ts0.URL)

			_, got := openPost(t, gts.URL+"/v1/stream/facetrack", line)
			select {
			case a := <-got:
				if a.err != nil {
					t.Fatal(a.err)
				}
				a.resp.Body.Close()
				if a.resp.StatusCode != tc.want {
					t.Fatalf("status %d, want %d", a.resp.StatusCode, tc.want)
				}
				if ra := a.resp.Header.Get("Retry-After"); tc.want == http.StatusTooManyRequests {
					if secs, err := strconv.Atoi(ra); err != nil || secs < 1 {
						t.Fatalf("429 Retry-After = %q, want integer >= 1", ra)
					}
				}
			case <-time.After(time.Second):
				t.Fatalf("no %d within 1s: the refusal is stuck behind the open request body", tc.want)
			}
			select {
			case <-returned:
			case <-time.After(time.Second):
				t.Fatal("handler still running 1s after refusing, with the client body open")
			}
		})
	}
}

// TestGateRefusedBackendReroutesStreamingClient: the first backend
// round-robin picks is draining and sheds while the client is still
// uploading. The shed must come back through the open body and the
// session must be flowing from the second backend without the client
// sending another byte — then finish byte-identical to a direct run.
func TestGateRefusedBackendReroutesStreamingClient(t *testing.T) {
	b0, ts0 := newBackend(t, serve.Options{})
	_, ts1 := newBackend(t, serve.Options{})
	g, _, gts := newGate(t, ts0.URL, ts1.URL)
	b0.StartDrain() // no probe round: the registry still offers b0, first

	body := ndjsonBody(t, "facetrack", sessionInputs(t, "facetrack", 24))
	_, want, _, _ := postSession(t, ts1.URL, "facetrack", body)

	pw, got := openPost(t, gts.URL+"/v1/stream/facetrack", body)
	var resp *http.Response
	select {
	case a := <-got:
		if a.err != nil {
			t.Fatal(a.err)
		}
		resp = a.resp
	case <-time.After(time.Second):
		t.Fatal("no response within 1s: b0's shed is stuck behind the open request body")
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, want 200 from b1", resp.StatusCode)
	}
	if n := g.met.Reroutes.Load(); n != 1 {
		t.Fatalf("reroutes = %d, want 1", n)
	}

	// Only now does the client finish its upload.
	pw.Close()
	var lines []string
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 8<<20)
	for sc.Scan() {
		lines = append(lines, sc.Text())
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(lines) != len(want)+1 {
		t.Fatalf("%d lines, want %d outputs + trailer", len(lines), len(want))
	}
	for i := range want {
		if lines[i] != want[i] {
			t.Fatalf("line %d differs after re-route:\n got %s\nwant %s", i, lines[i], want[i])
		}
	}
}

// TestSoonestRetryAfter: the cluster-full 429 carries the smallest hint
// any backend offered, and 1 when none offered one.
func TestSoonestRetryAfter(t *testing.T) {
	for _, tc := range []struct {
		hints []int
		want  int
	}{
		{nil, 1},
		{[]int{5}, 5},
		{[]int{1, 3}, 1},
		{[]int{2, 1, 4}, 1},
	} {
		if got := soonest(tc.hints); got != tc.want {
			t.Errorf("soonest(%v) = %d, want %d", tc.hints, got, tc.want)
		}
	}
}
