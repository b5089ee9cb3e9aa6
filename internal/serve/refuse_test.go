package serve

import (
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"
)

// TestRefusalReachesStreamingClient: every refusal decided before the
// first output byte must reach a client that has sent one line and is
// holding its request body open — the shape of a gateway relaying a slow
// uploader — and the handler must return without waiting for that body.
// net/http's pre-response drain would otherwise park the status line
// behind the unread body until the client gives up.
func TestRefusalReachesStreamingClient(t *testing.T) {
	line := string(ndjsonBody(t, "facetrack", sessionInputs(t, "facetrack", 1)))
	cases := []struct {
		name   string
		opt    Options
		path   string
		body   string
		before func(t *testing.T, app *Server, url string)
		want   int
	}{
		{name: "draining", path: "/v1/stream/facetrack", body: line, want: http.StatusServiceUnavailable,
			before: func(_ *testing.T, app *Server, _ string) { app.StartDrain() }},
		{name: "session cap", opt: Options{MaxSessions: 1}, path: "/v1/stream/facetrack", body: line,
			want: http.StatusTooManyRequests, before: holdSlot},
		{name: "unknown benchmark", path: "/v1/stream/nosuch", body: line, want: http.StatusNotFound},
		{name: "bad query", path: "/v1/stream/facetrack?chunk=bogus", body: line, want: http.StatusBadRequest},
		{name: "bad resume prologue", path: "/v1/stream/streamcluster?resume=1", body: line, want: http.StatusBadRequest},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			baseline := runtime.NumGoroutine()
			app := New(baseConfig(), tc.opt)
			h := app.Handler()
			returned := make(chan struct{}, 1)
			ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				h.ServeHTTP(w, r)
				if r.URL.RawQuery != "held=1" {
					returned <- struct{}{}
				}
			}))
			client := &http.Client{}
			if tc.before != nil {
				tc.before(t, app, ts.URL)
			}

			pr, pw := io.Pipe()
			t.Cleanup(func() { pw.Close() })
			req, err := http.NewRequest(http.MethodPost, ts.URL+tc.path, pr)
			if err != nil {
				t.Fatal(err)
			}
			req.Header.Set("Content-Type", "application/x-ndjson")
			go pw.Write([]byte(tc.body)) // one line, then the body stays open

			type answer struct {
				status int
				err    error
			}
			got := make(chan answer, 1)
			go func() {
				resp, err := client.Do(req)
				if err != nil {
					got <- answer{err: err}
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				got <- answer{status: resp.StatusCode}
			}()
			select {
			case a := <-got:
				if a.err != nil || a.status != tc.want {
					t.Fatalf("status %d (err %v), want %d", a.status, a.err, tc.want)
				}
			case <-time.After(time.Second):
				t.Fatalf("no %d within 1s: the refusal is stuck behind the open request body", tc.want)
			}
			select {
			case <-returned:
			case <-time.After(time.Second):
				t.Fatal("handler still running 1s after refusing, with the client body open")
			}

			pw.Close()
			ts.CloseClientConnections() // releases holdSlot's occupant, if any
			ts.Close()
			client.CloseIdleConnections()
			http.DefaultClient.CloseIdleConnections()
			checkGoroutines(t, baseline)
		})
	}
}

// holdSlot occupies the server's only session slot with a streaming
// session whose body never ends.
func holdSlot(t *testing.T, app *Server, url string) {
	t.Helper()
	pr, pw := io.Pipe()
	t.Cleanup(func() { pw.Close() })
	go func() {
		resp, err := http.Post(url+"/v1/stream/facetrack?held=1", "application/x-ndjson", pr)
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}()
	go pw.Write([]byte(strings.Repeat(" \n", 4)))
	deadline := time.Now().Add(5 * time.Second)
	for len(app.sem) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("slot never taken")
		}
		time.Sleep(5 * time.Millisecond)
	}
}
