package cluster

import (
	"log"
	"net/http"
	"sync/atomic"
)

// Front is the HTTP shell statsserved and statsgate share around their
// routes: GET /healthz liveness, GET /readyz routability, and panic
// recovery as the outermost middleware. The zero value is ready; Name
// prefixes its log lines.
type Front struct {
	Name     string
	draining atomic.Bool
	panics   atomic.Int64
}

// Handler registers /healthz and /readyz on mux and returns mux wrapped
// in panic recovery: a panic escaping any handler is counted and
// answered with a 500 instead of tearing down the connection-serving
// goroutine silently. http.ErrAbortHandler is the net/http-sanctioned
// way to abort a response and is re-raised.
func (f *Front) Handler(mux *http.ServeMux) http.Handler {
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		reply(w, http.StatusOK, "ok")
	})
	// Routability, distinct from liveness: a draining process is still
	// alive (don't restart it) but must not receive new sessions.
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, _ *http.Request) {
		if f.Draining() {
			reply(w, http.StatusServiceUnavailable, "draining")
			return
		}
		reply(w, http.StatusOK, "ready")
	})
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			v := recover()
			if v == nil {
				return
			}
			if v == http.ErrAbortHandler {
				panic(v)
			}
			f.panics.Add(1)
			log.Printf("%s: panic in %s %s: %v", f.Name, r.Method, r.URL.Path, v)
			// Best effort: if the response has started this write fails,
			// and net/http closes the connection mid-body, which a
			// streaming client sees as a truncated session (no trailer).
			http.Error(w, "internal error", http.StatusInternalServerError)
		}()
		mux.ServeHTTP(w, r)
	})
}

// reply writes a one-line plain-text answer.
func reply(w http.ResponseWriter, status int, text string) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.WriteHeader(status)
	w.Write([]byte(text + "\n"))
}

// StartDrain turns /readyz not-ready for good.
func (f *Front) StartDrain() { f.draining.Store(true) }

// Draining reports whether StartDrain has run.
func (f *Front) Draining() bool { return f.draining.Load() }

// Panics returns the handler panics recovered so far.
func (f *Front) Panics() int64 { return f.panics.Load() }
