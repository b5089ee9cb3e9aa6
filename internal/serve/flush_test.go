package serve

import (
	"bufio"
	"io"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

// flushCounter counts the flushes a session asks of its connection.
// http.ResponseController finds Flush here and everything else (full
// duplex, read deadlines) through Unwrap.
type flushCounter struct {
	http.ResponseWriter
	n *atomic.Int64
}

func (f flushCounter) Flush() {
	f.n.Add(1)
	f.ResponseWriter.(http.Flusher).Flush()
}

func (f flushCounter) Unwrap() http.ResponseWriter { return f.ResponseWriter }

// TestOutputsFlushWhenIdle holds the pump to both halves of its flush
// rule. An interactive client — some lines sent, the body held open —
// must see the outputs those lines commit without sending anything more:
// the pump flushes before it blocks. And a client whose whole body is
// already there must not pay a write per line: outputs that are ready
// together leave together.
func TestOutputsFlushWhenIdle(t *testing.T) {
	const name = "streamcluster"
	cfg := baseConfig()
	var flushes atomic.Int64
	h := New(cfg, Options{}).Handler()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		h.ServeHTTP(flushCounter{w, &flushes}, r)
	}))
	defer ts.Close()

	// One window: as many chunks as the pipeline has workers. The last
	// chunk may wait for its successor before it commits; the first
	// cannot, so its outputs are owed at once.
	inputs := sessionInputs(t, name, cfg.Workers*cfg.ChunkSize)
	want := wantLines(t, name, cfg, inputs)

	pr, pw := io.Pipe()
	defer pw.Close()
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/stream/"+name, pr)
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
			t.Fatalf("%d of the first chunk's %d outputs within 1s of sending a window: the rest sit unflushed behind an idle pipeline", i, cfg.ChunkSize)
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
	// first output is out, so commits arrive a chunk at a time.
	inputs = sessionInputs(t, name, 32*cfg.ChunkSize)
	flushes.Store(0)
	outs, tr := runSession(t, ts.URL, name, ndjsonBody(t, name, inputs))
	if !tr.Done || len(outs) != len(inputs) {
		t.Fatalf("buffered session: %d outputs, trailer %+v", len(outs), tr)
	}
	if got := flushes.Load(); got == 0 || got >= int64(len(outs)) {
		t.Fatalf("%d flushes for %d output lines: want at least one and fewer than one a line", got, len(outs))
	}
}
