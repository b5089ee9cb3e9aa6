package serve

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"runtime/debug"
	"slices"
	"testing"

	"gostats/internal/engine"
)

// heapDelta returns the heap objects and bytes f allocates, on any
// goroutine, after the garbage collector has been made to settle.
func heapDelta(f func()) (objects, bytes uint64) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs, after.TotalAlloc - before.TotalAlloc
}

// raceDetector reports whether the test binary was built with -race.
func raceDetector() bool {
	bi, _ := debug.ReadBuildInfo()
	return bi != nil && slices.Contains(bi.Settings, debug.BuildSetting{Key: "-race", Value: "true"})
}

// TestServedLineAllocations pins what one more NDJSON line costs a served
// streamcluster session, end to end through Handler on a loopback
// connection: the line scanned, decoded, run through the pipeline with
// its share of the engine's per-chunk work, committed, encoded and
// written, and the client reading it. A short and a long session differ
// by whole chunks of lines; the difference of their heap deltas over the
// extra lines is the figure, so what a session costs once (its pipeline,
// its request, its trailer) cancels. The noise is one-sided — a state or
// a buffer allocated while its pool happened to be empty, a few KB at a
// time — so the least of the rounds is taken for each length, and the
// long session runs nearly all of the benchmark's 2800 native inputs, so
// what noise survives the minimum is spread over 2400 lines.
//
// A line decodes into the input its record slot retires and its output is
// encoded into the session's one line buffer, which leaves the decoded
// Block's interface box (128 bytes), the output's (8) and the engine's
// share of its chunk. Twelve runs at these settings read 2.42 objects and
// 145–150 bytes a line (ten under the race detector, 2.44–2.45 and
// 151–174); the budgets are those maxima plus 0.08 objects and 10 bytes
// (plus 0.15 and 26 under the race detector). With 1024 extra lines and
// the least of four rounds the bytes scattered over 112–157. A line that
// decoded into fresh Points (320 bytes) and encoded into a line of its
// own (32 bytes) measured 4.66 objects and 468–502 bytes.
func TestServedLineAllocations(t *testing.T) {
	const (
		name   = "streamcluster"
		chunk  = 16
		short  = 20 * chunk  // lines
		extra  = 150 * chunk // lines the long session adds
		rounds = 10
	)
	objBudget, byteBudget := 2.5, 160.0
	if raceDetector() {
		objBudget, byteBudget = 2.6, 200
	}
	cfg := engine.StreamConfig{ChunkSize: chunk, Lookback: 4, ExtraStates: 1, Workers: 2, Seed: 3}
	ts := httptest.NewServer(New(cfg, Options{}).Handler())
	defer ts.Close()
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1}}
	defer client.CloseIdleConnections()

	inputs := sessionInputs(t, name, short+extra)
	body := ndjsonBody(t, name, inputs)
	shortBody := body[:bytes.Index(body, ndjsonBody(t, name, inputs[short:short+1]))]
	session := func(b []byte) {
		resp, err := client.Post(ts.URL+"/v1/stream/"+name, "application/x-ndjson", bytes.NewReader(b))
		if err != nil {
			t.Fatal(err)
		}
		n, err := io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK || n == 0 {
			t.Fatalf("session: status %d, %d bytes, %v", resp.StatusCode, n, err)
		}
	}
	session(body) // warm: the connection, the server's pools, the allocator's spans
	least := func(b []byte) (objects, bytes uint64) {
		objects, bytes = heapDelta(func() { session(b) })
		for r := 1; r < rounds; r++ {
			o, by := heapDelta(func() { session(b) })
			objects, bytes = min(objects, o), min(bytes, by)
		}
		return objects, bytes
	}
	shortObjects, shortBytes := least(shortBody)
	longObjects, longBytes := least(body)
	perObjects := (float64(longObjects) - float64(shortObjects)) / extra
	perBytes := (float64(longBytes) - float64(shortBytes)) / extra
	t.Logf("%.2f heap objects and %.0f bytes per served line (%d vs %d lines)", perObjects, perBytes, short+extra, short)
	if perObjects > objBudget {
		t.Errorf("%.2f heap objects per served line, want at most %.1f", perObjects, objBudget)
	}
	if perBytes > byteBudget {
		t.Errorf("%.0f heap bytes per served line, want at most %.0f", perBytes, byteBudget)
	}
}
