package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"gostats/internal/critpath"
	"gostats/internal/engine"
)

// TestSessionAttribution posts one session with attrib=1 and checks the
// trailer carries a populated six-category loss breakdown: the same
// committed outputs as an unattributed session, plus an attribution block
// whose categories sum to the total and whose ideal reflects workers+1
// cores (the pool plus the commit frontier). The recorder joins the
// server's sinks, it does not replace them: on a server whose base config
// carries a Sink, that sink sees the attributed session too.
func TestSessionAttribution(t *testing.T) {
	cfg := baseConfig()
	ts := httptest.NewServer(New(cfg, Options{}).Handler())
	defer ts.Close()

	const name = "facetrack"
	inputs := sessionInputs(t, name, 64)
	body := ndjsonBody(t, name, inputs)

	plain, _ := runSession(t, ts.URL, name, body)
	attributedSession(t, ts.URL, name, body, plain, cfg.Workers)

	// The plain session must not pay for attribution it did not ask for.
	_, plainTr := runSession(t, ts.URL, name, body)
	if plainTr.Attribution != nil {
		t.Fatal("unattributed session trailer carries an attribution block")
	}

	var ctr engine.Counters
	cfg.Sink = &ctr
	tapped := httptest.NewServer(New(cfg, Options{}).Handler())
	defer tapped.Close()
	attributedSession(t, tapped.URL, name, body, plain, cfg.Workers)
	if got := ctr.Snapshot(); got.Ingested != int64(len(inputs)) || got.Sessions != 1 {
		t.Fatalf("base sink saw %d inputs of %d session(s) from the attributed session, want %d of 1",
			got.Ingested, got.Sessions, len(inputs))
	}
}

// attributedSession posts body with attrib=1 and checks the response: the
// output lines of plain, then a clean trailer with an attribution block.
func attributedSession(t *testing.T, url, name string, body []byte, plain []string, workers int) {
	t.Helper()
	resp, err := http.Post(url+"/v1/stream/"+name+"?attrib=1",
		"application/x-ndjson", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("status %d: %s", resp.StatusCode, b)
	}
	var lines []string
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 8<<20)
	for sc.Scan() {
		lines = append(lines, sc.Text())
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(lines) < 2 {
		t.Fatalf("short response: %q", lines)
	}
	var tr Trailer
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &tr); err != nil {
		t.Fatalf("bad trailer %q: %v", lines[len(lines)-1], err)
	}
	outs := lines[:len(lines)-1]

	if !tr.Done || tr.Error != "" {
		t.Fatalf("trailer not clean: %+v", tr)
	}
	if len(outs) != len(plain) {
		t.Fatalf("attributed session emitted %d outputs, plain session %d",
			len(outs), len(plain))
	}
	for i := range plain {
		if outs[i] != plain[i] {
			t.Fatalf("output %d differs with attrib=1:\n got  %s\n want %s",
				i, outs[i], plain[i])
		}
	}

	a := tr.Attribution
	if a == nil {
		t.Fatal("trailer has no attribution block")
	}
	if a.Error != "" {
		t.Fatalf("attribution error: %s", a.Error)
	}
	wantIdeal := float64(workers + 1)
	if a.Ideal != wantIdeal {
		t.Fatalf("ideal = %v, want %v (workers+frontier)", a.Ideal, wantIdeal)
	}
	if a.Measured <= 0 {
		t.Fatalf("measured speedup = %v, want > 0", a.Measured)
	}
	if len(a.LostPct) != critpath.NumLosses {
		t.Fatalf("lostPct has %d categories, want %d: %v",
			len(a.LostPct), critpath.NumLosses, a.LostPct)
	}
	var sum float64
	for l := 0; l < critpath.NumLosses; l++ {
		pct, ok := a.LostPct[critpath.Loss(l).String()]
		if !ok {
			t.Fatalf("lostPct missing category %s", critpath.Loss(l))
		}
		if pct < 0 {
			t.Fatalf("lostPct[%s] = %v", critpath.Loss(l), pct)
		}
		sum += pct
	}
	if d := sum - a.TotalLostPct; d > 1e-6 || d < -1e-6 {
		t.Fatalf("categories sum to %v, totalLostPct = %v", sum, a.TotalLostPct)
	}
}
