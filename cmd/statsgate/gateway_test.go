package main

// End-to-end gateway tests: real statsserved backends (internal/serve,
// in-process) behind a real statsgate handler, talking HTTP through
// httptest listeners. The load-bearing assertion everywhere is the
// STATS determinism contract surviving the extra hop: committed NDJSON
// output lines through the gateway are byte-identical to a direct
// statsserved run of the same session, whichever backend round-robin
// picked and however many re-routes happened on the way.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gostats/internal/bench"
	_ "gostats/internal/bench/all"
	"gostats/internal/cluster"
	"gostats/internal/engine"
	"gostats/internal/rng"
	"gostats/internal/serve"
)

func baseConfig() engine.StreamConfig {
	return engine.StreamConfig{ChunkSize: 8, Lookback: 3, ExtraStates: 1, Workers: 3, Seed: 7}
}

// newBackend starts one in-process statsserved with the shared pipeline
// config and the given limits.
func newBackend(t *testing.T, opt serve.Options) (*serve.Server, *httptest.Server) {
	t.Helper()
	app := serve.New(baseConfig(), opt)
	ts := httptest.NewServer(app.Handler())
	t.Cleanup(ts.Close)
	return app, ts
}

// newGate fronts the given backend URLs with a statsgate handler. IDs
// are b0, b1, ... in argument order.
func newGate(t *testing.T, addrs ...string) (*gateway, *cluster.Registry, *httptest.Server) {
	t.Helper()
	bs := make([]cluster.Backend, len(addrs))
	for i, a := range addrs {
		bs[i] = cluster.Backend{ID: fmt.Sprintf("b%d", i), Addr: a}
	}
	reg := cluster.NewRegistry(bs...)
	g := newGateway(reg)
	ts := httptest.NewServer(g.handler())
	t.Cleanup(func() {
		ts.Close()
		g.client.CloseIdleConnections()
	})
	return g, reg, ts
}

// sessionInputs truncates a benchmark's native inputs to n.
func sessionInputs(t *testing.T, name string, n int) []engine.Input {
	t.Helper()
	b, err := bench.New(name)
	if err != nil {
		t.Fatal(err)
	}
	inputs := b.Inputs(rng.New(1))
	if len(inputs) < n {
		t.Fatalf("%s: only %d native inputs, need %d", name, len(inputs), n)
	}
	return inputs[:n]
}

// ndjsonBody encodes inputs as a session request body.
func ndjsonBody(t *testing.T, name string, inputs []engine.Input) []byte {
	t.Helper()
	codec, err := bench.CodecFor(name)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	for _, in := range inputs {
		line, err := codec.EncodeInput(in)
		if err != nil {
			t.Fatal(err)
		}
		buf.Write(line)
		buf.WriteByte('\n')
	}
	return buf.Bytes()
}

// postSession POSTs one NDJSON session and returns the status, the
// output lines (trailer excluded), the parsed trailer, and the
// Retry-After header (set on sheds).
func postSession(t *testing.T, base, name string, body []byte) (int, []string, serve.Trailer, string) {
	t.Helper()
	return postSessionVia(t, http.DefaultClient, base, name, body)
}

// postSessionVia is postSession through the given client.
func postSessionVia(t *testing.T, client *http.Client, base, name string, body []byte) (int, []string, serve.Trailer, string) {
	t.Helper()
	resp, err := client.Post(base+"/v1/stream/"+name, "application/x-ndjson", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	retryAfter := resp.Header.Get("Retry-After")
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return resp.StatusCode, nil, serve.Trailer{}, retryAfter
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
	if len(lines) == 0 {
		t.Fatalf("session %s: empty response", name)
	}
	var tr serve.Trailer
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &tr); err != nil {
		t.Fatalf("session %s: bad trailer %q: %v", name, lines[len(lines)-1], err)
	}
	return resp.StatusCode, lines[: len(lines)-1 : len(lines)-1], tr, retryAfter
}

// holdSession occupies one backend session slot via an open streaming
// request until the returned release func is called.
func holdSession(t *testing.T, base string) func() {
	t.Helper()
	pr, pw := io.Pipe()
	req, err := http.NewRequest(http.MethodPost, base+"/v1/stream/facetrack", pr)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/x-ndjson")
	done := make(chan struct{})
	go func() {
		defer close(done)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()
	var once sync.Once
	release := func() {
		once.Do(func() {
			pw.Close()
			<-done
		})
	}
	t.Cleanup(release)
	return release
}

// waitFor polls cond until it holds or five seconds pass.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// scrape parses a /metrics page.
func scrape(t *testing.T, base string) cluster.BackendMetrics {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return cluster.ParseMetrics(string(raw))
}

// activeSessions scrapes a backend's active-session gauge.
func activeSessions(t *testing.T, base string) int {
	t.Helper()
	return int(scrape(t, base).Values["serve/gauge[active_sessions]"])
}

// TestGateProxiesDeterministically: under round-robin routing, concurrent
// sessions over three benchmarks through a two-backend gateway must
// return exactly the lines a direct statsserved run returns — the
// determinism invariant does not care which backend served a session or
// that a gateway relayed it.
func TestGateProxiesDeterministically(t *testing.T) {
	sessions := []struct {
		name string
		n    int
	}{
		{"facetrack", 60},
		{"streamcluster", 50},
		{"streamclassifier", 40},
	}
	_, direct := newBackend(t, serve.Options{})
	want := make(map[string][]string, len(sessions))
	for _, s := range sessions {
		status, lines, tr, _ := postSession(t, direct.URL, s.name, ndjsonBody(t, s.name, sessionInputs(t, s.name, s.n)))
		if status != http.StatusOK || !tr.Done || tr.Error != "" {
			t.Fatalf("direct %s: status %d trailer %+v", s.name, status, tr)
		}
		want[s.name] = lines
	}

	t.Run("roundrobin", func(t *testing.T) {
		_, ts0 := newBackend(t, serve.Options{})
		_, ts1 := newBackend(t, serve.Options{})
		_, reg, gts := newGate(t, ts0.URL, ts1.URL)

		const rounds = 2
		var wg sync.WaitGroup
		for round := 0; round < rounds; round++ {
			for _, s := range sessions {
				wg.Add(1)
				go func() {
					defer wg.Done()
					body := ndjsonBody(t, s.name, sessionInputs(t, s.name, s.n))
					status, lines, tr, _ := postSession(t, gts.URL, s.name, body)
					if status != http.StatusOK {
						t.Errorf("%s: status %d", s.name, status)
						return
					}
					if !tr.Done || tr.Error != "" {
						t.Errorf("%s: trailer %+v", s.name, tr)
					}
					if len(lines) != len(want[s.name]) {
						t.Errorf("%s: %d output lines, want %d", s.name, len(lines), len(want[s.name]))
						return
					}
					for i := range lines {
						if lines[i] != want[s.name][i] {
							t.Errorf("%s: line %d differs through gateway:\n got %s\nwant %s",
								s.name, i, lines[i], want[s.name][i])
							return
						}
					}
				}()
			}
		}
		wg.Wait()

		total := int64(rounds * len(sessions))
		if got := scrape(t, gts.URL).Values["gate/counter[sessions_routed]"]; got != total {
			t.Fatalf("gate routed %d sessions, want %d", got, total)
		}
		var routed int64
		for _, b := range reg.Snapshots() {
			routed += b.Routed
		}
		if routed != total {
			t.Fatalf("registry accounts %d routed sessions, want %d", routed, total)
		}
	})
}

// TestGateReroutesShedSession: a backend at its session cap answers 429
// (with a computed Retry-After) before any output byte; the
// gateway must replay the session to the other backend and still return
// byte-identical output.
func TestGateReroutesShedSession(t *testing.T) {
	_, ts0 := newBackend(t, serve.Options{MaxSessions: 1})
	_, ts1 := newBackend(t, serve.Options{})
	g, reg, gts := newGate(t, ts0.URL, ts1.URL)

	release := holdSession(t, ts0.URL)
	waitFor(t, "b0 slot held", func() bool { return activeSessions(t, ts0.URL) == 1 })

	// The saturated backend's own shed must carry a computed Retry-After.
	status, _, _, retryAfter := postSession(t, ts0.URL, "facetrack", nil)
	if status != http.StatusTooManyRequests {
		t.Fatalf("direct post to full backend: status %d, want 429", status)
	}
	if secs, err := strconv.Atoi(retryAfter); err != nil || secs < 1 {
		t.Fatalf("full backend Retry-After = %q, want integer >= 1", retryAfter)
	}

	inputs := sessionInputs(t, "facetrack", 40)
	body := ndjsonBody(t, "facetrack", inputs)
	_, want, _, _ := postSession(t, ts1.URL, "facetrack", body)

	// Round-robin alternates b0/b1 by session seq: of four sessions, two
	// pick the full backend first and must be re-routed.
	for i := 0; i < 4; i++ {
		status, lines, tr, _ := postSession(t, gts.URL, "facetrack", body)
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
	if got := g.met.Reroutes.Load(); got != 2 {
		t.Fatalf("reroutes = %d, want 2", got)
	}
	snaps := reg.Snapshots()
	if snaps[0].Shed != 2 || snaps[0].Routed != 0 {
		t.Fatalf("b0 shed=%d routed=%d, want shed=2 routed=0", snaps[0].Shed, snaps[0].Routed)
	}
	if snaps[1].Routed != 4 {
		t.Fatalf("b1 routed=%d, want 4", snaps[1].Routed)
	}
	release()
}

// TestGateShedsWhenClusterFull: when every backend refuses, the gateway
// sheds to the client with 429 and the soonest backend Retry-After hint.
func TestGateShedsWhenClusterFull(t *testing.T) {
	_, ts0 := newBackend(t, serve.Options{MaxSessions: 1})
	_, ts1 := newBackend(t, serve.Options{MaxSessions: 1})
	g, _, gts := newGate(t, ts0.URL, ts1.URL)

	holdSession(t, ts0.URL)
	holdSession(t, ts1.URL)
	waitFor(t, "both slots held", func() bool {
		return activeSessions(t, ts0.URL) == 1 && activeSessions(t, ts1.URL) == 1
	})

	status, _, _, retryAfter := postSession(t, gts.URL, "facetrack", nil)
	if status != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", status)
	}
	if secs, err := strconv.Atoi(retryAfter); err != nil || secs < 1 {
		t.Fatalf("Retry-After = %q, want integer >= 1", retryAfter)
	}
	if g.met.ShedCapacity.Load() != 1 || g.met.Reroutes.Load() != 2 {
		t.Fatalf("shed_capacity=%d reroutes=%d, want 1 and 2",
			g.met.ShedCapacity.Load(), g.met.Reroutes.Load())
	}
}

// TestGateDrainMidRun: a backend flips /readyz to draining while a
// session it serves is still streaming. After one probe round the
// gateway routes every new session to the healthy backend, and the
// in-flight session on the draining one runs to completion with
// byte-identical output.
func TestGateDrainMidRun(t *testing.T) {
	b0, ts0 := newBackend(t, serve.Options{})
	_, ts1 := newBackend(t, serve.Options{})
	g, reg, gts := newGate(t, ts0.URL, ts1.URL)

	inputs := sessionInputs(t, "facetrack", 32)
	_, want, _, _ := postSession(t, ts1.URL, "facetrack", ndjsonBody(t, "facetrack", inputs))
	firstHalf := ndjsonBody(t, "facetrack", inputs[:16])
	secondHalf := ndjsonBody(t, "facetrack", inputs[16:])

	// Session seq 0: round-robin routes it to b0. Feed half the inputs,
	// then keep the body open so it is mid-run when the drain lands.
	pr, pw := io.Pipe()
	t.Cleanup(func() { pw.Close() }) // a failed assertion must fail, not hang on the open body
	req, err := http.NewRequest(http.MethodPost, gts.URL+"/v1/stream/facetrack", pr)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/x-ndjson")
	type result struct {
		lines []string
		err   error
	}
	resc := make(chan result, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			resc <- result{err: err}
			return
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			resc <- result{err: fmt.Errorf("status %d", resp.StatusCode)}
			return
		}
		var lines []string
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 0, 64<<10), 8<<20)
		for sc.Scan() {
			lines = append(lines, sc.Text())
		}
		resc <- result{lines: lines, err: sc.Err()}
	}()
	if _, err := pw.Write(firstHalf); err != nil {
		t.Fatal(err)
	}
	// b0's own gauge, not the registry's InFlight: that one is set before
	// the request leaves the gateway, and a drain landing before b0 admits
	// the session is a re-route, not a mid-run drain.
	waitFor(t, "session admitted on b0", func() bool { return activeSessions(t, ts0.URL) == 1 })

	// The drain: /readyz flips to 503, a probe round observes it, and the
	// registry stops offering b0 to new sessions.
	b0.StartDrain()
	g.probeRound(context.Background(), fetchTimeout)
	if ready := reg.Ready(); len(ready) != 1 || ready[0].ID != "b1" {
		t.Fatalf("ready backends after drain = %v, want [b1]", ready)
	}

	for i := 0; i < 3; i++ {
		status, _, tr, _ := postSession(t, gts.URL, "facetrack", ndjsonBody(t, "facetrack", inputs))
		if status != http.StatusOK || !tr.Done || tr.Error != "" {
			t.Fatalf("post-drain session %d: status %d trailer %+v", i, status, tr)
		}
	}
	snaps := reg.Snapshots()
	if snaps[0].Routed != 1 || snaps[1].Routed != 3 {
		t.Fatalf("routed b0=%d b1=%d, want 1 and 3: draining backend took a new session",
			snaps[0].Routed, snaps[1].Routed)
	}

	// The in-flight session on the draining backend finishes untouched.
	if _, err := pw.Write(secondHalf); err != nil {
		t.Fatal(err)
	}
	pw.Close()
	res := <-resc
	if res.err != nil {
		t.Fatal(res.err)
	}
	if len(res.lines) != len(want)+1 {
		t.Fatalf("mid-drain session: %d lines, want %d + trailer", len(res.lines), len(want))
	}
	for i := range want {
		if res.lines[i] != want[i] {
			t.Fatalf("mid-drain line %d differs:\n got %s\nwant %s", i, res.lines[i], want[i])
		}
	}
	var tr serve.Trailer
	if err := json.Unmarshal([]byte(res.lines[len(res.lines)-1]), &tr); err != nil || !tr.Done || tr.Error != "" {
		t.Fatalf("mid-drain trailer %q: %v", res.lines[len(res.lines)-1], err)
	}
	waitFor(t, "session accounting settled", func() bool { return reg.Snapshots()[0].InFlight == 0 })
}

// TestGateKnowsBackendsByAddress: two backends at the default
// serve.Options, registered the way main registers -backends (by address
// alone), keep their addresses as IDs through a probe round, leave the
// ready set one at a time as they drain, and get one routing-table row
// each on the gate's page. A probe round is one /readyz GET a backend
// and no /metrics GET.
func TestGateKnowsBackendsByAddress(t *testing.T) {
	var apps [2]*serve.Server
	var urls [2]string
	var readyz, metrics [2]atomic.Int64
	for i := range apps {
		apps[i] = serve.New(baseConfig(), serve.Options{})
		h := apps[i].Handler()
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			switch r.URL.Path {
			case "/readyz":
				readyz[i].Add(1)
			case "/metrics":
				metrics[i].Add(1)
			}
			h.ServeHTTP(w, r)
		}))
		t.Cleanup(ts.Close)
		urls[i] = ts.URL
	}
	reg := cluster.NewRegistry(cluster.Backend{Addr: urls[0]}, cluster.Backend{Addr: urls[1]})
	g := newGateway(reg)
	gts := httptest.NewServer(g.handler())
	t.Cleanup(func() {
		gts.Close()
		g.client.CloseIdleConnections()
	})
	probed := func(round int64) {
		t.Helper()
		for i := range urls {
			if r, m := readyz[i].Load(), metrics[i].Load(); r != round || m != 0 {
				t.Fatalf("after %d probe rounds %s got %d /readyz and %d /metrics GETs, want %d and 0",
					round, urls[i], r, m, round)
			}
		}
	}

	g.probeRound(context.Background(), fetchTimeout)
	probed(1)
	for i, b := range reg.Snapshots() {
		if b.ID != urls[i] || b.Health != cluster.Ready {
			t.Fatalf("backend %d after a probe = %+v, want ID %s and ready", i, b, urls[i])
		}
	}

	body := ndjsonBody(t, "facetrack", sessionInputs(t, "facetrack", 16))
	for i := 0; i < 2; i++ { // seq 0 → the first backend, seq 1 → the second
		if status, _, tr, _ := postSession(t, gts.URL, "facetrack", body); status != http.StatusOK || !tr.Done {
			t.Fatalf("session %d: status %d trailer %+v", i, status, tr)
		}
	}

	apps[0].StartDrain()
	g.probeRound(context.Background(), fetchTimeout)
	probed(2)
	if ready := reg.Ready(); len(ready) != 1 || ready[0].ID != urls[1] {
		t.Fatalf("ready backends after draining %s = %v, want [%s]", urls[0], ready, urls[1])
	}

	page := scrape(t, gts.URL).Values
	for _, u := range urls {
		if got, ok := page["gate/backend["+u+"]/routed"]; !ok || got != 1 {
			t.Errorf("gate/backend[%s]/routed = %d (present %v), want 1", u, got, ok)
		}
	}
}

// TestGateMetricsAggregate: the gateway /metrics page carries its own
// counters, the routing table, each backend's scrape under
// backend[id]/, and cluster-wide sums that add up.
func TestGateMetricsAggregate(t *testing.T) {
	_, ts0 := newBackend(t, serve.Options{})
	_, ts1 := newBackend(t, serve.Options{})
	_, _, gts := newGate(t, ts0.URL, ts1.URL)

	const n = 24
	body := ndjsonBody(t, "facetrack", sessionInputs(t, "facetrack", n))
	for i := 0; i < 2; i++ { // seq 0 → b0, seq 1 → b1
		if status, _, tr, _ := postSession(t, gts.URL, "facetrack", body); status != http.StatusOK || !tr.Done {
			t.Fatalf("session %d: status %d trailer %+v", i, status, tr)
		}
	}

	resp, err := http.Get(gts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	page := string(raw)
	for _, want := range []string{
		"gate/counter[sessions_routed]=2",
		"gate/counter[reroutes]=0",
		"gate/backend[b0]/routed=1",
		"gate/backend[b1]/routed=1",
		"backend[b0]/stream/counter[inputs]=" + strconv.Itoa(n),
		"backend[b1]/stream/counter[inputs]=" + strconv.Itoa(n),
		"cluster/stream/counter[inputs]=" + strconv.Itoa(2*n),
		"cluster/serve/gauge[max_sessions]=128",
	} {
		if !bytes.Contains(raw, []byte(want)) {
			t.Fatalf("gateway /metrics missing %q:\n%s", want, page)
		}
	}

	var table struct {
		Backends []struct {
			ID     string `json:"id"`
			Health string `json:"health"`
			Routed int64  `json:"routed"`
		} `json:"backends"`
	}
	tresp, err := http.Get(gts.URL + "/v1/backends")
	if err != nil {
		t.Fatal(err)
	}
	defer tresp.Body.Close()
	if err := json.NewDecoder(tresp.Body).Decode(&table); err != nil {
		t.Fatal(err)
	}
	if len(table.Backends) != 2 {
		t.Fatalf("backends table = %+v", table)
	}
	for _, b := range table.Backends {
		if b.Health != "ready" || b.Routed != 1 {
			t.Fatalf("backend row = %+v", b)
		}
	}
}

// TestMetricsPagesParse: every non-empty line of a live statsserved
// page and a live statsgate page, taken after a session has filled the
// stage histograms, is read back by ParseMetrics with its value, and no
// name appears twice; the backend's page carries its operator gauges.
func TestMetricsPagesParse(t *testing.T) {
	_, ts0 := newBackend(t, serve.Options{})
	_, _, gts := newGate(t, ts0.URL)
	body := ndjsonBody(t, "facetrack", sessionInputs(t, "facetrack", 40))
	if status, _, tr, _ := postSession(t, gts.URL, "facetrack", body); status != http.StatusOK || !tr.Done {
		t.Fatalf("session: status %d trailer %+v", status, tr)
	}
	for _, base := range []string{ts0.URL, gts.URL} {
		resp, err := http.Get(base + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		raw, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		bm := cluster.ParseMetrics(string(raw))
		seen := map[string]bool{}
		for _, line := range strings.Split(string(raw), "\n") {
			if line == "" {
				continue
			}
			name, val, _ := strings.Cut(line, "=")
			v, ok := bm.Values[name]
			switch {
			case seen[name]:
				t.Errorf("%s: %q appears twice", base, name)
			case !ok || strconv.FormatInt(v, 10) != val:
				t.Errorf("%s: line %q parsed as %d (present %v)", base, line, v, ok)
			}
			seen[name] = true
		}
		if !bytes.Contains(raw, []byte("stream/stage[speculate]/time[")) {
			t.Errorf("%s: no stage bins on the page:\n%s", base, raw)
		}
		if base == ts0.URL {
			active, okA := bm.Values["serve/gauge[active_sessions]"]
			occ, okO := bm.Values["serve/gauge[window_occupancy]"]
			if maxSessions := bm.Values["serve/gauge[max_sessions]"]; !okA || !okO || active != 0 || occ != 0 || maxSessions != 64 {
				t.Errorf("idle backend's gauges %d %d %d (present %v %v), want 0 0 64", active, occ, maxSessions, okA, okO)
			}
		}
	}
}

// TestGateDrainsItself: statsgate's own SIGTERM path — startDrain flips
// /readyz and new sessions are refused with 503 while the handler stays
// up for in-flight work.
func TestGateDrainsItself(t *testing.T) {
	_, ts0 := newBackend(t, serve.Options{})
	g, _, gts := newGate(t, ts0.URL)

	if resp, err := http.Get(gts.URL + "/readyz"); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("readyz before drain: %v %v", resp, err)
	} else {
		resp.Body.Close()
	}
	g.startDrain()
	resp, err := http.Get(gts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readyz during drain: status %d, want 503", resp.StatusCode)
	}
	if status, _, _, _ := postSession(t, gts.URL, "facetrack", nil); status != http.StatusServiceUnavailable {
		t.Fatalf("draining gateway accepted a session: status %d", status)
	}
}
