package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"testing"

	"gostats/internal/engine"
	"gostats/internal/serve"
)

func TestMedianOfPairRatios(t *testing.T) {
	// The host runs at half speed during the last two pairs. Within a pair
	// both passes slow down together, so every pair still says 2.0; a ratio
	// of the two medians would mix fast and slow phases.
	seq := []float64{100, 100, 100, 200, 200}
	stats := []float64{50, 50, 50, 100, 100}
	if got := median(pairRatios(seq, stats)); got != 2 {
		t.Errorf("median of pair ratios = %v, want 2", got)
	}
	seq, stats = []float64{100, 100, 300}, []float64{100, 50, 100}
	if got, ratioOfMedians := median(pairRatios(seq, stats)), median(seq)/median(stats); got != 2 || ratioOfMedians == got {
		t.Errorf("median of pair ratios = %v (want 2), ratio of medians = %v (must differ)", got, ratioOfMedians)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v, want 2.5", got)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 8, 16, 32, 64, 128, 256, 512], n=4)
	q1, q2, q3 := quartiles([]float64{512, 1, 2, 4, 8, 16, 32, 64, 128, 256})
	want := [3]float64{3.5, 24, 160}
	if got := [3]float64{q1, q2, q3}; got != want {
		t.Errorf("quartiles = %v, want %v", got, want)
	}
	if got := iqrOverMedian([]float64{512, 1, 2, 4, 8, 16, 32, 64, 128, 256}); math.Abs(got-156.5/24) > 1e-12 {
		t.Errorf("iqrOverMedian = %v, want %v", got, 156.5/24)
	}
}

func TestHiPercentileTenBeyond(t *testing.T) {
	xs := make([]float64, 21)
	for i := range xs {
		xs[i] = float64(21 - i) // 21..1, unsorted on purpose
	}
	v, pct := hiPercentile(xs)
	if v != 11 || math.Abs(pct-100*11.0/21) > 1e-9 {
		t.Errorf("21 samples: got %v at p%v, want 11 (ten samples beyond it) at p%v", v, pct, 100*11.0/21)
	}
	v, pct = hiPercentile(xs[:11])
	if v != 11 || pct != 100.0/11 {
		t.Errorf("11 samples: got %v at p%v, want the minimum 11 at p%v", v, pct, 100.0/11)
	}
	if v, pct = hiPercentile(xs[:10]); pct != 50 || v != median(xs[:10]) {
		t.Errorf("10 samples: got %v at p%v, want the median at p50", v, pct)
	}
}

func TestSpanSelfTime(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "session", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "b", Start: 30, End: 60},    // overlaps a: the union covers 10..60
		{ID: 4, Parent: 1, Name: "c", Start: 90, End: 120},   // sticks out: clipped to 90..100
		{ID: 5, Parent: 2, Name: "leaf", Start: 15, End: 20}, // grandchild: only a's self time
		{ID: 6, Parent: 1, Name: "inside-b", Start: 35, End: 50},
	}
	self := selfTimes(spans)
	want := map[int]int64{1: 100 - 50 - 10, 2: 30 - 5, 3: 30, 4: 30, 5: 5, 6: 15}
	if !reflect.DeepEqual(self, want) {
		t.Errorf("selfTimes = %v, want %v", self, want)
	}
}

func TestParseProcStat(t *testing.T) {
	// A command name with spaces and parentheses, as the kernel prints it.
	line := "4242 (stats gate) (x)) S 1 4242 4242 0 -1 4194560 1519 0 0 0 37 12 0 0 20 0 9 0 8167 1283 0"
	got, err := parseProcStat(line)
	if err != nil {
		t.Fatal(err)
	}
	if want := (37 + 12) * 10_000_000; int64(got) != int64(want) {
		t.Errorf("cpu = %v, want %v ns (utime 37 + stime 12 ticks)", got, want)
	}
	for _, bad := range []string{"", "1 (x) S 1 2", "1 (x) S 1 2 3 4 5 6 7 8 9 10 a b"} {
		if _, err := parseProcStat(bad); err == nil {
			t.Errorf("parseProcStat(%q) returned no error", bad)
		}
	}
}

// smallSession is a real session short enough for a unit test.
func smallSession(t *testing.T, w workload, benchName string, n int, tr *tracer) *session {
	t.Helper()
	s, _, err := newSession(context.Background(), w, benchName, n, sessionSeed(7, benchName, 0), tr)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestVerifier(t *testing.T) {
	ctx := context.Background()
	s := smallSession(t, workload{}, "streamcluster", 160, nil)
	n := len(s.inputs)
	runNative(ctx, s, streamConfig(2), s.plain)
	if err := verifyNative(s.codec, s.outs, s.stats, n, s.want); s.err != nil || err != nil {
		t.Fatalf("clean native session: run %v, verify %v", s.err, err)
	}
	if err := verifyNative(s.codec, s.outs[:n-1], s.stats, n, s.want); err == nil {
		t.Error("native session with a missing output verified")
	}
	faulted := s.stats
	faulted.Retries = 1
	if err := verifyNative(s.codec, s.outs, faulted, n, s.want); err == nil {
		t.Error("native session with a retry verified")
	}

	// The same session as the wire would carry it.
	var body bytes.Buffer
	for _, o := range s.outs {
		line, err := s.codec.EncodeOutput(o)
		if err != nil {
			t.Fatal(err)
		}
		body.Write(line)
		body.WriteByte('\n')
		if body.Len() < 200 {
			body.WriteString("#ckpt AAAA\n") // control lines are not outputs
		}
	}
	trailer := func(tr serve.Trailer) []byte {
		b, err := json.Marshal(tr)
		if err != nil {
			t.Fatal(err)
		}
		return append(b, '\n')
	}
	good := serve.Trailer{Done: true, Benchmark: s.bench, Stats: s.stats}
	check := func(resp []byte) error {
		res, err := readWire(bytes.NewReader(resp), nil)
		if err != nil {
			return err
		}
		return verifyWire(res, n, s.want)
	}
	clean := append(append([]byte(nil), body.Bytes()...), trailer(good)...)
	if err := check(clean); err != nil {
		t.Fatalf("clean wire session: %v", err)
	}
	failed := 0
	count := func(what string, resp []byte) {
		if check(resp) != nil {
			failed++
		} else {
			t.Errorf("%s verified", what)
		}
	}
	flipped := append([]byte(nil), clean...)
	at := bytes.IndexAny(flipped, "0123456789")
	flipped[at] = '0' + (flipped[at]-'0'+1)%10
	count("a response with one flipped byte", flipped)
	firstLine := bytes.IndexByte(clean, '\n') + 1
	count("a response with a missing line", clean[firstLine:])
	bad := good
	bad.Done, bad.Error = false, "input line 3: boom"
	count("a response whose trailer reports an error", append(append([]byte(nil), body.Bytes()...), trailer(bad)...))
	count("a response without a trailer", body.Bytes())
	if failed != 4 {
		t.Errorf("%d of 4 broken responses counted as failed sessions", failed)
	}
}

type nativePart struct {
	w    workload
	part part
}

// nativeParts are the sessions of the three in-process workloads, shortened.
func nativeParts() (out []nativePart) {
	for _, w := range workloads {
		if w.Wire {
			continue
		}
		for _, p := range w.Parts {
			p.Inputs = min(p.Inputs, 320)
			out = append(out, nativePart{w, p})
		}
	}
	return out
}

func TestWrapperFidelity(t *testing.T) {
	ctx := context.Background()
	for _, np := range nativeParts() {
		t.Run(np.w.Name+"/"+np.part.Bench, func(t *testing.T) {
			tr := newTracer()
			s := smallSession(t, np.w, np.part.Bench, np.part.Inputs, tr)

			// The wrapper has the wrapped program's optional interfaces, no
			// more and no fewer: the engine picks its fast paths by them.
			_, plainRec := s.plain.(engine.StateRecycler)
			_, tracedRec := s.traced.(engine.StateRecycler)
			_, plainFresh := s.plain.(engine.FreshRecycler)
			_, tracedFresh := s.traced.(engine.FreshRecycler)
			_, plainFP := s.plain.(engine.Fingerprinter)
			_, tracedFP := s.traced.(engine.Fingerprinter)
			if plainRec != tracedRec || plainFresh != tracedFresh || plainFP != tracedFP {
				t.Errorf("optional interfaces differ: recycler %v/%v fresh %v/%v fingerprint %v/%v",
					plainRec, tracedRec, plainFresh, tracedFresh, plainFP, tracedFP)
			}
			var _ engine.CostModel = s.traced

			run := func(prog engine.Program, traced bool) (engine.StreamStats, [32]byte) {
				e := &env{w: np.w, workers: 1, tr: tr}
				cfg := streamConfig(1)
				if np.w.Checkpoint {
					cfg.Checkpoint = e.checkpointConfig(s, traced)
				}
				runNative(ctx, s, cfg, prog)
				if s.err != nil {
					t.Fatal(s.err)
				}
				sum, err := hashOutputs(s.codec, s.outs)
				if err != nil {
					t.Fatal(err)
				}
				return s.stats, sum
			}
			plainStats, plainSum := run(s.plain, false)
			tracedStats, tracedSum := run(s.traced, true)
			if plainSum != tracedSum || plainSum != s.want {
				t.Error("output hash differs wrapped vs. unwrapped")
			}
			type shape struct{ commits, aborts, states, checkpoints int64 }
			p := shape{plainStats.Commits, plainStats.Aborts, plainStats.States, plainStats.Checkpoints}
			w := shape{tracedStats.Commits, tracedStats.Aborts, tracedStats.States, tracedStats.Checkpoints}
			if p != w {
				t.Errorf("StreamStats differ: unwrapped %+v, wrapped %+v", p, w)
			}
			// Whether a clone finds a retired buffer depends on whether the
			// frontier released one a moment earlier, even with one worker:
			// two unwrapped runs differ by a clone or two. What the wrapper
			// must not do is switch recycling off, which would halve Reused.
			if d := plainStats.Reused - tracedStats.Reused; d < -3 || d > 3 {
				t.Errorf("Reused differs: unwrapped %d, wrapped %d", plainStats.Reused, tracedStats.Reused)
			}
			if calls := tr.ops.update.summary().Calls; calls < int64(np.part.Inputs) {
				t.Errorf("wrapper saw %d Update calls for %d inputs", calls, np.part.Inputs)
			}
		})
	}
}

func TestCountMetricsRepeat(t *testing.T) {
	ctx := context.Background()
	w, _ := workloadByName("native-overhead")
	w.Parts = []part{{Bench: "streamcluster", Sessions: 2, Inputs: 640}, {Bench: "streamclassifier", Sessions: 2, Inputs: 480}}
	counts := func() map[string]float64 {
		tr := newTracer()
		e, err := setup(ctx, w, 5, tr)
		if err != nil {
			t.Fatal(err)
		}
		defer e.close()
		run := tr.open("run", 0)
		tot, err := runPairs(ctx, e, 2, run, &pairLog{})
		if err != nil {
			t.Fatal(err)
		}
		m := map[string]float64{}
		tracedLayerMetrics(m, tr, tot, int64(2*e.inputs))
		out := map[string]float64{}
		for _, spec := range perLayer {
			// Prevalidation may validate a boundary on a worker and again at
			// the frontier, so the number of deep Match calls is the one count
			// that depends on how goroutines interleave.
			if v, ok := m[spec.Name]; ok && spec.Unit == "count" && spec.Name != "bench.match_calls" {
				out[spec.Name] = v
			}
		}
		return out
	}
	first, second := counts(), counts()
	if len(first) < 5 {
		t.Fatalf("only %d count metrics came from the traced pairs: %v", len(first), first)
	}
	if !reflect.DeepEqual(first, second) {
		t.Errorf("count metrics differ between two runs of one seed:\n%v\n%v", first, second)
	}
	if first["bench.update_calls"] == 0 || first["engine.chunks"] == 0 {
		t.Errorf("counts are empty: %v", first)
	}
}

func TestTableMatchesBenchmarkJSON(t *testing.T) {
	bf, err := loadBenchmarkFile("../" + benchmarkFilePath)
	if err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the table", len(bf.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bf.Workloads[i].Name != w.Name || bf.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, the table %q / %q", i, bf.Workloads[i], w.Name, w.Why)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	if !reflect.DeepEqual(bf.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs:\nBENCHMARK.json %+v\ntable          %+v", bf.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(bf.PerLayer, perLayer) {
		for i := range perLayer {
			if i >= len(bf.PerLayer) || bf.PerLayer[i] != perLayer[i] {
				t.Errorf("per_layer differs from entry %d on: table has %+v", i, perLayer[i])
				break
			}
		}
		if len(bf.PerLayer) != len(perLayer) {
			t.Errorf("per_layer: %d entries in BENCHMARK.json, %d in the table", len(bf.PerLayer), len(perLayer))
		}
	}
	seen := map[string]bool{}
	for _, m := range append(append([]metricSpec(nil), endToEnd...), perLayer...) {
		if seen[m.Name] {
			t.Errorf("metric name %s is used twice", m.Name)
		}
		seen[m.Name] = true
	}
	if want := []string{"bash", "benchmark/run.sh"}; !reflect.DeepEqual(bf.Command, want) {
		t.Errorf("command = %v, want %v", bf.Command, want)
	}
	if want := []string{"benchmark"}; !reflect.DeepEqual(bf.Paths, want) {
		t.Errorf("paths = %v, want %v", bf.Paths, want)
	}
}
