package engine_test

import (
	"strings"
	"testing"
	"time"

	"gostats/internal/bench"
	"gostats/internal/engine"
	"gostats/internal/rng"
)

// TestMetricsPut: a Metrics folds the totals a Counters beside it
// folds and hands each over as one stream/counter value, beside two
// gauges and, per observed stage, integer bins that add up to its count
// and ordered quantiles in nanoseconds.
func TestMetricsPut(t *testing.T) {
	b := bench.MustNew("streamclassifier")
	inputs := b.Inputs(rng.New(1))[:64]
	m, ctr := engine.NewMetrics(), &engine.Counters{}
	sched := &engine.StreamScheduler{Workers: 2, Sink: engine.Tee(m, ctr)}
	if _, err := sched.RunSlice(b, inputs, engine.Config{Chunks: 8, Lookback: 2, ExtraStates: 1, InnerWidth: 1, Seed: 7}); err != nil {
		t.Fatal(err)
	}
	c := ctr.Snapshot()
	if got := m.Snapshot(); got != c || c.Ingested != 64 || c.ReexecUpdates == 0 {
		t.Fatalf("Metrics folded %+v, the Counters beside it %+v; want the same, 64 inputs and some re-execution", got, c)
	}
	page := map[string]int64{}
	m.Put(page)
	counters := 0
	for name := range page {
		if strings.HasPrefix(name, "stream/counter[") {
			counters++
		}
	}
	if counters != 19 {
		t.Errorf("%d counters, want 19:\n%v", counters, page)
	}
	for name, want := range map[string]int64{
		"stream/gauge[active_sessions]": 0, "stream/counter[sessions]": 1,
		"stream/counter[inputs]": 64, "stream/counter[outputs]": 64,
		"stream/counter[orig_updates]": c.OrigUpdates, "stream/counter[spec_copies]": c.SpecCopies,
		"stream/counter[reexec_updates]": c.ReexecUpdates,
	} {
		if got, ok := page[name]; !ok || got != want {
			t.Errorf("%s = %d (present %v), want %d", name, got, ok, want)
		}
	}
	for _, s := range []engine.Stage{engine.StageSpeculate, engine.StageValidate, engine.StageCommit, engine.StageReexec} {
		stage := "stream/stage[" + s.String() + "]/"
		var n int64
		for name, v := range page {
			if rest, ok := strings.CutPrefix(name, stage+"time["); ok && strings.HasSuffix(rest, ")/count") {
				n += v
			}
		}
		p50, p95, p99 := page[stage+"p50_ns"], page[stage+"p95_ns"], page[stage+"p99_ns"]
		if n == 0 || n != m.StageCount(s) || p50 != int64(m.Percentile(s, 0.5)) || p50 > p95 || p95 > p99 {
			t.Errorf("%s: bins count %d of %d, quantiles %d %d %d", s, n, m.StageCount(s), p50, p95, p99)
		}
	}
}

// TestMetricsPercentile pins the binned-percentile estimator: exact
// interpolation inside a uniform bin, bin-bounded estimates across bins,
// the open last bin anchoring to its recorded mean, and the q clamps.
func TestMetricsPercentile(t *testing.T) {
	m := engine.NewMetrics()
	if got := m.Percentile(engine.StageValidate, 0.5); got != 0 {
		t.Fatalf("empty stage p50 = %v, want 0", got)
	}

	// 100 observations in the [1us,2us) bin: rank interpolation is exact.
	for i := 0; i < 100; i++ {
		m.Observe(engine.StageValidate, 1500*time.Nanosecond)
	}
	if got, want := m.Percentile(engine.StageValidate, 0.5), 1500*time.Nanosecond; got != want {
		t.Fatalf("uniform-bin p50 = %v, want %v", got, want)
	}

	// Add a 10% tail two decades out: p50 stays in the body's bin, p95
	// and p99 land inside the tail's [256us,512us) bin.
	for i := 0; i < 11; i++ {
		m.Observe(engine.StageValidate, 300*time.Microsecond)
	}
	if got := m.Percentile(engine.StageValidate, 0.5); got < time.Microsecond || got >= 2*time.Microsecond {
		t.Fatalf("p50 = %v, want inside [1us,2us)", got)
	}
	for _, q := range []float64{0.95, 0.99} {
		if got := m.Percentile(engine.StageValidate, q); got < 256*time.Microsecond || got > 512*time.Microsecond {
			t.Fatalf("p%g = %v, want inside the tail bin [256us,512us]", q*100, got)
		}
	}

	// q is clamped; q=1 resolves to the maximum observed bin's top.
	if lo, hi := m.Percentile(engine.StageValidate, -1), m.Percentile(engine.StageValidate, 2); lo != m.Percentile(engine.StageValidate, 0) || hi != m.Percentile(engine.StageValidate, 1) {
		t.Fatalf("q clamping broken: q=-1 -> %v, q=2 -> %v", lo, hi)
	}

	// The open-ended last bin has no upper edge: the estimate anchors to
	// the bin's recorded mean instead of infinity.
	const huge = 20 * time.Minute
	for i := 0; i < 3; i++ {
		m.Observe(engine.StageReexec, huge)
	}
	if got := m.Percentile(engine.StageReexec, 0.99); got > huge || got < huge/4 {
		t.Fatalf("open-bin p99 = %v, want anchored near the %v mean", got, huge)
	}
}
