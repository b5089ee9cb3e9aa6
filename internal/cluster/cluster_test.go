package cluster

import (
	"maps"
	"strings"
	"testing"
	"time"
	"unicode"
)

func testBackends(n int) []Backend {
	out := make([]Backend, n)
	for i := range out {
		out[i] = Backend{ID: string(rune('a' + i)), Addr: "http://x"}
	}
	return out
}

// TestClusterRegistryOrderAndAccounting: snapshots come back in registration
// order regardless of update order, and session accounting moves the
// load counters routing policies read.
func TestClusterRegistryOrderAndAccounting(t *testing.T) {
	reg := NewRegistry(testBackends(3)...)
	reg.StartSession("c")
	reg.MarkRouted("c")
	reg.StartSession("c")
	reg.MarkRouted("c")
	reg.StartSession("a")
	reg.EndSession("c")
	reg.MarkShed("b")
	reg.SetHealth("b", Draining)
	reg.UpdateLoad("a", 5, 12, 64)

	snaps := reg.Snapshots()
	if got := []string{snaps[0].ID, snaps[1].ID, snaps[2].ID}; got[0] != "a" || got[1] != "b" || got[2] != "c" {
		t.Fatalf("snapshot order %v, want [a b c]", got)
	}
	if snaps[0].InFlight != 1 || snaps[0].Active != 5 || snaps[0].Occupancy != 12 || snaps[0].MaxSessions != 64 {
		t.Fatalf("backend a load = %+v", snaps[0])
	}
	if snaps[2].InFlight != 1 || snaps[2].Routed != 2 {
		t.Fatalf("backend c accounting = %+v", snaps[2])
	}
	if snaps[1].Shed != 1 {
		t.Fatalf("backend b shed = %d, want 1", snaps[1].Shed)
	}

	ready := reg.Ready()
	if len(ready) != 2 || ready[0].ID != "a" || ready[1].ID != "c" {
		t.Fatalf("ready = %v, want [a c]", ready)
	}
}

// TestClusterPolicies: each policy's decision is a pure function of
// (candidates, key); least-loaded tracks the load signal; affinity is
// sticky per benchmark and survives candidate removal (rendezvous).
func TestClusterPolicies(t *testing.T) {
	cands := testBackends(4)
	cands[1].InFlight = 3
	cands[2].Active = 1
	key := SessionKey{Benchmark: "facetrack", Seq: 7}

	for _, name := range PolicyNames() {
		p, err := PolicyFor(name)
		if err != nil {
			t.Fatal(err)
		}
		first := p.Pick(cands, key)
		for i := 0; i < 10; i++ {
			if got := p.Pick(cands, key); got != first {
				t.Fatalf("%s: Pick not deterministic: %d then %d", name, first, got)
			}
		}
	}

	if got := (RoundRobin{}).Pick(cands, SessionKey{Seq: 6}); got != 2 {
		t.Fatalf("roundrobin seq 6 over 4 = %d, want 2", got)
	}
	if got := (LeastLoaded{}).Pick(cands, key); cands[got].ID != "a" && cands[got].ID != "d" {
		t.Fatalf("leastloaded picked loaded backend %s", cands[got].ID)
	}
	cands[0].Occupancy = 40 // ≈10 sessions' worth of chunks
	if got := (LeastLoaded{}).Pick(cands, key); cands[got].ID != "d" {
		t.Fatalf("leastloaded ignored occupancy, picked %s", cands[got].ID)
	}

	aff := Affinity{}
	home := aff.Pick(cands, key)
	if aff.Pick(cands, SessionKey{Benchmark: "facetrack", Seq: 999}) != home {
		t.Fatal("affinity not sticky across sessions of one benchmark")
	}
	// Remove a non-home candidate: the home backend must not move
	// (rendezvous hashing's minimal-disruption property).
	drop := (home + 1) % len(cands)
	smaller := append(append([]Backend{}, cands[:drop]...), cands[drop+1:]...)
	if smaller[aff.Pick(smaller, key)].ID != cands[home].ID {
		t.Fatal("affinity moved benchmark off its home when an unrelated backend left")
	}

	if _, err := PolicyFor("nosuch"); err == nil {
		t.Fatal("PolicyFor(nosuch) did not error")
	}
}

// TestLeastLoadedRotatesTies: between probes every idle backend scores
// zero, so least-loaded must spread tied sessions by admission sequence
// rather than send them all to one backend — and a unique least-loaded
// backend still wins whatever the sequence number.
func TestLeastLoadedRotatesTies(t *testing.T) {
	cands := testBackends(3)
	got := map[string]int{}
	for seq := uint64(0); seq < 60; seq++ {
		got[cands[(LeastLoaded{}).Pick(cands, SessionKey{Seq: seq})].ID]++
	}
	if got["a"] != 20 || got["b"] != 20 || got["c"] != 20 {
		t.Fatalf("60 tied sessions over 3 idle backends went %v, want 20 each", got)
	}

	cands[0].InFlight = 2
	cands[2].Active = 1
	for seq := uint64(0); seq < 60; seq++ {
		if i := (LeastLoaded{}).Pick(cands, SessionKey{Seq: seq}); cands[i].ID != "b" {
			t.Fatalf("seq %d: picked %s over the unique least-loaded b", seq, cands[i].ID)
		}
	}
}

// TestClusterTokenBucket: burst admits, an empty bucket sheds with a positive
// Retry-After, refill follows the explicit clock, rate<=0 disables. The
// clock starts at the epoch and late after it: a bucket refills by the
// time since its last admission, not by the time since the epoch.
func TestClusterTokenBucket(t *testing.T) {
	for _, start := range []time.Duration{0, 10 * time.Second} {
		b := NewTokenBucket(10, 2) // 10 tokens/s, burst 2
		now := start
		for i := 0; i < 2; i++ {
			if ok, _ := b.Admit(now); !ok {
				t.Fatalf("start %s: burst admit %d refused", start, i)
			}
		}
		now += time.Millisecond
		ok, retry := b.Admit(now)
		if ok || retry <= 0 || retry > 100*time.Millisecond {
			t.Fatalf("start %s: empty bucket: ok=%v retry=%s", start, ok, retry)
		}
		if ok, _ := b.Admit(now + retry); !ok {
			t.Fatalf("start %s: bucket did not refill after the advertised wait", start)
		}
	}
	unlimited := NewTokenBucket(0, 0)
	for i := 0; i < 100; i++ {
		if ok, _ := unlimited.Admit(0); !ok {
			t.Fatal("rate<=0 must admit everything")
		}
	}
}

// TestClusterParseAndAggregate: scrapes parse into load gauges plus an
// instance label, stage bins parse like any other line, and Aggregate
// adds per-backend values and cluster/ sums of everything but the
// quantile estimates.
func TestClusterParseAndAggregate(t *testing.T) {
	scrape := "stream/counter[inputs]=40\nserve/counter[sessions_shed]=1\n" +
		"serve/instance=b0\nserve/gauge[active_sessions]=3\n" +
		"serve/gauge[window_occupancy]=9\nserve/gauge[max_sessions]=64\n" +
		"stream/stage[commit]/time[1µs,2µs)/count=12\nstream/stage[commit]/p50_ns=1500\n" +
		"stream/stage[commit]/time[0,1us)=12 0.000004\nnot a metric\n"
	bm := ParseMetrics(scrape)
	if bm.Instance != "b0" {
		t.Fatalf("instance %q", bm.Instance)
	}
	active, occ, maxs := bm.LoadGauges()
	if active != 3 || occ != 9 || maxs != 64 {
		t.Fatalf("gauges = %d %d %d", active, occ, maxs)
	}
	if len(bm.Values) != 7 || bm.Values["stream/stage[commit]/time[1µs,2µs)/count"] != 12 {
		t.Fatalf("values %v: want 7, the bin among them", bm.Values)
	}

	other := ParseMetrics("stream/counter[inputs]=2\nstream/stage[commit]/p50_ns=9000\nserve/instance=b1\n")
	page := map[string]int64{}
	Aggregate(page, "b0", bm.Values)
	Aggregate(page, "b1", other.Values)
	for name, want := range map[string]int64{
		"backend[b0]/stream/counter[inputs]":               40,
		"backend[b1]/stream/counter[inputs]":               2,
		"cluster/stream/counter[inputs]":                   42,
		"cluster/serve/gauge[active_sessions]":             3,
		"cluster/stream/stage[commit]/time[1µs,2µs)/count": 12,
		"backend[b1]/stream/stage[commit]/p50_ns":          9000,
	} {
		if got, ok := page[name]; !ok || got != want {
			t.Errorf("aggregate %s = %d (present %v), want %d", name, got, ok, want)
		}
	}
	if v, ok := page["cluster/stream/stage[commit]/p50_ns"]; ok {
		t.Errorf("cluster/ sums quantiles: p50 %d", v)
	}
}

// TestClusterWriteMetrics: a page is the instance line, then the values
// sorted by name; the gateway's own values count sessions routed once,
// in the registry, and a rename carries a backend's counts with it.
func TestClusterWriteMetrics(t *testing.T) {
	var sb strings.Builder
	if err := WriteMetrics(&sb, BackendMetrics{Instance: "b0", Values: map[string]int64{"b": -1, "a": 2}}); err != nil {
		t.Fatal(err)
	}
	if got, want := sb.String(), "serve/instance=b0\na=2\nb=-1\n"; got != want {
		t.Fatalf("page %q, want %q", got, want)
	}

	reg := NewRegistry(testBackends(2)...)
	reg.MarkRouted("a")
	reg.MarkRouted("b")
	reg.MarkShed("b")
	reg.Rename("b", "b1")
	var m GateMetrics
	m.Reroutes.Add(1)
	page := map[string]int64{}
	m.Put(page, reg.Snapshots())
	for name, want := range map[string]int64{
		"gate/counter[sessions_routed]": 2,
		"gate/counter[reroutes]":        1,
		"gate/backend[b1]/routed":       1,
		"gate/backend[b1]/shed":         1,
		"gate/backend[a]/health":        int64(Ready),
	} {
		if got, ok := page[name]; !ok || got != want {
			t.Errorf("%s = %d (present %v), want %d", name, got, ok, want)
		}
	}
}

// FuzzParseMetrics: ParseMetrics takes any bytes a backend sends without
// panicking; WriteMetrics is its inverse, on what it parsed and on any
// pair with a writable name; and a scrape aggregated as one backend
// parses back with each cluster/<name> equal to the scrape's value.
func FuzzParseMetrics(f *testing.F) {
	f.Add("stream/counter[inputs]=40\nserve/counter[sessions_shed]=1\n"+
		"serve/instance=b0\nserve/gauge[active_sessions]=3\n"+
		"stream/stage[commit]/time[0,1us)=12 0.000004\nnot a metric\n", "x", int64(1))
	f.Add(" a = 1\r\nb=-9223372036854775808\n=5\nc=+7\nd==1\n", "stream/stage[commit]/p99_ns", int64(-3))
	f.Fuzz(func(t *testing.T, text, name string, v int64) {
		bm := ParseMetrics(text)
		if writable(name) {
			bm.Values[name] = v
		}
		var sb strings.Builder
		if err := WriteMetrics(&sb, bm); err != nil {
			t.Fatal(err)
		}
		if again := ParseMetrics(sb.String()); again.Instance != bm.Instance || !maps.Equal(again.Values, bm.Values) {
			t.Fatalf("page %q parsed back as %+v, written from %+v", sb.String(), again, bm)
		}

		page := map[string]int64{}
		Aggregate(page, "b0", bm.Values)
		sb.Reset()
		if err := WriteMetrics(&sb, BackendMetrics{Values: page}); err != nil {
			t.Fatal(err)
		}
		again := ParseMetrics(sb.String())
		for name, v := range bm.Values {
			if got, ok := again.Values["backend[b0]/"+name]; !ok || got != v {
				t.Fatalf("backend[b0]/%s re-parsed as %d (present %v), scrape had %d\n%s", name, got, ok, v, sb.String())
			}
			if got, ok := again.Values["cluster/"+name]; ok == isQuantile(name) || ok && got != v {
				t.Fatalf("cluster/%s re-parsed as %d (present %v), scrape had %d\n%s", name, got, ok, v, sb.String())
			}
		}
	})
}

// writable reports whether WriteMetrics can render a value named name:
// a non-empty name that starts with no space, holds no '=' or line
// break, and is not the instance label's.
func writable(name string) bool {
	return name != "" && name == strings.TrimLeftFunc(name, unicode.IsSpace) &&
		!strings.ContainsAny(name, "=\n") && name != instanceName
}
