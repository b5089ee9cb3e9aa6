package cluster

import (
	"maps"
	"strings"
	"testing"
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
// in-flight, routed and shed counters.
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

	snaps := reg.Snapshots()
	if got := []string{snaps[0].ID, snaps[1].ID, snaps[2].ID}; got[0] != "a" || got[1] != "b" || got[2] != "c" {
		t.Fatalf("snapshot order %v, want [a b c]", got)
	}
	if snaps[0].InFlight != 1 {
		t.Fatalf("backend a accounting = %+v", snaps[0])
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

// TestClusterPolicies: roundrobin's decision is a pure function of
// (candidates, key), the admission sequence modulo the candidates, and
// it is the one name PolicyFor resolves.
func TestClusterPolicies(t *testing.T) {
	cands := testBackends(4)
	cands[1].InFlight = 3
	key := SessionKey{Benchmark: "facetrack", Seq: 7}

	p, err := PolicyFor("roundrobin")
	if err != nil {
		t.Fatal(err)
	}
	first := p.Pick(cands, key)
	for i := 0; i < 10; i++ {
		if got := p.Pick(cands, key); got != first {
			t.Fatalf("roundrobin: Pick not deterministic: %d then %d", first, got)
		}
	}
	if got := p.Pick(cands, SessionKey{Seq: 6}); got != 2 {
		t.Fatalf("roundrobin seq 6 over 4 = %d, want 2", got)
	}
	for _, name := range []string{"nosuch", "leastloaded", "affinity"} {
		if _, err := PolicyFor(name); err == nil {
			t.Fatalf("PolicyFor(%s) did not error", name)
		}
	}
}

// TestClusterParseAndAggregate: scrapes parse into integer values, stage
// bins like any other line, a line whose value is not an integer (an
// older backend's serve/instance label among them) is skipped, and
// Aggregate adds per-backend values and cluster/ sums of everything but
// the quantile estimates.
func TestClusterParseAndAggregate(t *testing.T) {
	scrape := "stream/counter[inputs]=40\nserve/counter[sessions_shed]=1\n" +
		"serve/instance=b0\nserve/gauge[active_sessions]=3\n" +
		"serve/gauge[window_occupancy]=9\nserve/gauge[max_sessions]=64\n" +
		"stream/stage[commit]/time[1µs,2µs)/count=12\nstream/stage[commit]/p50_ns=1500\n" +
		"stream/stage[commit]/time[0,1us)=12 0.000004\nnot a metric\n"
	bm := ParseMetrics(scrape)
	if bm.Values["serve/gauge[active_sessions]"] != 3 || bm.Values["serve/gauge[window_occupancy]"] != 9 {
		t.Fatalf("gauges %v", bm.Values)
	}
	if _, ok := bm.Values["serve/instance"]; ok {
		t.Fatal("a non-integer line parsed")
	}
	if len(bm.Values) != 7 || bm.Values["stream/stage[commit]/time[1µs,2µs)/count"] != 12 {
		t.Fatalf("values %v: want 7, the bin among them", bm.Values)
	}

	other := ParseMetrics("stream/counter[inputs]=2\nstream/stage[commit]/p50_ns=9000\n")
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

// TestClusterWriteMetrics: a page is the values sorted by name, and the
// gateway's own values count sessions routed once, in the registry,
// under each backend's registered ID.
func TestClusterWriteMetrics(t *testing.T) {
	var sb strings.Builder
	if err := WriteMetrics(&sb, BackendMetrics{Values: map[string]int64{"b": -1, "a": 2}}); err != nil {
		t.Fatal(err)
	}
	if got, want := sb.String(), "a=2\nb=-1\n"; got != want {
		t.Fatalf("page %q, want %q", got, want)
	}

	reg := NewRegistry(testBackends(2)...)
	reg.MarkRouted("a")
	reg.MarkRouted("b")
	reg.MarkShed("b")
	var m GateMetrics
	m.Reroutes.Add(1)
	page := map[string]int64{}
	m.Put(page, reg.Snapshots())
	for name, want := range map[string]int64{
		"gate/counter[sessions_routed]": 2,
		"gate/counter[reroutes]":        1,
		"gate/backend[b]/routed":        1,
		"gate/backend[b]/shed":          1,
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
		if again := ParseMetrics(sb.String()); !maps.Equal(again.Values, bm.Values) {
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
// a non-empty name that starts with no space and holds no '=' or line
// break.
func writable(name string) bool {
	return name != "" && name == strings.TrimLeftFunc(name, unicode.IsSpace) &&
		!strings.ContainsAny(name, "=\n")
}
