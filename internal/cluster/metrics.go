package cluster

import (
	"fmt"
	"io"
	"maps"
	"slices"
	"strconv"
	"strings"
	"sync/atomic"
)

// GateMetrics counts what the gateway itself did, as opposed to the
// backend metrics it aggregates. Rendered first in statsgate's /metrics.
type GateMetrics struct {
	Routed        atomic.Int64 // sessions handed to a backend
	Reroutes      atomic.Int64 // backend sheds retried on another backend
	Migrations    atomic.Int64 // sessions resumed on another backend mid-stream
	ShedAdmission atomic.Int64 // sessions 429d by the token bucket
	ShedCapacity  atomic.Int64 // sessions 429d with every backend refusing
	BackendErrors atomic.Int64 // transport errors talking to backends
}

// WriteText renders the gateway counters, one machine-parseable line
// each, in the same name=value grammar statsserved uses.
func (m *GateMetrics) WriteText(w io.Writer) {
	fmt.Fprintf(w, "gate/counter[backend_errors]=%d\n", m.BackendErrors.Load())
	fmt.Fprintf(w, "gate/counter[migrations]=%d\n", m.Migrations.Load())
	fmt.Fprintf(w, "gate/counter[reroutes]=%d\n", m.Reroutes.Load())
	fmt.Fprintf(w, "gate/counter[sessions_routed]=%d\n", m.Routed.Load())
	fmt.Fprintf(w, "gate/counter[sessions_shed_admission]=%d\n", m.ShedAdmission.Load())
	fmt.Fprintf(w, "gate/counter[sessions_shed_capacity]=%d\n", m.ShedCapacity.Load())
}

// BackendMetrics is one backend's parsed /metrics scrape.
type BackendMetrics struct {
	// Instance is the backend's serve/instance label ("" if the scrape
	// carried none).
	Instance string
	// Values holds every name=integer line of the scrape —
	// stream/counter[...], serve/counter[...], serve/gauge[...] — keyed
	// by the full name left of '='. Stage-histogram lines (which carry
	// two fields) are skipped; counters, not latency shapes, are what
	// cluster-level aggregation can meaningfully sum.
	Values map[string]int64
}

// ParseMetrics parses a statsserved /metrics body. Unparseable lines are
// skipped: the scrape format is owned by this repo, but a gateway must
// tolerate version skew across backends.
func ParseMetrics(text string) BackendMetrics {
	bm := BackendMetrics{Values: make(map[string]int64)}
	for _, line := range strings.Split(text, "\n") {
		name, val, ok := strings.Cut(strings.TrimSpace(line), "=")
		if !ok || name == "" {
			continue
		}
		if name == "serve/instance" {
			bm.Instance = val
			continue
		}
		n, err := strconv.ParseInt(val, 10, 64)
		if err != nil {
			continue
		}
		bm.Values[name] = n
	}
	return bm
}

// LoadGauges extracts the routing load signal from a scrape.
func (bm BackendMetrics) LoadGauges() (active, occupancy, maxSessions int) {
	return int(bm.Values["serve/gauge[active_sessions]"]),
		int(bm.Values["serve/gauge[window_occupancy]"]),
		int(bm.Values["serve/gauge[max_sessions]"])
}

// WriteAggregate renders a set of backend scrapes as cluster-level
// metrics: per-backend lines prefixed backend[instance]/, then
// cluster/… sums across backends for every name seen anywhere. Backends
// and names are emitted in sorted order so the output is stable.
func WriteAggregate(w io.Writer, scrapes map[string]BackendMetrics) {
	totals := make(map[string]int64)
	for _, id := range slices.Sorted(maps.Keys(scrapes)) {
		for _, name := range slices.Sorted(maps.Keys(scrapes[id].Values)) {
			v := scrapes[id].Values[name]
			fmt.Fprintf(w, "backend[%s]/%s=%d\n", id, name, v)
			totals[name] += v
		}
	}
	for _, name := range slices.Sorted(maps.Keys(totals)) {
		fmt.Fprintf(w, "cluster/%s=%d\n", name, totals[name])
	}
}
