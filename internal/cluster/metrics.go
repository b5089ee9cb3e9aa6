package cluster

import (
	"io"
	"maps"
	"slices"
	"strconv"
	"strings"
	"sync/atomic"
)

// A /metrics page is text, one name=value line per value: the name is
// everything left of the first '=', the value a decimal int64. Every
// page statsserved and statsgate serve is rendered by WriteMetrics and
// read by ParseMetrics, its inverse.
//
// A name is a path: a scope (stream, serve, gate, backend[id], cluster),
// then a kind with its label in brackets (counter[…], gauge[…],
// stage[…]), then for a stage histogram the bin and the field (count,
// total_ns). A last segment p<q>_ns is an estimated quantile, the one
// kind of value a sum across backends does not mean anything for.

// GateMetrics counts what the gateway itself did, as opposed to the
// backend metrics it aggregates.
type GateMetrics struct {
	Reroutes      atomic.Int64 // backend sheds retried on another backend
	Migrations    atomic.Int64 // sessions resumed on another backend mid-stream
	ShedCapacity  atomic.Int64 // sessions 429d with every backend refusing
	BackendErrors atomic.Int64 // transport errors talking to backends
}

// Put adds the gateway's own values to page: its counters, one
// gate/backend[id]/ line per routing-table field of every backend
// (health as its Health code), and sessions_routed, the sum of the
// backends' routed counts.
func (m *GateMetrics) Put(page map[string]int64, backends []Backend) {
	page["gate/counter[backend_errors]"] = m.BackendErrors.Load()
	page["gate/counter[migrations]"] = m.Migrations.Load()
	page["gate/counter[reroutes]"] = m.Reroutes.Load()
	page["gate/counter[sessions_shed_capacity]"] = m.ShedCapacity.Load()
	var routed int64
	for _, b := range backends {
		row := "gate/backend[" + b.ID + "]/"
		page[row+"routed"] = b.Routed
		page[row+"shed"] = b.Shed
		page[row+"inflight"] = int64(b.InFlight)
		page[row+"health"] = int64(b.Health)
		routed += b.Routed
	}
	page["gate/counter[sessions_routed]"] = routed
}

// BackendMetrics is one page: a backend's /metrics scrape as parsed, or
// the values a server is about to write.
type BackendMetrics struct {
	// Values holds every line of the page, keyed by the full name left
	// of '='.
	Values map[string]int64
}

// WriteMetrics renders bm as a page, one line per value, sorted by name.
// A name must not start with a space or hold '=' or a line break; then
// ParseMetrics reads back exactly bm.
func WriteMetrics(w io.Writer, bm BackendMetrics) error {
	var buf []byte
	for _, name := range slices.Sorted(maps.Keys(bm.Values)) {
		buf = append(append(buf, name...), '=')
		buf = append(strconv.AppendInt(buf, bm.Values[name], 10), '\n')
	}
	_, err := w.Write(buf)
	return err
}

// ParseMetrics parses a page. Lines that do not parse are skipped: the
// page format is owned by this repo, but a gateway must tolerate
// version skew across backends.
func ParseMetrics(text string) BackendMetrics {
	bm := BackendMetrics{Values: make(map[string]int64, strings.Count(text, "\n"))}
	for text != "" {
		var line string
		line, text, _ = strings.Cut(text, "\n")
		name, val, ok := strings.Cut(strings.TrimSpace(line), "=")
		if !ok || name == "" {
			continue
		}
		if n, err := strconv.ParseInt(val, 10, 64); err == nil {
			bm.Values[name] = n
		}
	}
	return bm
}

// Aggregate adds one backend's scraped values to page, each under
// backend[id]/ and, quantile estimates apart, summed under cluster/
// with every other backend's.
func Aggregate(page map[string]int64, id string, values map[string]int64) {
	for _, name := range slices.Sorted(maps.Keys(values)) {
		v := values[name]
		page["backend["+id+"]/"+name] = v
		if !isQuantile(name) {
			page["cluster/"+name] += v
		}
	}
}

// isQuantile reports whether name's last segment is p<q>_ns.
func isQuantile(name string) bool {
	last := name[strings.LastIndexByte(name, '/')+1:]
	return strings.HasPrefix(last, "p") && strings.HasSuffix(last, "_ns")
}
