package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"gostats/internal/engine"
)

// span is one interval at a layer boundary: run -> pair -> pass -> session
// -> {wire request, chunk stage, snapshot}. Times are ns since the run
// began. All spans are recorded from benchmark/ — around calls into a layer,
// or from the engine's public event stream; spans inside the program are a
// later issue.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"` // 0: none
	Session int    `json:"session,omitempty"`
	Name    string `json:"name"`
	Start   int64  `json:"start"`
	End     int64  `json:"end"`
}

// tracer holds a traced run's spans, counters and call timers in memory; it
// is written out once, when the run ends.
type tracer struct {
	t0  time.Time
	ops layerOps
	on  atomic.Bool // false outside traced passes: events are dropped

	counters engine.Counters
	pushWait atomic.Int64 // ns producers spent blocked in Push
	session  atomic.Int64 // span ID of the session in flight (one at a time)

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) since(at time.Time) int64 { return int64(at.Sub(t.t0)) }

// open starts a span under parent (0: none) and returns its ID. A span
// opened while a session is in flight carries that session's ID.
func (t *tracer) open(name string, parent int) int {
	now := t.since(time.Now())
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Session: int(t.session.Load()), Name: name, Start: now})
	return id
}

// child is open for code that runs traced and untraced alike: under parent 0
// — an untraced pass, where the tracer may be nil — it records nothing and
// returns 0, which end ignores.
func (t *tracer) child(name string, parent int) int {
	if parent == 0 {
		return 0
	}
	return t.open(name, parent)
}

func (t *tracer) end(id int) {
	if id == 0 {
		return
	}
	now := t.since(time.Now())
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// add records a span whose interval was measured elsewhere, as a child of
// the session in flight.
func (t *tracer) add(name string, start time.Time, dur time.Duration) {
	parent := int(t.session.Load())
	s := t.since(start)
	t.mu.Lock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Session: parent, Name: name, Start: s, End: s + int64(dur)})
	t.mu.Unlock()
}

// Stage span names, from the engine events that carry a measured interval.
const (
	spanSpeculate = "chunk.speculate"
	spanValidate  = "chunk.validate"
	spanCommit    = "chunk.commit"
	spanReexec    = "chunk.reexec"
	spanSnapshot  = "snapshot"
	spanRequest   = "wire.request"
)

// Event implements engine.Sink: the traced passes' sessions deliver their
// events here, in-process and served ones alike.
func (t *tracer) Event(e engine.Event) {
	if !t.on.Load() {
		return
	}
	t.counters.Event(e)
	switch e.Kind {
	case engine.EvSpeculated:
		t.add(spanSpeculate, e.Start, e.Dur)
	case engine.EvValidated:
		t.add(spanValidate, e.Start, e.Dur)
	case engine.EvOutputs:
		t.add(spanCommit, e.Start, e.Dur)
	case engine.EvReexec:
		t.add(spanReexec, e.Start, e.Dur)
	case engine.EvIngestWait:
		t.pushWait.Add(int64(e.Dur))
	}
}

// durations returns the lengths in ns of every span called name.
func (t *tracer) durations(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start))
		}
	}
	return out
}

// selfTimes returns each span's self time by ID: its duration minus the part
// of its interval that its child spans cover. Children may overlap one
// another (chunk stages run on several workers at once) and may stick out of
// the parent (a stage measured on another clock read); covered time is the
// union of the children clipped to the parent.
func selfTimes(spans []span) map[int]int64 {
	kids := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	self := make(map[int]int64, len(spans))
	for _, p := range spans {
		ks := kids[p.ID]
		sort.Slice(ks, func(i, j int) bool { return ks[i].Start < ks[j].Start })
		var covered int64
		at := p.Start // everything before at is already counted
		for _, k := range ks {
			lo, hi := max(k.Start, at), min(k.End, p.End)
			if hi > lo {
				covered += hi - lo
				at = hi
			}
		}
		self[p.ID] = (p.End - p.Start) - covered
	}
	return self
}

// traceFile is what a traced run leaves in benchmark/out/.
type traceFile struct {
	Workload string               `json:"workload"`
	Seed     uint64               `json:"seed"`
	Ops      map[string]opSummary `json:"ops"`     // call counts and sample counts behind every p50
	SelfNs   map[string]int64     `json:"self_ns"` // self time summed by span name
	Samples  map[string]int       `json:"samples"` // sample counts of the probes' percentiles
	Spans    []span               `json:"spans"`
}

// write stores the trace under dir as <workload>.trace.json.
func (t *tracer) write(dir, workload string, seed uint64, samples map[string]int) error {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	f := traceFile{Workload: workload, Seed: seed, Samples: samples, Spans: spans,
		Ops: map[string]opSummary{}, SelfNs: map[string]int64{}}
	for name, o := range map[string]*opTimer{
		"bench.update": &t.ops.update, "bench.clone": &t.ops.clone, "bench.match": &t.ops.match,
		"bench.fingerprint":  &t.ops.fingerprint,
		"codec.decode_input": &t.ops.decodeInput, "codec.encode_input": &t.ops.encodeInput,
		"codec.encode_output": &t.ops.encodeOutput, "codec.decode_output": &t.ops.decodeOutput,
		"codec.encode_state": &t.ops.encodeState, "codec.decode_state": &t.ops.decodeState,
		"checkpoint.snapshot": &t.ops.snapshot,
	} {
		f.Ops[name] = o.summary()
	}
	byID := selfTimes(spans)
	for _, s := range spans {
		f.SelfNs[s.Name] += byID[s.ID]
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(f)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, workload+".trace.json"), data, 0o644)
}
