package cluster

import (
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"gostats/internal/workload"
)

// modulatedSpec exercises every workload seam at once: an arrival law, a
// length law, a weighted mix and both modulator kinds.
func modulatedSpec() *workload.Spec {
	return &workload.Spec{
		Name: "modulated", Seed: 7, Sessions: 5000,
		Arrival: workload.DistSpec{Dist: "exponential", Mean: workload.Duration(time.Millisecond)},
		Length:  workload.DistSpec{Dist: "poisson", Lambda: 64},
		Mix: []workload.MixEntry{
			{Benchmark: "facetrack", Weight: 3},
			{Benchmark: "dedupstream", Weight: 1},
		},
		Modulators: []workload.ModSpec{
			{Kind: "diurnal", Period: workload.Duration(time.Second), Depth: 0.5},
			{Kind: "onoff", OnMean: workload.Duration(200 * time.Millisecond),
				OffMean: workload.Duration(100 * time.Millisecond), OffFactor: 0.25},
		},
	}
}

// TestRecordTraceByteStable: recording the modulated spec is a pure
// function of the spec — two generated traces serialize to identical
// bytes, and a write→read round trip through a file, the path
// statsload -record writes and -replay reads, reproduces the sessions
// exactly.
func TestRecordTraceByteStable(t *testing.T) {
	a, err := workload.Generate(modulatedSpec())
	if err != nil {
		t.Fatal(err)
	}
	b, err := workload.Generate(modulatedSpec())
	if err != nil {
		t.Fatal(err)
	}
	path := t.TempDir() + "/trace.ndjson"
	if err := a.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	raw1, _ := os.ReadFile(path)
	if err := b.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	raw2, _ := os.ReadFile(path)
	if string(raw1) != string(raw2) {
		t.Fatal("two recordings of the same spec serialized differently")
	}
	rt, err := workload.LoadTrace(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rt.Sessions, a.Sessions) {
		t.Fatal("trace round trip changed the sessions")
	}
}

// TestSimRejectsUnreplayableTrace: a trace is replayed as a clock, so a
// trace whose clock runs backwards or whose seq skips is refused by
// ReadTrace, the error naming the session.
func TestSimRejectsUnreplayableTrace(t *testing.T) {
	read := map[string]string{
		"at_ns decreases": `{"trace":"t","seed":1,"sessions":3}
{"seq":0,"at_ns":0,"benchmark":"a","inputs":5}
{"seq":1,"at_ns":10,"benchmark":"a","inputs":5}
{"seq":2,"at_ns":9,"benchmark":"a","inputs":5}
`,
		"seq skips": `{"trace":"t","seed":1,"sessions":3}
{"seq":0,"at_ns":0,"benchmark":"a","inputs":5}
{"seq":1,"at_ns":10,"benchmark":"a","inputs":5}
{"seq":3,"at_ns":20,"benchmark":"a","inputs":5}
`,
	}
	for name, in := range read {
		_, err := workload.ReadTrace(strings.NewReader(in))
		if err == nil || !strings.Contains(err.Error(), "session 2") {
			t.Errorf("%s: ReadTrace returned %v, want an error naming session 2", name, err)
		}
	}
}
