package main

import (
	"encoding/json"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"gostats/internal/engine"
	"gostats/internal/serve"
)

// drive runs statsload against target and returns its -out report.
func drive(t *testing.T, target, spec string) loadReport {
	t.Helper()
	out := filepath.Join(t.TempDir(), "report.json")
	if err := run(spec, target, 1, 4, time.Minute, out, false); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var rep loadReport
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatal(err)
	}
	return rep
}

// sameRun requires two reports to describe the same sessions with the
// same per-benchmark trailers; only the elapsed wall time may differ.
func sameRun(t *testing.T, what string, got, want loadReport) {
	t.Helper()
	if got.Trace != want.Trace || got.Seed != want.Seed || got.Sessions != want.Sessions || got.Failures != want.Failures {
		t.Errorf("%s: report header %s/%d/%d sessions/%d failures, want %s/%d/%d/%d", what,
			got.Trace, got.Seed, got.Sessions, got.Failures, want.Trace, want.Seed, want.Sessions, want.Failures)
	}
	if !reflect.DeepEqual(got.Rows, want.Rows) {
		t.Errorf("%s: rows differ:\n got %+v\nwant %+v", what, got.Rows, want.Rows)
	}
}

// TestSpecRecordReplay drives an in-process statsserved with a small
// spec twice: both runs must report the same rows, because the spec
// alone names every session's benchmark, length and input bytes.
func TestSpecRecordReplay(t *testing.T) {
	app := serve.New(engine.StreamConfig{ChunkSize: 8, Lookback: 3, ExtraStates: 1, Workers: 2, Seed: 7}, serve.Options{})
	ts := httptest.NewServer(app.Handler())
	t.Cleanup(ts.Close)

	spec := drive(t, ts.URL, "testdata/small.json")
	if spec.Trace != "small" || spec.Sessions != 4 || spec.Failures != 0 || len(spec.Rows) != 3 {
		t.Fatalf("spec run: trace %q, %d sessions, %d failures, %d rows; want small, 4, 0 and one row per benchmark",
			spec.Trace, spec.Sessions, spec.Failures, len(spec.Rows))
	}
	for name, r := range spec.Rows {
		if r.Inputs == 0 || r.Outputs != r.Inputs || r.Commits+r.Aborts == 0 {
			t.Errorf("%s: %d inputs, %d outputs, %d commits, %d aborts", name, r.Inputs, r.Outputs, r.Commits, r.Aborts)
		}
	}
	sameRun(t, "second run", drive(t, ts.URL, "testdata/small.json"), spec)
}
