package main

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"gostats/internal/engine"
	"gostats/internal/serve"
	"gostats/internal/workload"
)

// drive runs statsload against target and returns its -out report.
func drive(t *testing.T, target, spec, replay, record string) loadReport {
	t.Helper()
	out := filepath.Join(t.TempDir(), "report.json")
	if err := run(spec, replay, record, target, 1, 4, time.Minute, out, false); err != nil {
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
// spec, recording its trace, then replays the recording: both runs must
// report the same rows. A trace in the older format, whose lines also
// carry a slot-hold time per session (testdata/small_durations.ndjson,
// small.json's trace recorded with a duration law in the spec), must
// load and give the same rows too.
func TestSpecRecordReplay(t *testing.T) {
	app := serve.New(engine.StreamConfig{ChunkSize: 8, Lookback: 3, ExtraStates: 1, Workers: 2, Seed: 7}, serve.Options{})
	ts := httptest.NewServer(app.Handler())
	t.Cleanup(ts.Close)

	rec := filepath.Join(t.TempDir(), "trace.ndjson")
	spec := drive(t, ts.URL, "testdata/small.json", "", rec)
	if spec.Sessions != 4 || spec.Failures != 0 || len(spec.Rows) != 3 {
		t.Fatalf("spec run: %d sessions, %d failures, %d rows; want 4, 0 and one row per benchmark",
			spec.Sessions, spec.Failures, len(spec.Rows))
	}
	for name, r := range spec.Rows {
		if r.Inputs == 0 || r.Outputs != r.Inputs || r.Commits+r.Aborts == 0 {
			t.Errorf("%s: %d inputs, %d outputs, %d commits, %d aborts", name, r.Inputs, r.Outputs, r.Commits, r.Aborts)
		}
	}
	sameRun(t, "replay", drive(t, ts.URL, "", rec, ""), spec)

	older := "testdata/small_durations.ndjson"
	sameRun(t, "older-format replay", drive(t, ts.URL, "", older, ""), spec)
	a, err := workload.LoadTrace(rec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := workload.LoadTrace(older)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Errorf("the older trace reads as other sessions:\n%+v\n%+v", b.Sessions, a.Sessions)
	}
	recRaw, err := os.ReadFile(rec)
	if err != nil {
		t.Fatal(err)
	}
	oldRaw, err := os.ReadFile(older)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(recRaw, oldRaw) {
		t.Error("the older trace is byte-identical to a new recording: it no longer tests an extra field")
	}
}
