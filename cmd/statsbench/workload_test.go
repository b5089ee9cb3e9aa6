package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"testing"
)

// TestWorkloadGolden replays the example spec through real adaptive
// pipelines and requires what `statsbench -workload` would print to be the
// committed golden file, byte for byte: sessions, inputs, commits, aborts,
// resizes and the chunk-size envelope per benchmark and per arrival phase
// are a function of the spec alone, at any GOMAXPROCS and under -race. The
// bytes are compared, not the decoded values, so a golden edited by hand or
// regenerated in part fails too. Regenerate with
//
//	go run ./cmd/statsbench -workload examples/workload/nonstationary.json > cmd/statsbench/testdata/nonstationary.golden.json
func TestWorkloadGolden(t *testing.T) {
	var out bytes.Buffer
	if err := runWorkload("../../examples/workload/nonstationary.json", &out); err != nil {
		t.Fatal(err)
	}
	golden, err := os.ReadFile("testdata/nonstationary.golden.json")
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(out.Bytes(), golden) {
		return
	}
	var got, want workloadReport
	if err := json.Unmarshal(out.Bytes(), &got); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(golden, &want); err != nil {
		t.Fatalf("golden: %v", err)
	}
	for name, w := range want.Rows {
		if g := got.Rows[name]; g != nil {
			diffFields(t, "row "+name, *g, *w)
		} else {
			t.Errorf("row %s: in the golden, not in the replay", name)
		}
	}
	for name := range got.Rows {
		if want.Rows[name] == nil {
			t.Errorf("row %s: in the replay, not in the golden", name)
		}
	}
	for i := 0; i < len(got.Phases) && i < len(want.Phases); i++ {
		diffFields(t, fmt.Sprintf("phase %d", i), got.Phases[i], want.Phases[i])
	}
	if len(got.Phases) != len(want.Phases) {
		t.Errorf("%d phases, golden has %d", len(got.Phases), len(want.Phases))
	}
	got.Rows, want.Rows, got.Phases, want.Phases = nil, nil, nil, nil
	diffFields(t, "report", got, want)
	if !t.Failed() {
		t.Error("golden decodes to the replayed report but is not the bytes statsbench -workload prints: regenerate it whole")
	}
}

// diffFields reports each field of two values of one struct type that differs.
func diffFields(t *testing.T, row string, got, want any) {
	t.Helper()
	g, w := reflect.ValueOf(got), reflect.ValueOf(want)
	for i := 0; i < g.NumField(); i++ {
		if gf, wf := g.Field(i).Interface(), w.Field(i).Interface(); !reflect.DeepEqual(gf, wf) {
			t.Errorf("%s: %s is %v, golden has %v", row, g.Type().Field(i).Name, gf, wf)
		}
	}
}
