package main

import (
	"bytes"
	"os"
	"strings"
	"testing"
)

// goldenRuns are the statsbench invocations whose output, concatenated,
// is testdata/artifacts.golden.txt: every simulated artifact but table2 on
// three cheap benchmarks, then table2 on the cheapest one (table2 runs the
// cache simulator, seconds per benchmark).
var goldenRuns = [][]string{
	{"-only", "table1,fig9,fig10,fig11,fig12,fig13,fig14,fig16,scaling,ablation-copy,ablation-sync,ablation-lookback,ablation-extrastates",
		"-benchmarks", "streamcluster,streamclassifier,facetrack", "-cores", "4", "-quality-runs", "2"},
	{"-only", "table2", "-benchmarks", "facetrack", "-cores", "4"},
}

// TestArtifactsGolden requires the simulated paper artifacts to be the
// committed golden file, byte for byte: every table is a pure function of
// the seeds, so a change to the simulator, the protocol, the tuned table or
// a renderer that moves a figure fails here and names the first line it
// moved. Regenerate the file whole, never by hand:
//
//	(go run ./cmd/statsbench -only table1,fig9,fig10,fig11,fig12,fig13,fig14,fig16,scaling,ablation-copy,ablation-sync,ablation-lookback,ablation-extrastates -benchmarks streamcluster,streamclassifier,facetrack -cores 4 -quality-runs 2; go run ./cmd/statsbench -only table2 -benchmarks facetrack -cores 4) > cmd/statsbench/testdata/artifacts.golden.txt
func TestArtifactsGolden(t *testing.T) {
	var out bytes.Buffer
	for _, args := range goldenRuns {
		if err := run(args, &out); err != nil {
			t.Fatalf("statsbench %s: %v", strings.Join(args, " "), err)
		}
	}
	compareGolden(t, out.Bytes(), "testdata/artifacts.golden.txt")
}

// compareGolden fails t unless got is the file's bytes, naming the first
// line that differs.
func compareGolden(t *testing.T, got []byte, path string) {
	t.Helper()
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got, want) {
		return
	}
	g, w := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(g) && i < len(w); i++ {
		if g[i] != w[i] {
			t.Fatalf("%s line %d:\n got: %q\nwant: %q", path, i+1, g[i], w[i])
		}
	}
	t.Fatalf("%s: output has %d lines, golden has %d", path, len(g), len(w))
}

// TestProfileGolden pins the profile artifact the way TestArtifactsGolden
// pins the paper's: each mode's accounting, critical path and what-if
// makespans at the golden configuration. Regenerate with
//
//	go run ./cmd/statsbench -only profile -benchmarks streamcluster,streamclassifier,facetrack -cores 4 > cmd/statsbench/testdata/profile.golden.txt
func TestProfileGolden(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-only", "profile", "-benchmarks", "streamcluster,streamclassifier,facetrack", "-cores", "4"}, &out); err != nil {
		t.Fatal(err)
	}
	compareGolden(t, out.Bytes(), "testdata/profile.golden.txt")
}

// TestProfileOverridesFluidanimate runs EXPERIMENTS.md's excluded-benchmark
// result through the override flags: fluidanimate has no short memory, so
// at 28 forced chunks 26 speculations abort and seq-stats runs slower than
// sequential.
func TestProfileOverridesFluidanimate(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-only", "profile", "-benchmarks", "fluidanimate", "-cores", "28",
		"-chunks", "28", "-lookback", "10", "-extra", "1"}, &out); err != nil {
		t.Fatal(err)
	}
	rows := map[string][]string{}
	for _, line := range strings.Split(out.String(), "\n") {
		cells := strings.Split(line, "|")
		if len(cells) < 12 {
			continue
		}
		for i := range cells {
			cells[i] = strings.TrimSpace(cells[i])
		}
		if _, seen := rows[cells[1]]; !seen {
			rows[cells[1]] = cells[1:]
		}
	}
	// mode, config, cycles, speedup, instructions, chunks, commits, aborts
	want := map[string][]string{
		"sequential": {"sequential", "-", "2.835G", "1.00x"},
		"seq-stats":  {"seq-stats", "chunks=28 k=10 extra=1 width=1", "4.252G", "0.67x", "14.09B (+247.9%)", "28", "2", "26"},
	}
	for mode, w := range want {
		got := rows[mode]
		if len(got) < len(w) {
			t.Fatalf("no %s row in:\n%s", mode, out.String())
		}
		for i := range w {
			if got[i] != w[i] {
				t.Errorf("%s column %d = %q, want %q", mode, i, got[i], w[i])
			}
		}
	}
}

// TestListFlagsTrim holds -only, -benchmarks and -cores to one parser: an
// entry with spaces around it names the same artifact, benchmark or core
// count as one without.
func TestListFlagsTrim(t *testing.T) {
	var spaced, plain bytes.Buffer
	if err := run([]string{"-only", "table1, fig9", "-benchmarks", "facetrack, streamcluster", "-cores", " 4"}, &spaced); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-only", "table1,fig9", "-benchmarks", "facetrack,streamcluster", "-cores", "4"}, &plain); err != nil {
		t.Fatal(err)
	}
	if spaced.String() != plain.String() {
		t.Fatalf("spaced lists print\n%s\nplain lists print\n%s", spaced.String(), plain.String())
	}
}
