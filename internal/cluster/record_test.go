package cluster

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"testing"
	"time"

	"gostats/internal/workload"
)

// baselineSpec is the seed-42 arrival spec of both committed simulations,
// as `statsgate -sim` flags: -sim-sessions 200000 -sim-backends 8
// -sim-slots 16 -sim-arrival 1ms -sim-duration 100ms -sim-seed 42.
func baselineSpec() ArrivalSpec {
	return ArrivalSpec{
		Sessions:         200000,
		Backends:         8,
		SlotsPerBackend:  16,
		MeanInterarrival: time.Millisecond,
		MeanDuration:     100 * time.Millisecond,
		Burst:            1,
		Seed:             42,
	}
}

// simGolden runs every policy over spec, as `statsgate -sim -json` does,
// and requires what that command prints to be the golden file byte for
// byte — so a file edited by hand or regenerated in part fails too. On a
// mismatch it names each policy and field that moved, decision hash first.
func simGolden(t *testing.T, spec ArrivalSpec, file string) []PolicyResult {
	t.Helper()
	if testing.Short() {
		t.Skip("200k-session baseline replay skipped in -short")
	}
	var ps []RoutingPolicy
	for _, name := range PolicyNames() {
		p, err := PolicyFor(name)
		if err != nil {
			t.Fatal(err)
		}
		ps = append(ps, p)
	}
	got, err := Compare(spec, ps)
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	enc := json.NewEncoder(&out)
	enc.SetIndent("", " ")
	if err := enc.Encode(got); err != nil {
		t.Fatal(err)
	}
	golden, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(out.Bytes(), golden) {
		return got
	}
	var want []PolicyResult
	if err := json.Unmarshal(golden, &want); err != nil {
		t.Fatalf("%s: %v", file, err)
	}
	if len(want) != len(got) {
		t.Fatalf("%s: %d rows, simulated %d policies", file, len(want), len(got))
	}
	for i, g := range got {
		w := want[i]
		if g.Decisions != w.Decisions {
			t.Errorf("%s: decision hash diverged: %016x, baseline %016x — the workload seam disturbed a draw",
				g.Policy, g.Decisions, w.Decisions)
		}
		gv, wv := reflect.ValueOf(g), reflect.ValueOf(w)
		for f := 0; f < gv.NumField(); f++ {
			if gf, wf := gv.Field(f).Interface(), wv.Field(f).Interface(); !reflect.DeepEqual(gf, wf) {
				t.Errorf("%s: %s is %v, golden has %v", g.Policy, gv.Type().Field(f).Name, gf, wf)
			}
		}
	}
	if !t.Failed() {
		t.Errorf("%s decodes to the simulated rows but is not the bytes statsgate -sim -json prints: regenerate it whole", file)
	}
	return got
}

// TestGatewayBaselineRegression re-runs the committed seed-42 simulation
// through the workload-distribution seam and requires every figure —
// including the decision-sequence hash — to match the golden file
// exactly. This is the refactor's equivalence gate: if the
// Distribution/Mix indirection ever disturbs a single draw, the hash
// moves and this test names the policy that diverged. Regenerate with
//
//	go run ./cmd/statsgate -sim -sim-sessions 200000 -sim-backends 8 -sim-slots 16 -sim-arrival 1ms -sim-duration 100ms -sim-seed 42 -json > internal/cluster/testdata/gateway_seed42.golden.json
func TestGatewayBaselineRegression(t *testing.T) {
	simGolden(t, baselineSpec(), "testdata/gateway_seed42.golden.json")
}

// TestMigrateBaselineRegression is the session-mobility cost model's
// equivalence gate, the migration analogue of the gateway test above:
// the committed seed-42 migration rows must reproduce exactly,
// decision hash included. A moved hash means the migration draws or the
// resume re-pick disturbed the decision sequence. Regenerate with
//
//	go run ./cmd/statsgate -sim -sim-sessions 200000 -sim-backends 8 -sim-slots 16 -sim-arrival 1ms -sim-duration 100ms -sim-seed 42 -sim-migrate-rate 0.05 -sim-ckpt-cost 2ms -sim-resume-cost 5ms -json > internal/cluster/testdata/migration_seed42.golden.json
func TestMigrateBaselineRegression(t *testing.T) {
	spec := baselineSpec()
	spec.Migration = MigrationSpec{Rate: 0.05, CheckpointCost: 2 * time.Millisecond, ResumeCost: 5 * time.Millisecond}
	for _, r := range simGolden(t, spec, "testdata/migration_seed42.golden.json") {
		if r.Migrations == 0 {
			t.Errorf("%s: migration model drew no migrations", r.Policy)
		}
	}
}

// modulatedSpec exercises every workload seam at once: non-exponential
// laws, a weighted mix, and both modulator kinds.
func modulatedSpec() ArrivalSpec {
	mix, _ := workload.NewMix([]workload.MixEntry{
		{Benchmark: "facetrack", Weight: 3},
		{Benchmark: "dedupstream", Weight: 1},
	})
	return ArrivalSpec{
		Sessions:        5000,
		Backends:        4,
		SlotsPerBackend: 8,
		Seed:            7,
		Arrival:         workload.Gamma{K: 2, MeanV: float64(time.Millisecond)},
		Duration:        workload.Weibull{K: 1.5, MeanV: float64(40 * time.Millisecond)},
		Mix:             mix,
		Modulators: []workload.ModSpec{
			{Kind: "diurnal", Period: workload.Duration(time.Second), Depth: 0.5},
			{Kind: "onoff", OnMean: workload.Duration(200 * time.Millisecond),
				OffMean: workload.Duration(100 * time.Millisecond), OffFactor: 0.25},
		},
	}
}

// TestRecordReplayEquivalence: simulating a spec directly and simulating
// the trace Record froze from it must make bit-identical decisions, for
// plain and fully modulated specs alike.
func TestRecordReplayEquivalence(t *testing.T) {
	specs := map[string]ArrivalSpec{
		"exponential": {
			Sessions: 8000, Backends: 4, SlotsPerBackend: 8,
			MeanInterarrival: time.Millisecond, MeanDuration: 25 * time.Millisecond, Seed: 11,
		},
		"modulated": modulatedSpec(),
	}
	for name, spec := range specs {
		t.Run(name, func(t *testing.T) {
			tr, err := Record(spec)
			if err != nil {
				t.Fatalf("Record: %v", err)
			}
			if len(tr.Sessions) != spec.Sessions {
				t.Fatalf("Record produced %d sessions, want %d", len(tr.Sessions), spec.Sessions)
			}
			replay := spec
			replay.Trace = tr
			for _, pname := range PolicyNames() {
				p, _ := PolicyFor(pname)
				direct, err := Simulate(spec, p)
				if err != nil {
					t.Fatalf("%s direct: %v", pname, err)
				}
				replayed, err := Simulate(replay, p)
				if err != nil {
					t.Fatalf("%s replay: %v", pname, err)
				}
				if !reflect.DeepEqual(direct, replayed) {
					t.Errorf("%s: replaying the recorded trace diverged:\n direct %+v\n replay %+v",
						pname, direct, replayed)
				}
			}
		})
	}
}

// TestRecordTraceByteStable: Record is a pure function of the spec — two
// recordings serialize to identical bytes, and a write→read round trip
// reproduces the sessions exactly.
func TestRecordTraceByteStable(t *testing.T) {
	spec := modulatedSpec()
	a, err := Record(spec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Record(spec)
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

// TestModulatedSimDeterminism: a modulated, weighted, non-exponential
// spec still yields identical results run to run — the workload layer
// introduces no hidden state across Simulate calls.
func TestModulatedSimDeterminism(t *testing.T) {
	spec := modulatedSpec()
	p, err := PolicyFor("leastloaded")
	if err != nil {
		t.Fatal(err)
	}
	a, err := Simulate(spec, p)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Simulate(spec, p)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("modulated simulation not deterministic:\n first %+v\nsecond %+v", a, b)
	}
	if a.Completed == 0 {
		t.Fatal("modulated simulation completed no sessions")
	}
}

// TestSpecFromWorkload: a spec file maps onto the simulator and runs;
// a spec without a duration law is rejected with a pointed error.
func TestSpecFromWorkload(t *testing.T) {
	ws := &workload.Spec{
		Name: "t", Seed: 5, Sessions: 2000,
		Arrival:  workload.DistSpec{Dist: "exponential", Mean: workload.Duration(time.Millisecond)},
		Duration: workload.DistSpec{Dist: "gamma", Mean: workload.Duration(30 * time.Millisecond), Shape: 2},
		Mix:      []workload.MixEntry{{Benchmark: "facetrack"}, {Benchmark: "streamcluster"}},
	}
	spec, err := SpecFromWorkload(ws, 4, 8, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	p, _ := PolicyFor("roundrobin")
	res, err := Simulate(spec, p)
	if err != nil {
		t.Fatal(err)
	}
	if res.Sessions != ws.Sessions || res.Completed == 0 {
		t.Fatalf("unexpected result: %+v", res)
	}

	ws.Duration = workload.DistSpec{}
	if _, err := SpecFromWorkload(ws, 4, 8, 0, 1); err == nil {
		t.Fatal("SpecFromWorkload accepted a spec with no duration law")
	}
}
