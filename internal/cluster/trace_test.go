package cluster

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"gostats/internal/workload"
)

// baselineCluster is the cluster shape of both committed simulations,
// as `statsgate -sim` flags: -sim-backends 8 -sim-slots 16 (and the
// default -burst 1).
var baselineCluster = Cluster{Backends: 8, SlotsPerBackend: 16, Burst: 1}

// generate expands spec into its trace, failing the test on a bad spec.
func generate(t testing.TB, spec *workload.Spec) *workload.Trace {
	t.Helper()
	tr, err := workload.Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// simGolden runs every policy over the seed-42 gateway traffic
// (examples/workload/gateway.json), as `statsgate -sim -json` does, and
// requires what that command prints to be the golden file byte for
// byte — so a file edited by hand or regenerated in part fails too. On a
// mismatch it names each policy and field that moved, decision hash first.
func simGolden(t *testing.T, c Cluster, file string) []PolicyResult {
	t.Helper()
	if testing.Short() {
		t.Skip("200k-session baseline replay skipped in -short")
	}
	ws, err := workload.Load("../../examples/workload/gateway.json")
	if err != nil {
		t.Fatal(err)
	}
	var ps []RoutingPolicy
	for _, name := range PolicyNames() {
		p, err := PolicyFor(name)
		if err != nil {
			t.Fatal(err)
		}
		ps = append(ps, p)
	}
	got, err := Compare(generate(t, ws), c, ps)
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
			t.Errorf("%s: decision hash diverged: %016x, baseline %016x — a trace or routing draw moved",
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

// TestGatewayBaselineRegression replays the seed-42 gateway traffic and
// requires every figure — including the decision-sequence hash — to
// match the golden file exactly. A moved hash means Generate's draws or
// the routing path changed; the test names the policy that diverged.
// Regenerate with
//
//	go run ./cmd/statsgate -sim -workload examples/workload/gateway.json -sim-backends 8 -sim-slots 16 -json > internal/cluster/testdata/gateway_seed42.golden.json
func TestGatewayBaselineRegression(t *testing.T) {
	simGolden(t, baselineCluster, "testdata/gateway_seed42.golden.json")
}

// TestMigrateBaselineRegression is the session-mobility cost model's
// equivalence gate, the migration analogue of the gateway test above:
// the committed seed-42 migration rows must reproduce exactly,
// decision hash included. A moved hash means the migration draws or the
// resume re-pick disturbed the decision sequence. Regenerate with
//
//	go run ./cmd/statsgate -sim -workload examples/workload/gateway.json -sim-backends 8 -sim-slots 16 -sim-migrate-rate 0.05 -sim-ckpt-cost 2ms -sim-resume-cost 5ms -json > internal/cluster/testdata/migration_seed42.golden.json
func TestMigrateBaselineRegression(t *testing.T) {
	c := baselineCluster
	c.Migration = MigrationSpec{Rate: 0.05, CheckpointCost: 2 * time.Millisecond, ResumeCost: 5 * time.Millisecond}
	for _, r := range simGolden(t, c, "testdata/migration_seed42.golden.json") {
		if r.Migrations == 0 {
			t.Errorf("%s: migration model drew no migrations", r.Policy)
		}
	}
}

// modulatedSpec exercises every workload seam at once: non-exponential
// laws, a weighted mix, and both modulator kinds.
func modulatedSpec() *workload.Spec {
	return &workload.Spec{
		Name: "modulated", Seed: 7, Sessions: 5000,
		Arrival:  workload.DistSpec{Dist: "gamma", Mean: workload.Duration(time.Millisecond), Shape: 2},
		Duration: workload.DistSpec{Dist: "weibull", Mean: workload.Duration(40 * time.Millisecond), Shape: 1.5},
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

// TestRecordReplayEquivalence: simulating a generated trace and the same
// trace after an NDJSON write→read round trip make bit-identical
// decisions, for plain and fully modulated specs alike — a recorded
// trace is as good as the spec it came from.
func TestRecordReplayEquivalence(t *testing.T) {
	specs := map[string]*workload.Spec{
		"exponential": expSpec(8000, 11),
		"modulated":   modulatedSpec(),
	}
	c := Cluster{Backends: 4, SlotsPerBackend: 8}
	for name, spec := range specs {
		t.Run(name, func(t *testing.T) {
			tr := generate(t, spec)
			var buf bytes.Buffer
			if _, err := tr.WriteTo(&buf); err != nil {
				t.Fatal(err)
			}
			replay, err := workload.ReadTrace(&buf)
			if err != nil {
				t.Fatalf("ReadTrace: %v", err)
			}
			for _, pname := range PolicyNames() {
				p, _ := PolicyFor(pname)
				direct, err := Simulate(tr, c, p)
				if err != nil {
					t.Fatalf("%s direct: %v", pname, err)
				}
				replayed, err := Simulate(replay, c, p)
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

// TestRecordTraceByteStable: recording the modulated spec is a pure
// function of the spec — two generated traces serialize to identical
// bytes, and a write→read round trip through a file reproduces the
// sessions exactly.
func TestRecordTraceByteStable(t *testing.T) {
	a := generate(t, modulatedSpec())
	b := generate(t, modulatedSpec())
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
// trace still yields identical results run to run — Simulate carries no
// hidden state across calls.
func TestModulatedSimDeterminism(t *testing.T) {
	tr := generate(t, modulatedSpec())
	c := Cluster{Backends: 4, SlotsPerBackend: 8}
	a, err := Simulate(tr, c, LeastLoaded{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Simulate(tr, c, LeastLoaded{})
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

// TestSimRejectsUnreplayableTrace: a trace whose clock runs backwards or
// whose seq skips is refused by ReadTrace, and a session without a
// positive slot-hold time by Simulate — each error naming the session.
func TestSimRejectsUnreplayableTrace(t *testing.T) {
	read := map[string]string{
		"at_ns decreases": `{"trace":"t","seed":1,"sessions":3}
{"seq":0,"at_ns":0,"benchmark":"a","duration_ns":5}
{"seq":1,"at_ns":10,"benchmark":"a","duration_ns":5}
{"seq":2,"at_ns":9,"benchmark":"a","duration_ns":5}
`,
		"seq skips": `{"trace":"t","seed":1,"sessions":3}
{"seq":0,"at_ns":0,"benchmark":"a","duration_ns":5}
{"seq":1,"at_ns":10,"benchmark":"a","duration_ns":5}
{"seq":3,"at_ns":20,"benchmark":"a","duration_ns":5}
`,
	}
	for name, in := range read {
		_, err := workload.ReadTrace(strings.NewReader(in))
		if err == nil || !strings.Contains(err.Error(), "session 2") {
			t.Errorf("%s: ReadTrace returned %v, want an error naming session 2", name, err)
		}
	}

	// A spec without a duration law gives every session duration_ns 0:
	// replayed, each would depart at its own arrival and a 2×1 cluster
	// would complete all 24 without a shed.
	ws := expSpec(24, 42)
	ws.Duration = workload.DistSpec{}
	tr := generate(t, ws)
	c := Cluster{Backends: 2, SlotsPerBackend: 1}
	if _, err := Simulate(tr, c, RoundRobin{}); err == nil || !strings.Contains(err.Error(), "session 0") {
		t.Errorf("trace without durations: Simulate returned %v, want an error naming session 0", err)
	}
	tr = generate(t, expSpec(24, 42))
	tr.Sessions[5].DurationNS = -1
	if _, err := Simulate(tr, c, RoundRobin{}); err == nil || !strings.Contains(err.Error(), "session 5") {
		t.Errorf("negative duration: Simulate returned %v, want an error naming session 5", err)
	}
}
