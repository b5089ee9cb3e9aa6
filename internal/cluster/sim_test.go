package cluster

import (
	"reflect"
	"testing"
	"time"

	"gostats/internal/workload"
)

// expSpec is the gateway baseline's traffic at another size and seed:
// exponential 1 ms arrivals and 100 ms sessions over a uniform mix of
// three benchmarks.
func expSpec(sessions int, seed uint64) *workload.Spec {
	return &workload.Spec{
		Name: "exp", Seed: seed, Sessions: sessions,
		Arrival:  workload.DistSpec{Dist: "exponential", Mean: workload.Duration(time.Millisecond)},
		Duration: workload.DistSpec{Dist: "exponential", Mean: workload.Duration(100 * time.Millisecond)},
		Mix: []workload.MixEntry{
			{Benchmark: "facetrack"}, {Benchmark: "streamcluster"}, {Benchmark: "streamclassifier"},
		},
	}
}

// simCluster is the baseline's cluster shape, overloaded by 20 000
// sessions of expSpec traffic.
var simCluster = Cluster{Backends: 8, SlotsPerBackend: 16}

func simTrace(t testing.TB) *workload.Trace { return generate(t, expSpec(20000, 42)) }

// TestClusterSimDeterministic: same trace + same cluster ⇒ identical
// routing decisions (the Decisions hash) and identical summary metrics,
// run to run, for every registered policy.
func TestClusterSimDeterministic(t *testing.T) {
	tr := simTrace(t)
	for _, name := range PolicyNames() {
		p, err := PolicyFor(name)
		if err != nil {
			t.Fatal(err)
		}
		a, err := Simulate(tr, simCluster, p)
		if err != nil {
			t.Fatal(err)
		}
		b, err := Simulate(tr, simCluster, p)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("%s: two runs differ:\n%+v\n%+v", name, a, b)
		}
		if a.Decisions == 0 {
			t.Fatalf("%s: empty decision hash", name)
		}
	}
}

// TestClusterSimSeedsDiffer: a different seed is a different workload trace —
// the decision hash must move (or the hash is vacuous).
func TestClusterSimSeedsDiffer(t *testing.T) {
	a, err := Simulate(simTrace(t), simCluster, RoundRobin{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Simulate(generate(t, expSpec(20000, 43)), simCluster, RoundRobin{})
	if err != nil {
		t.Fatal(err)
	}
	if a.Decisions == b.Decisions {
		t.Fatal("different seeds produced identical decision sequences")
	}
}

// TestClusterSimAccounting: every arrival is accounted exactly once, completed
// sessions equal admitted-minus-capacity-shed, the per-backend counts
// sum to completed, and fairness is a valid Jain index.
func TestClusterSimAccounting(t *testing.T) {
	tr := simTrace(t)
	c := simCluster
	c.Rate, c.Burst = 800, 50 // force some admission sheds too
	for _, name := range PolicyNames() {
		p, _ := PolicyFor(name)
		r, err := Simulate(tr, c, p)
		if err != nil {
			t.Fatal(err)
		}
		if r.Admitted+r.ShedAdmission != r.Sessions {
			t.Fatalf("%s: admitted %d + shed %d != %d arrivals", name, r.Admitted, r.ShedAdmission, r.Sessions)
		}
		if r.Completed != r.Admitted-r.ShedCapacity {
			t.Fatalf("%s: completed %d, admitted %d, capacity-shed %d", name, r.Completed, r.Admitted, r.ShedCapacity)
		}
		sum := 0
		for _, c := range r.PerBackend {
			sum += c
		}
		if sum != r.Completed {
			t.Fatalf("%s: per-backend sum %d != completed %d", name, sum, r.Completed)
		}
		if r.Fairness < 1/float64(c.Backends)-1e-9 || r.Fairness > 1+1e-9 {
			t.Fatalf("%s: Jain index %f out of range", name, r.Fairness)
		}
		if r.Throughput <= 0 || r.Elapsed <= 0 {
			t.Fatalf("%s: degenerate throughput %f / elapsed %s", name, r.Throughput, r.Elapsed)
		}
	}
}

// TestClusterSimPolicyContrast: under an overloaded cluster, round-robin and
// least-loaded must stay near-perfectly fair, and affinity (three
// benchmarks onto eight backends) must concentrate load — the contrast
// the seed-42 golden rows (testdata/gateway_seed42.golden.json) capture.
func TestClusterSimPolicyContrast(t *testing.T) {
	tr := simTrace(t)
	rr, err := Simulate(tr, simCluster, RoundRobin{})
	if err != nil {
		t.Fatal(err)
	}
	ll, err := Simulate(tr, simCluster, LeastLoaded{})
	if err != nil {
		t.Fatal(err)
	}
	aff, err := Simulate(tr, simCluster, Affinity{})
	if err != nil {
		t.Fatal(err)
	}
	if rr.Fairness < 0.95 || ll.Fairness < 0.95 {
		t.Fatalf("load-blind fairness: rr %f ll %f, want ≥0.95", rr.Fairness, ll.Fairness)
	}
	if aff.Fairness >= rr.Fairness || aff.Fairness >= ll.Fairness {
		t.Fatalf("affinity fairness %f not below rr %f / ll %f: three benchmarks on eight backends should concentrate",
			aff.Fairness, rr.Fairness, ll.Fairness)
	}
	// Affinity pays for stickiness with sheds once its home backends
	// saturate; least-loaded should shed no more than it.
	if ll.ShedCapacity > aff.ShedCapacity {
		t.Fatalf("leastloaded shed %d > affinity %d", ll.ShedCapacity, aff.ShedCapacity)
	}
}

// TestClusterCompareSharesTrace: Compare runs each policy over the same trace;
// the arrival count and spec-level accounting must agree across rows.
func TestClusterCompareSharesTrace(t *testing.T) {
	ps := make([]RoutingPolicy, 0, 3)
	for _, name := range PolicyNames() {
		p, _ := PolicyFor(name)
		ps = append(ps, p)
	}
	rows, err := Compare(simTrace(t), simCluster, ps)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(ps) {
		t.Fatalf("%d rows for %d policies", len(rows), len(ps))
	}
	for _, r := range rows[1:] {
		if r.Sessions != rows[0].Sessions {
			t.Fatalf("policies saw different traces: %d vs %d arrivals", r.Sessions, rows[0].Sessions)
		}
	}
}

// TestClusterSimMigrateModel covers the session-mobility cost model's
// contract: an off model (Rate 0) is invisible even with costs set — bit
// for bit, hash included; an on model is deterministic, draws roughly
// Rate·sessions migrations, and keeps the arrival accounting invariant
// (migrated sessions complete once, on their final backend; a session
// with nowhere to resume is a capacity shed).
func TestClusterSimMigrateModel(t *testing.T) {
	tr := simTrace(t)
	base, err := Simulate(tr, simCluster, LeastLoaded{})
	if err != nil {
		t.Fatal(err)
	}
	off := simCluster
	off.Migration = MigrationSpec{Rate: 0, CheckpointCost: 5 * time.Millisecond, ResumeCost: 5 * time.Millisecond}
	offRes, err := Simulate(tr, off, LeastLoaded{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(base, offRes) {
		t.Fatalf("Rate 0 model disturbed the baseline:\n base %+v\n  off %+v", base, offRes)
	}

	on := simCluster
	on.Migration = MigrationSpec{Rate: 0.1, CheckpointCost: 2 * time.Millisecond, ResumeCost: 5 * time.Millisecond}
	for _, name := range PolicyNames() {
		p, _ := PolicyFor(name)
		a, err := Simulate(tr, on, p)
		if err != nil {
			t.Fatal(err)
		}
		b, err := Simulate(tr, on, p)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("%s: migration model not deterministic:\n%+v\n%+v", name, a, b)
		}
		want := on.Migration.Rate * float64(len(tr.Sessions))
		if f := float64(a.Migrations); f < 0.8*want || f > 1.2*want {
			t.Fatalf("%s: %d migrations, want about %.0f", name, a.Migrations, want)
		}
		if a.Completed != a.Admitted-a.ShedCapacity {
			t.Fatalf("%s: migration broke accounting: completed %d, admitted %d, capacity-shed %d",
				name, a.Completed, a.Admitted, a.ShedCapacity)
		}
		sum := 0
		for _, c := range a.PerBackend {
			sum += c
		}
		if sum != a.Completed {
			t.Fatalf("%s: per-backend sum %d != completed %d", name, sum, a.Completed)
		}
		if a.Decisions == base.Decisions && name == "leastloaded" {
			t.Fatalf("%s: migration left the decision hash untouched", name)
		}
	}
}

// TestClusterSimRejectsBadSpec: an empty trace or a cluster without
// backends or slots is an error, not a hang or a division by zero.
func TestClusterSimRejectsBadSpec(t *testing.T) {
	if _, err := Simulate(&workload.Trace{}, simCluster, RoundRobin{}); err == nil {
		t.Fatal("empty trace did not error")
	}
	tr := generate(t, expSpec(10, 1))
	for _, c := range []Cluster{{}, {Backends: 2}, {SlotsPerBackend: 2},
		{Backends: 2, SlotsPerBackend: 2, Migration: MigrationSpec{Rate: 1.5}}} {
		if _, err := Simulate(tr, c, RoundRobin{}); err == nil {
			t.Errorf("%+v: bad cluster did not error", c)
		}
	}
}
