package bench_test

import (
	"testing"

	"gostats/internal/bench"
	_ "gostats/internal/bench/all"
	"gostats/internal/rng"
)

// wantBenchmarks are the six workloads of §IV-C plus the excluded
// fluidanimate, plus this repo's large-state dedupstream.
var wantBenchmarks = []string{
	"bodytrack",
	"dedupstream",
	"facedet-and-track",
	"facetrack",
	"fluidanimate",
	"streamclassifier",
	"streamcluster",
	"swaptions",
}

func TestRegistryComplete(t *testing.T) {
	names := bench.Names()
	if len(names) != len(wantBenchmarks) {
		t.Fatalf("registry has %d benchmarks: %v", len(names), names)
	}
	for i, want := range wantBenchmarks {
		if names[i] != want {
			t.Fatalf("Names()[%d] = %q, want %q", i, names[i], want)
		}
	}
}

func TestNewUnknown(t *testing.T) {
	if _, err := bench.New("nope"); err == nil {
		t.Fatal("unknown benchmark accepted")
	}
}

func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustNew on unknown name did not panic")
		}
	}()
	bench.MustNew("nope")
}

// TestContractAllBenchmarks exercises the full Benchmark contract for
// every registered workload.
func TestContractAllBenchmarks(t *testing.T) {
	// Table I state sizes.
	stateBytes := map[string]int64{
		"swaptions":         24,
		"streamclassifier":  104,
		"streamcluster":     104,
		"bodytrack":         500_000,
		"facetrack":         8_000,
		"facedet-and-track": 8_000,
		"fluidanimate":      65_536,
		"dedupstream":       4_718_592,
	}
	for _, name := range bench.Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			b := bench.MustNew(name)
			if b.Name() != name {
				t.Errorf("Name() = %q", b.Name())
			}
			if b.Describe() == "" {
				t.Error("empty description")
			}
			if got := b.StateBytes(); got != stateBytes[name] {
				t.Errorf("StateBytes = %d, want %d", got, stateBytes[name])
			}
			if b.MaxInnerWidth() < 1 {
				t.Error("MaxInnerWidth < 1")
			}
			r := rng.New(1)
			ins := b.Inputs(r)
			if len(ins) == 0 {
				t.Fatal("no inputs")
			}
			tr := b.TrainingInputs(r)
			if len(tr) == 0 || len(tr) >= len(ins) {
				t.Fatalf("training inputs size %d vs native %d", len(tr), len(ins))
			}

			// One update from the initial state must work and produce a
			// scoreable output.
			st := b.Initial(r.Derive("init"))
			st2, out := b.Update(st, ins[0], r.Derive("u"))
			if st2 == nil || out == nil {
				t.Fatal("Update returned nils")
			}
			if q := b.Quality([]interface{}{out}); q != q { // NaN check
				t.Fatal("Quality returned NaN")
			}

			// Clone/Match reflexivity: a state must match its own clone.
			cl := b.Clone(st2)
			if !b.Match(st2, cl) {
				t.Error("state does not match its own clone")
			}

			// Cost model sanity.
			uw := b.UpdateCost(ins[0], st2)
			if uw.Total() <= 0 {
				t.Error("non-positive update cost")
			}
			if uw.Grain < 1 {
				t.Error("grain < 1")
			}
			rc := b.RegionCosts()
			if rc.Compare.Instr <= 0 {
				t.Error("non-positive compare cost")
			}
			if rc.Setup.Work(4).Instr <= 0 || rc.Teardown.Work(4).Instr <= 0 {
				t.Error("non-positive setup/teardown")
			}
			if rc.Pre.Instr <= 0 || rc.Post.Instr <= 0 {
				t.Error("non-positive pre/post region work")
			}
		})
	}
}

func TestInputsDeterministicPerSeed(t *testing.T) {
	for _, name := range bench.Names() {
		b := bench.MustNew(name)
		a := b.Inputs(rng.New(5))
		c := b.Inputs(rng.New(5))
		if len(a) != len(c) {
			t.Fatalf("%s: same-seed input lengths differ", name)
		}
	}
}

func TestDuplicateRegistrationPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate registration did not panic")
		}
	}()
	bench.Register("swaptions", nil)
}
