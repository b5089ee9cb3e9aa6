package swaptions

import (
	"math"
	"testing"

	"gostats/internal/engine"
	"gostats/internal/machine"
	"gostats/internal/rng"
)

func small() *Swaptions {
	p := Default()
	p.BatchesPerSwaption = 16
	p.RealSimsPerBatch = 300
	return NewWithParams(p)
}

func TestRegistered(t *testing.T) {
	b, err := coreBenchLookup()
	if err != nil {
		t.Fatal(err)
	}
	if b.Name() != "swaptions" {
		t.Fatalf("registered name %q", b.Name())
	}
}

// coreBenchLookup avoids an import cycle in tests: the package registers
// itself with the bench registry at init.
func coreBenchLookup() (interface{ Name() string }, error) {
	return New(), nil
}

func TestTruePriceReasonable(t *testing.T) {
	s := New()
	for sw := 0; sw < 4; sw++ {
		p := s.TruePrice(sw)
		if p <= 0 || p > 0.05 {
			t.Fatalf("swaption %d analytic price %g out of plausible range", sw, p)
		}
	}
	// Higher strikes must be cheaper.
	if s.TruePrice(0) <= s.TruePrice(3) {
		t.Fatal("price not decreasing in strike")
	}
}

func TestMonteCarloConvergesToTruePrice(t *testing.T) {
	s := small()
	r := rng.New(1)
	var st engine.State = s.Initial(r)
	var est float64
	for i := 0; i < 64; i++ {
		var out engine.Output
		st, out = s.Update(st, Batch{Swaption: 0, Index: i}, r)
		est = out.(Price).Estimate
	}
	truth := s.TruePrice(0)
	if math.Abs(est-truth) > 0.15*truth+1e-4 {
		t.Fatalf("MC estimate %g too far from analytic %g", est, truth)
	}
}

func TestSwaptionSwitchResetsEstimator(t *testing.T) {
	s := small()
	r := rng.New(2)
	st := s.Initial(r)
	st, _ = s.Update(st, Batch{Swaption: 0}, r)
	n0 := st.(*estState).n
	st, _ = s.Update(st, Batch{Swaption: 1}, r)
	if st.(*estState).n != n0 {
		t.Fatalf("estimator not reset on swaption switch: n=%g", st.(*estState).n)
	}
	if st.(*estState).sw != 1 {
		t.Fatal("estimator did not track the new swaption")
	}
}

func TestCloneIndependent(t *testing.T) {
	s := small()
	r := rng.New(3)
	st := s.Initial(r)
	st, _ = s.Update(st, Batch{Swaption: 0}, r)
	c := s.Clone(st).(*estState)
	orig := *st.(*estState)
	st, _ = s.Update(st, Batch{Swaption: 0}, r)
	if *c != orig {
		t.Fatal("clone mutated by updating the original")
	}
}

func TestShortMemoryMatch(t *testing.T) {
	// Two estimators of the same swaption built from different histories
	// (one long, one short-but-sufficient) must Match.
	s := small()
	r := rng.New(4)
	long := s.Initial(r.Derive("a"))
	ra := r.Derive("ra")
	for i := 0; i < 16; i++ {
		long, _ = s.Update(long, Batch{Swaption: 2, Index: i}, ra)
	}
	short := s.Fresh(r.Derive("b"))
	rb := r.Derive("rb")
	for i := 10; i < 16; i++ {
		short, _ = s.Update(short, Batch{Swaption: 2, Index: i}, rb)
	}
	if !s.Match(long, short) {
		t.Fatalf("converged estimators failed to match: %g vs %g",
			long.(*estState).mean(), short.(*estState).mean())
	}
}

func TestMatchRejectsDifferentSwaptions(t *testing.T) {
	s := small()
	r := rng.New(5)
	a := s.Fresh(r)
	a, _ = s.Update(a, Batch{Swaption: 0}, r)
	b := s.Fresh(r)
	b, _ = s.Update(b, Batch{Swaption: 1}, r)
	if s.Match(a, b) {
		t.Fatal("estimators of different swaptions matched")
	}
}

func TestMatchRejectsEmptyVsFull(t *testing.T) {
	s := small()
	r := rng.New(6)
	full := s.Fresh(r)
	full, _ = s.Update(full, Batch{Swaption: 0}, r)
	if s.Match(full, s.Fresh(r)) {
		t.Fatal("empty estimator matched a populated one")
	}
}

func TestInputsShape(t *testing.T) {
	s := small()
	ins := s.Inputs(rng.New(7))
	if len(ins) != 4*16 {
		t.Fatalf("inputs = %d, want 64", len(ins))
	}
	tr := s.TrainingInputs(rng.New(7))
	if len(tr) >= len(ins) {
		t.Fatalf("training inputs (%d) not smaller than native (%d)", len(tr), len(ins))
	}
	first := ins[0].(Batch)
	if first.Swaption != 0 || first.Index != 0 {
		t.Fatalf("unexpected first batch %+v", first)
	}
}

func TestQualityPrefersAccurateEstimates(t *testing.T) {
	s := small()
	good := []engine.Output{Price{Swaption: 0, Estimate: s.TruePrice(0)}}
	bad := []engine.Output{Price{Swaption: 0, Estimate: s.TruePrice(0) + 0.01}}
	if s.Quality(good) <= s.Quality(bad) {
		t.Fatal("quality did not prefer the accurate estimate")
	}
	if !math.IsInf(s.Quality(nil), -1) {
		t.Fatal("empty outputs should have -inf quality")
	}
}

func TestCostModelScale(t *testing.T) {
	s := New()
	uw := s.UpdateCost(Batch{Swaption: 0}, s.Initial(rng.New(1)))
	if uw.Total() < 10_000_000 {
		t.Fatalf("native batch cost %d instructions implausibly low", uw.Total())
	}
	total := uw.Total() * int64(4*Default().BatchesPerSwaption)
	if total < 5_000_000_000 {
		t.Fatalf("whole-run charge %d below the paper's billions scale", total)
	}
	if uw.Serial.Instr >= uw.Parallel.Instr {
		t.Fatal("swaptions should be overwhelmingly parallel per batch")
	}
}

func TestStateBytes(t *testing.T) {
	if New().StateBytes() != 24 {
		t.Fatalf("StateBytes = %d, want 24 (Table I)", New().StateBytes())
	}
}

func TestEndToEndSTATSCommits(t *testing.T) {
	s := small()
	ins := s.Inputs(rng.New(8))
	cfg := engine.Config{Chunks: 4, Lookback: 6, ExtraStates: 2, InnerWidth: 1, Seed: 9}
	rep, err := (&engine.SimScheduler{Config: machine.DefaultConfig(8)}).RunSlice(s, ins, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Commits < 3 {
		t.Fatalf("swaptions should commit nearly always, got %d/%d", rep.Commits, rep.Chunks)
	}
	if len(rep.Outputs) != len(ins) {
		t.Fatalf("outputs %d != inputs %d", len(rep.Outputs), len(ins))
	}
	q := s.Quality(rep.Outputs)
	if q < -0.02 {
		t.Fatalf("STATS run quality %g implausibly bad", q)
	}
}

func TestDeterministicUpdates(t *testing.T) {
	s := small()
	run := func() float64 {
		r := rng.New(11)
		st := s.Initial(r)
		var out engine.Output
		for i := 0; i < 8; i++ {
			st, out = s.Update(st, Batch{Swaption: 1, Index: i}, r)
		}
		return out.(Price).Estimate
	}
	if run() != run() {
		t.Fatal("updates with identical streams diverged")
	}
}
