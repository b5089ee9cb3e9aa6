package streamclassifier

import (
	"math"
	"testing"

	"gostats/internal/engine"
	"gostats/internal/machine"
	"gostats/internal/rng"
)

func small() *StreamClassifier {
	p := Default()
	p.Blocks = 300
	return NewWithParams(p)
}

func TestStateBytes(t *testing.T) {
	if got := New().StateBytes(); got != 104 {
		t.Fatalf("StateBytes = %d, want 104 (Table I)", got)
	}
}

func TestInputsLabelsConsistent(t *testing.T) {
	s := small()
	ins := s.Inputs(rng.New(1))
	if len(ins) != 300 {
		t.Fatalf("inputs = %d", len(ins))
	}
	// Labels should mostly agree with the embedded truth boundary.
	agree, total := 0, 0
	for _, in := range ins[:50] {
		blk := in.(Block)
		for i := range blk.X {
			var dot float64
			for d := 0; d < features; d++ {
				dot += blk.X[i][d] * blk.TruthW[d]
			}
			want := 1
			if dot < 0 {
				want = -1
			}
			if blk.Y[i] == want {
				agree++
			}
			total++
		}
	}
	frac := float64(agree) / float64(total)
	if frac < 0.90 || frac > 0.99 {
		t.Fatalf("label agreement %g, want ~0.95 (5%% noise)", frac)
	}
}

func TestLearnerTracksBoundary(t *testing.T) {
	s := small()
	ins := s.Inputs(rng.New(2))
	st := s.Initial(rng.New(3))
	r := rng.New(4)
	var acc float64
	n := 0
	for i, in := range ins {
		var out engine.Output
		st, out = s.Update(st, in, r)
		if i >= 250 {
			acc += out.(BlockAccuracy).Accuracy
			n++
		}
	}
	if avg := acc / float64(n); avg < 0.8 {
		t.Fatalf("young classifier accuracy %g too low", avg)
	}
}

func TestPrototypeBudgetGrowsAndSaturates(t *testing.T) {
	s := small()
	ins := s.Inputs(rng.New(5))
	st := s.Initial(rng.New(6)).(*sgdState)
	r := rng.New(7)
	var sv engine.State = st
	for _, in := range ins[:20] {
		sv, _ = s.Update(sv, in, r)
	}
	early := sv.(*sgdState).protos
	if early <= 0 {
		t.Fatal("no prototypes accumulated")
	}
	for i := 0; i < 5; i++ {
		for _, in := range ins {
			sv, _ = s.Update(sv, in, r)
		}
	}
	late := sv.(*sgdState).protos
	if late <= early {
		t.Fatal("prototype budget did not grow")
	}
	if late > 300 {
		t.Fatalf("prototype budget exceeded cap: %g", late)
	}
}

func TestOldLineageCostsMore(t *testing.T) {
	s := small()
	ins := s.Inputs(rng.New(8))
	r := rng.New(9)
	old := s.Initial(rng.New(10))
	for i := 0; i < 3; i++ {
		for _, in := range ins {
			old, _ = s.Update(old, in, r)
		}
	}
	young := s.Fresh(rng.New(11))
	for _, in := range ins[280:300] {
		young, _ = s.Update(young, in, r)
	}
	if s.UpdateCost(ins[0], old).Total() <= s.UpdateCost(ins[0], young).Total() {
		t.Fatal("saturated lineage not more expensive than young one")
	}
}

func TestShortMemoryMatch(t *testing.T) {
	s := small()
	ins := s.Inputs(rng.New(12))
	a := s.Fresh(rng.New(13))
	ra := rng.New(14)
	for _, in := range ins[100:160] {
		a, _ = s.Update(a, in, ra)
	}
	b := s.Fresh(rng.New(15))
	rb := rng.New(16)
	for _, in := range ins[138:160] {
		b, _ = s.Update(b, in, rb)
	}
	if !s.Match(a, b) {
		t.Fatal("two recently-adapted classifiers failed to match")
	}
}

func TestMatchRejectsOrthogonal(t *testing.T) {
	s := small()
	a := s.Initial(rng.New(1)).(*sgdState)
	b := s.Initial(rng.New(1)).(*sgdState)
	a.w[0] = 1
	b.w[1] = 1
	if s.Match(a, b) {
		t.Fatal("orthogonal weight vectors matched")
	}
}

func TestMatchZeroStates(t *testing.T) {
	s := small()
	a := s.Initial(rng.New(1))
	b := s.Initial(rng.New(2))
	if !s.Match(a, b) {
		t.Fatal("two zero-weight states should trivially match")
	}
}

func TestMatchScaleInvariant(t *testing.T) {
	s := small()
	a := s.Initial(rng.New(1)).(*sgdState)
	for d := range a.w {
		a.w[d] = float64(d + 1)
	}
	b := s.Clone(a).(*sgdState)
	for d := range b.w {
		b.w[d] *= 7
	}
	if !s.Match(a, b) {
		t.Fatal("scaled weight vector did not match (classifier is scale-invariant)")
	}
}

func TestCloneIndependent(t *testing.T) {
	s := small()
	a := s.Initial(rng.New(1)).(*sgdState)
	b := s.Clone(a).(*sgdState)
	b.w[3] = 42
	if a.w[3] == 42 {
		t.Fatal("clone shares storage")
	}
}

func TestQuality(t *testing.T) {
	s := small()
	good := make([]engine.Output, 40)
	bad := make([]engine.Output, 40)
	for i := range good {
		good[i] = BlockAccuracy{Accuracy: 0.95}
		bad[i] = BlockAccuracy{Accuracy: 0.6}
	}
	if s.Quality(good) <= s.Quality(bad) {
		t.Fatal("quality ordering wrong")
	}
	if !math.IsInf(s.Quality(nil), -1) {
		t.Fatal("empty outputs should be -inf")
	}
}

func TestEndToEndSavesInstructions(t *testing.T) {
	s := New()
	ins := s.Inputs(rng.New(20))
	mSeq := machine.New(machine.DefaultConfig(1))
	if err := mSeq.Run("main", func(th *machine.Thread) {
		engine.RunSequential(engine.NewSimExec(th), s, ins, 1)
	}); err != nil {
		t.Fatal(err)
	}
	par := &engine.SimScheduler{Config: machine.DefaultConfig(8)}
	rep, err := par.RunSlice(s, ins,
		engine.Config{Chunks: 14, Lookback: 12, ExtraStates: 2, InnerWidth: 1, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Commits < 11 {
		t.Fatalf("too many aborts: %d/%d", rep.Commits, rep.Chunks)
	}
	seqI, parI := mSeq.Accounting().TotalInstr(), par.Accounting().TotalInstr()
	if parI >= seqI {
		t.Fatalf("STATS executed MORE instructions: %d vs %d", parI, seqI)
	}
}

func TestNormalizeHandlesZero(t *testing.T) {
	var w [features]float64
	normalize(&w)
	if w[0] != 1 {
		t.Fatal("zero vector not normalized to a unit basis vector")
	}
}
