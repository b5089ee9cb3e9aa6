package fluidanimate

import (
	"testing"

	"gostats/internal/engine"
	"gostats/internal/machine"
	"gostats/internal/rng"
)

func small() *FluidAnimate {
	p := Default()
	p.Steps = 120
	return NewWithParams(p)
}

func TestStateBytes(t *testing.T) {
	if got := New().StateBytes(); got != 65536 {
		t.Fatalf("StateBytes = %d, want 65536", got)
	}
}

func TestEnergyAccumulates(t *testing.T) {
	f := small()
	ins := f.Inputs(rng.New(1))
	st := f.Initial(rng.New(2))
	r := rng.New(3)
	var first, last float64
	for i, in := range ins {
		var out engine.Output
		st, out = f.Update(st, in, r)
		e := out.(StepEnergy).Energy
		if i == 0 {
			first = e
		}
		last = e
	}
	if last <= first {
		t.Fatalf("stirred fluid did not accumulate energy: %g -> %g", first, last)
	}
}

func TestLongMemoryNoMatch(t *testing.T) {
	// The defining property: a fresh lineage replaying only the recent
	// window must NOT match the true lineage — the field remembers its
	// whole force history.
	f := small()
	ins := f.Inputs(rng.New(4))
	long := f.Initial(rng.New(5))
	rl := rng.New(6)
	for _, in := range ins {
		long, _ = f.Update(long, in, rl)
	}
	for _, k := range []int{5, 20, 60} {
		fresh := f.Fresh(rng.New(7))
		rf := rng.New(8)
		for _, in := range ins[len(ins)-k:] {
			fresh, _ = f.Update(fresh, in, rf)
		}
		if f.Match(long, fresh) {
			t.Fatalf("fresh lineage with k=%d matched the full-history field", k)
		}
	}
}

func TestSameHistoryMatches(t *testing.T) {
	// Two lineages with the SAME full history (different nondeterminism)
	// must match: the Match tolerance is about nondeterministic jitter,
	// not about history truncation.
	f := small()
	ins := f.Inputs(rng.New(9))
	a := f.Initial(rng.New(10))
	ra := rng.New(11)
	b := f.Initial(rng.New(12))
	rb := rng.New(13)
	for _, in := range ins {
		a, _ = f.Update(a, in, ra)
		b, _ = f.Update(b, in, rb)
	}
	if !f.Match(a, b) {
		t.Fatal("full-history lineages with different nondeterminism did not match")
	}
}

func TestSTATSGainsNothing(t *testing.T) {
	// The paper's exclusion finding: STATS parallelization has no
	// significant impact on fluidanimate.
	f := small()
	ins := f.Inputs(rng.New(14))
	mSeq := machine.New(machine.DefaultConfig(1))
	if err := mSeq.Run("main", func(th *machine.Thread) {
		engine.RunSequential(engine.NewSimExec(th), f, ins, 3)
	}); err != nil {
		t.Fatal(err)
	}
	m := machine.New(machine.DefaultConfig(8))
	var rep *engine.Report
	var rerr error
	if err := m.Run("main", func(th *machine.Thread) {
		rep, rerr = engine.Run(engine.NewSimExec(th), f, ins,
			engine.Config{Chunks: 8, Lookback: 10, ExtraStates: 1, InnerWidth: 1, Seed: 3})
	}); err != nil {
		t.Fatal(err)
	}
	if rerr != nil {
		t.Fatal(rerr)
	}
	// Nearly every speculation aborts (the very first boundary can match
	// while the field is still close to rest).
	if rep.Aborts < rep.Chunks-2 {
		t.Fatalf("expected nearly every speculation to abort, got %d/%d aborts", rep.Aborts, rep.Chunks-1)
	}
	sp := float64(mSeq.Now()) / float64(m.Now())
	if sp > 1.3 {
		t.Fatalf("fluidanimate sped up %.2fx under STATS; the paper excluded it for gaining nothing", sp)
	}
}

func TestCloneIndependent(t *testing.T) {
	f := small()
	a := f.Initial(rng.New(1)).(*field)
	b := f.Clone(a).(*field)
	b.vx[0] = 99
	if a.vx[0] == 99 {
		t.Fatal("clone shares storage")
	}
}

func TestInputsDeterministic(t *testing.T) {
	f := small()
	a := f.Inputs(rng.New(42))
	b := f.Inputs(rng.New(42))
	if a[10].(Force) != b[10].(Force) {
		t.Fatal("same-seed inputs differ")
	}
	if len(f.TrainingInputs(rng.New(1))) >= len(a) {
		t.Fatal("training inputs not smaller")
	}
}

func TestQualityFinite(t *testing.T) {
	f := small()
	ins := f.Inputs(rng.New(15))
	st := f.Initial(rng.New(16))
	r := rng.New(17)
	var outs []engine.Output
	for _, in := range ins {
		var out engine.Output
		st, out = f.Update(st, in, r)
		outs = append(outs, out)
	}
	q := f.Quality(outs)
	if q > 0 || q != q {
		t.Fatalf("quality = %g", q)
	}
}
