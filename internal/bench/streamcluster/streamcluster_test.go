package streamcluster

import (
	"math"
	"testing"

	"gostats/internal/engine"
	"gostats/internal/machine"
	"gostats/internal/rng"
)

func small() *StreamCluster {
	p := Default()
	p.Blocks = 300
	return NewWithParams(p)
}

func TestStateBytes(t *testing.T) {
	if got := New().StateBytes(); got != 104 {
		t.Fatalf("StateBytes = %d, want 104 (Table I)", got)
	}
}

func TestInputsShape(t *testing.T) {
	s := small()
	ins := s.Inputs(rng.New(1))
	if len(ins) != 300 {
		t.Fatalf("inputs = %d", len(ins))
	}
	blk := ins[0].(Block)
	if len(blk.Points) != s.p.RealPointsPerBlock {
		t.Fatalf("block has %d points", len(blk.Points))
	}
	if len(s.TrainingInputs(rng.New(1))) >= len(ins) {
		t.Fatal("training inputs not smaller")
	}
}

func TestClustersFollowDrift(t *testing.T) {
	s := small()
	ins := s.Inputs(rng.New(2))
	st := s.Initial(rng.New(3))
	r := rng.New(4)
	var lastCost float64
	for _, in := range ins {
		var out engine.Output
		st, out = s.Update(st, in, r)
		lastCost = out.(BlockCost).Cost
	}
	// A 300-block lineage is young enough to track: final block cost must
	// be near the intrinsic point spread (0.05 * sqrt(dims)).
	if lastCost > 0.35 {
		t.Fatalf("young lineage lost the clusters: block cost %g", lastCost)
	}
}

func TestLongLineageLags(t *testing.T) {
	// The frozen-learning-rate mechanism: a lineage that has seen many
	// points must have a higher lag than a fresh one on the same window.
	s := NewWithParams(Default())
	ins := s.Inputs(rng.New(5))
	r := rng.New(6)
	long := s.Initial(rng.New(7))
	for _, in := range ins {
		long, _ = s.Update(long, in, r)
	}
	fresh := s.Fresh(rng.New(8))
	rf := rng.New(9)
	for _, in := range ins[len(ins)-60:] {
		fresh, _ = s.Update(fresh, in, rf)
	}
	lLag := long.(*clusterState).lag
	fLag := fresh.(*clusterState).lag
	if lLag <= fLag {
		t.Fatalf("long lineage lag %g not above fresh lag %g", lLag, fLag)
	}
	// And the cost model must charge the long lineage more.
	lw := s.UpdateCost(ins[0], long).Total()
	fw := s.UpdateCost(ins[0], fresh).Total()
	if lw <= fw {
		t.Fatalf("stale state not more expensive: %d vs %d", lw, fw)
	}
}

func TestShortMemoryMatch(t *testing.T) {
	// Two adaptive lineages over the same recent window must match.
	s := small()
	ins := s.Inputs(rng.New(10))
	a := s.Fresh(rng.New(11))
	ra := rng.New(12)
	for _, in := range ins[100:160] {
		a, _ = s.Update(a, in, ra)
	}
	b := s.Fresh(rng.New(13))
	rb := rng.New(14)
	for _, in := range ins[140:160] {
		b, _ = s.Update(b, in, rb)
	}
	if !s.Match(a, b) {
		t.Fatal("two adaptive lineages on the same window failed to match")
	}
}

func TestMatchRejectsDistantStates(t *testing.T) {
	s := small()
	a := s.Initial(rng.New(1)).(*clusterState)
	b := s.Clone(a).(*clusterState)
	for i := 0; i < k; i++ {
		for d := 0; d < dims; d++ {
			b.centers[i][d] += 10
		}
	}
	if s.Match(a, b) {
		t.Fatal("states 10 units apart matched")
	}
}

func TestMatchPermutationInvariant(t *testing.T) {
	s := small()
	a := s.Initial(rng.New(1)).(*clusterState)
	a.centers = [k][dims]float64{{1, 1, 1, 1}, {2, 2, 2, 2}, {3, 3, 3, 3}}
	b := s.Clone(a).(*clusterState)
	// Permute the centers: must still match exactly.
	b.centers[0], b.centers[1], b.centers[2] = a.centers[2], a.centers[0], a.centers[1]
	if !s.Match(a, b) {
		t.Fatal("permuted identical centers did not match")
	}
}

func TestCloneIndependent(t *testing.T) {
	s := small()
	a := s.Initial(rng.New(1)).(*clusterState)
	b := s.Clone(a).(*clusterState)
	b.centers[0][0] = 99
	if a.centers[0][0] == 99 {
		t.Fatal("clone shares storage")
	}
}

func TestQualityOrdering(t *testing.T) {
	s := small()
	good := make([]engine.Output, 100)
	bad := make([]engine.Output, 100)
	for i := range good {
		good[i] = BlockCost{Cost: 0.1}
		bad[i] = BlockCost{Cost: 0.9}
	}
	if s.Quality(good) <= s.Quality(bad) {
		t.Fatal("quality did not prefer lower clustering cost")
	}
	if !math.IsInf(s.Quality(nil), -1) {
		t.Fatal("empty outputs should score -inf")
	}
}

func TestCostScale(t *testing.T) {
	s := New()
	uw := s.UpdateCost(s.Inputs(rng.New(1))[0], s.Initial(rng.New(2)))
	total := uw.Total() * int64(Default().Blocks)
	if total < 1_000_000_000 {
		t.Fatalf("native charge %d below billions scale", total)
	}
}

func TestEndToEndChunkedSavesInstructions(t *testing.T) {
	// The §V-C signature: the STATS execution executes fewer instructions
	// than the sequential original.
	s := NewWithParams(Default())
	ins := s.Inputs(rng.New(20))
	mSeq := machine.New(machine.DefaultConfig(1))
	if err := mSeq.Run("main", func(th *machine.Thread) {
		engine.RunSequential(engine.NewSimExec(th), s, ins, 1)
	}); err != nil {
		t.Fatal(err)
	}
	mPar := machine.New(machine.DefaultConfig(8))
	var rep *engine.Report
	var rerr error
	if err := mPar.Run("main", func(th *machine.Thread) {
		rep, rerr = engine.Run(engine.NewSimExec(th), s, ins,
			engine.Config{Chunks: 14, Lookback: 6, ExtraStates: 1, InnerWidth: 1, Seed: 5})
	}); err != nil {
		t.Fatal(err)
	}
	if rerr != nil {
		t.Fatal(rerr)
	}
	if rep.Commits < 12 {
		t.Fatalf("too many aborts: %d/%d commits", rep.Commits, rep.Chunks)
	}
	seqI, parI := mSeq.Accounting().TotalInstr(), mPar.Accounting().TotalInstr()
	if parI >= seqI {
		t.Fatalf("STATS executed MORE instructions: %d vs %d", parI, seqI)
	}
}

func TestDeterministicInputs(t *testing.T) {
	s := small()
	a := s.Inputs(rng.New(42))
	b := s.Inputs(rng.New(42))
	pa, pb := a[10].(Block).Points[0], b[10].(Block).Points[0]
	if pa != pb {
		t.Fatal("same-seed inputs differ")
	}
}
