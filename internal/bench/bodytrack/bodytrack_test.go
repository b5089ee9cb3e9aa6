package bodytrack

import (
	"math"
	"testing"

	"gostats/internal/bench/trackutil"
	"gostats/internal/engine"
	"gostats/internal/machine"
	"gostats/internal/rng"
)

func small() *trackutil.Tracker {
	p := Default()
	p.Frames = 60
	p.Occlusions = 1
	return NewWithParams(p)
}

func TestStateBytes(t *testing.T) {
	if got := New().StateBytes(); got != 500_000 {
		t.Fatalf("StateBytes = %d, want 500000 (Table I)", got)
	}
}

func TestTrackerFollowsPose(t *testing.T) {
	b := small()
	ins := b.Inputs(rng.New(1))
	st := b.Initial(rng.New(2))
	r := rng.New(3)
	var clearErr, clearN float64
	for _, in := range ins {
		fr := in.(trackutil.Frame)
		var out engine.Output
		st, out = b.Update(st, in, r)
		if !fr.Occluded {
			clearErr += out.(trackutil.Result).Err
			clearN++
		}
	}
	// 50-dim pose with obs noise 0.1: a locked tracker's error should be
	// near the observation noise floor (~0.7) — far below the cold error.
	if avg := clearErr / clearN; avg > 1.2 {
		t.Fatalf("mean clear-frame error %g: tracker not locked", avg)
	}
}

func TestFreshCloudLocksWithinLookback(t *testing.T) {
	b := small()
	ins := b.Inputs(rng.New(4))
	// Pick a window of clear frames mid-sequence.
	start := 10
	st := b.Fresh(rng.New(5))
	r := rng.New(6)
	for i := start; i < start+5; i++ {
		st, _ = b.Update(st, ins[i], r)
	}
	c := st.(*trackutil.Cloud)
	truth := ins[start+4].(trackutil.Frame).True
	if d := trackutil.Dist(c.Estimate(), truth); d > 1.2 {
		t.Fatalf("fresh cloud did not lock in 5 frames: error %g", d)
	}
}

func TestMatchAtClearBoundary(t *testing.T) {
	b := small()
	ins := b.Inputs(rng.New(7))
	boundary := 20
	long := b.Initial(rng.New(8))
	rl := rng.New(9)
	for i := 0; i < boundary; i++ {
		long, _ = b.Update(long, ins[i], rl)
	}
	spec := b.Fresh(rng.New(10))
	rs := rng.New(11)
	for i := boundary - 6; i < boundary; i++ {
		spec, _ = b.Update(spec, ins[i], rs)
	}
	if !b.Match(long, spec) {
		t.Fatal("speculative state at a clear boundary failed to match")
	}
}

func TestMismatchWhenSpeculativeStateCold(t *testing.T) {
	b := New()
	ins := b.Inputs(rng.New(12))
	// Find a frame deep inside an occlusion.
	occStart, occLen := -1, 0
	for i, in := range ins {
		if in.(trackutil.Frame).Occluded {
			if occStart == -1 {
				occStart = i
			}
			occLen++
		} else if occStart != -1 {
			break
		}
	}
	if occStart == -1 || occLen < 6 {
		t.Skip("no long occlusion in this sequence")
	}
	boundary := occStart + occLen // just at occlusion end
	long := b.Initial(rng.New(13))
	rl := rng.New(14)
	for i := 0; i < boundary; i++ {
		long, _ = b.Update(long, ins[i], rl)
	}
	// Speculative state whose whole window is occluded: stays cold.
	spec := b.Fresh(rng.New(15))
	rs := rng.New(16)
	for i := boundary - 5; i < boundary; i++ {
		spec, _ = b.Update(spec, ins[i], rs)
	}
	if spec.(*trackutil.Cloud).Cold && b.Match(long, spec) {
		t.Fatal("cold speculative state matched a locked original state")
	}
}

func TestCloneIsDeepCopy(t *testing.T) {
	b := small()
	st := b.Initial(rng.New(17))
	cl := b.Clone(st).(*trackutil.Cloud)
	orig := st.(*trackutil.Cloud)
	cl.P[0] = orig.P[0] + 100
	if orig.P[0] == cl.P[0] {
		t.Fatal("clone shares particle storage")
	}
}

func TestUpdateCostUsesStateRegion(t *testing.T) {
	b := small()
	a := b.Initial(rng.New(18))
	c := b.Clone(a)
	wa := b.UpdateCost(b.Inputs(rng.New(19))[0], a)
	wc := b.UpdateCost(b.Inputs(rng.New(19))[0], c)
	if wa.Serial.Access == nil || wc.Serial.Access == nil {
		t.Fatal("no access profile attached")
	}
	ra := wa.Serial.Access.Regions[1].Name
	rc := wc.Serial.Access.Regions[1].Name
	if ra == rc {
		t.Fatal("original and clone share a state cache region")
	}
}

func TestCostScale(t *testing.T) {
	b := New()
	uw := b.UpdateCost(b.Inputs(rng.New(1))[0], b.Initial(rng.New(2)))
	if total := uw.Total() * int64(Default().Frames); total < 5_000_000_000 {
		t.Fatalf("native charge %d below the paper's scale", total)
	}
	if uw.Serial.Instr >= uw.Parallel.Instr {
		t.Fatal("bodytrack should be mostly particle-parallel")
	}
}

func TestQualityOrdering(t *testing.T) {
	b := small()
	good := []engine.Output{trackutil.Result{Err: 0.1}, trackutil.Result{Err: 0.2}}
	bad := []engine.Output{trackutil.Result{Err: 2.0}, trackutil.Result{Err: 3.0}}
	if b.Quality(good) <= b.Quality(bad) {
		t.Fatal("quality ordering wrong")
	}
	if !math.IsInf(b.Quality(nil), -1) {
		t.Fatal("empty outputs should be -inf")
	}
}

func TestEndToEndMostlyCommits(t *testing.T) {
	b := small()
	ins := b.Inputs(rng.New(20))
	rep, err := (&engine.SimScheduler{Config: machine.DefaultConfig(8)}).RunSlice(b, ins,
		engine.Config{Chunks: 4, Lookback: 5, ExtraStates: 2, InnerWidth: 1, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Commits < 3 {
		t.Fatalf("bodytrack aborted too much: %d/%d commits", rep.Commits, rep.Chunks)
	}
	if len(rep.Outputs) != len(ins) {
		t.Fatalf("lost outputs: %d/%d", len(rep.Outputs), len(ins))
	}
}

func TestCombinedTLPFasterThanSeqSTATS(t *testing.T) {
	// bodytrack has real inner TLP: adding gang width must shorten the run.
	b := small()
	ins := b.Inputs(rng.New(22))
	runWith := func(width int) int64 {
		sim := &engine.SimScheduler{Config: machine.DefaultConfig(16)}
		if _, err := sim.RunSlice(b, ins,
			engine.Config{Chunks: 4, Lookback: 5, ExtraStates: 1, InnerWidth: width, Seed: 3}); err != nil {
			t.Fatal(err)
		}
		return sim.Cycles()
	}
	seqStats, parStats := runWith(1), runWith(4)
	if parStats >= seqStats {
		t.Fatalf("inner TLP did not help: %d vs %d", parStats, seqStats)
	}
}
