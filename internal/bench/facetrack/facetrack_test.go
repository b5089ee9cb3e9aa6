package facetrack

import (
	"testing"

	"gostats/internal/bench/trackutil"
	"gostats/internal/engine"
	"gostats/internal/machine"
	"gostats/internal/rng"
)

func small() *FaceTrack {
	p := Default()
	p.Frames = 150
	p.Occlusions = 2
	return NewWithParams(p)
}

func TestStateBytes(t *testing.T) {
	if got := New().StateBytes(); got != 8000 {
		t.Fatalf("StateBytes = %d, want 8000 (Table I)", got)
	}
}

func TestNativeVideoLength(t *testing.T) {
	ins := New().Inputs(rng.New(1))
	if len(ins) != 600 {
		t.Fatalf("native video has %d frames, want 600 (§IV-C)", len(ins))
	}
}

func TestTrackerAccuracy(t *testing.T) {
	f := small()
	ins := f.Inputs(rng.New(2))
	st := f.Initial(rng.New(3))
	r := rng.New(4)
	var rep []engine.Output
	for _, in := range ins {
		var out engine.Output
		st, out = f.Update(st, in, r)
		rep = append(rep, out)
	}
	if q := f.Quality(rep); q < -0.4 {
		t.Fatalf("tracking quality %g too poor", q)
	}
}

func TestOcclusionDegradesTracking(t *testing.T) {
	f := small()
	ins := f.Inputs(rng.New(5))
	st := f.Initial(rng.New(6))
	r := rng.New(7)
	var clearErr, occErr, clearN, occN float64
	for _, in := range ins {
		fr := in.(trackutil.Frame)
		var out engine.Output
		st, out = f.Update(st, in, r)
		if fr.Occluded {
			occErr += out.(Result).Err
			occN++
		} else {
			clearErr += out.(Result).Err
			clearN++
		}
	}
	if occN == 0 {
		t.Skip("no occluded frames")
	}
	if occErr/occN <= clearErr/clearN {
		t.Fatal("occluded frames not harder than clear frames")
	}
}

func TestMatchClearVsOccludedBoundary(t *testing.T) {
	f := New()
	ins := f.Inputs(rng.New(8))
	frames := make([]trackutil.Frame, len(ins))
	for i, in := range ins {
		frames[i] = in.(trackutil.Frame)
	}
	// Build the original lineage once.
	long := f.Initial(rng.New(9))
	rl := rng.New(10)
	lineage := make([]engine.State, len(ins))
	for i := range ins {
		long, _ = f.Update(long, ins[i], rl)
		lineage[i] = f.Clone(long)
	}
	specAt := func(boundary, k int, seed uint64) engine.State {
		spec := f.Fresh(rng.New(seed))
		rs := rng.New(seed + 1)
		for i := boundary - k; i < boundary; i++ {
			spec, _ = f.Update(spec, ins[i], rs)
		}
		return spec
	}
	// A boundary with a fully clear window must match.
	clearB := -1
	for b := 30; b < len(ins); b++ {
		ok := true
		for i := b - 10; i < b; i++ {
			if frames[i].Occluded {
				ok = false
				break
			}
		}
		if ok {
			clearB = b
			break
		}
	}
	if clearB == -1 {
		t.Fatal("no clear window found")
	}
	if !f.Match(lineage[clearB-1], specAt(clearB, 10, 100)) {
		t.Fatal("clear-window speculation failed to match")
	}
	// A boundary whose window is fully occluded must NOT match.
	occB := -1
	for b := 30; b < len(ins); b++ {
		all := true
		for i := b - 6; i < b; i++ {
			if !frames[i].Occluded {
				all = false
				break
			}
		}
		if all {
			occB = b
			break
		}
	}
	if occB == -1 {
		t.Skip("no fully-occluded window in this sequence")
	}
	if f.Match(lineage[occB-1], specAt(occB, 6, 200)) {
		t.Fatal("occluded-window speculation matched (should mispeculate)")
	}
}

func TestEndToEndMispeculationPresent(t *testing.T) {
	// facetrack is the mispeculation-limited benchmark: at high chunk
	// counts some chunks must abort.
	f := New()
	ins := f.Inputs(rng.New(11))
	rep, err := (&engine.SimScheduler{Config: machine.DefaultConfig(8)}).RunSlice(f, ins,
		engine.Config{Chunks: 28, Lookback: 6, ExtraStates: 1, InnerWidth: 1, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Aborts == 0 {
		t.Fatal("28-chunk facetrack run had no mispeculation")
	}
	if rep.Commits == 0 {
		t.Fatal("nothing committed")
	}
	if len(rep.Outputs) != len(ins) {
		t.Fatalf("lost outputs: %d", len(rep.Outputs))
	}
}

func TestTrainingInputsDistinct(t *testing.T) {
	f := small()
	n := f.Inputs(rng.New(1))
	tr := f.TrainingInputs(rng.New(1))
	if len(tr) >= len(n) {
		t.Fatal("training video not shorter")
	}
	a := n[0].(trackutil.Frame).True
	b := tr[0].(trackutil.Frame).True
	same := true
	for d := range a {
		if a[d] != b[d] {
			same = false
		}
	}
	if same && len(a) > 0 && a[0] != 0 {
		t.Fatal("training inputs identical to native inputs")
	}
}

func TestCloneAndStateRegions(t *testing.T) {
	f := small()
	a := f.Initial(rng.New(1))
	b := f.Clone(a)
	wa := f.UpdateCost(f.Inputs(rng.New(2))[0], a)
	wb := f.UpdateCost(f.Inputs(rng.New(2))[0], b)
	if wa.Serial.Access.Regions[0].Name == wb.Serial.Access.Regions[0].Name {
		t.Fatal("clone shares state cache region with original")
	}
}
