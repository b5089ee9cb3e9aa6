package facedetrack

import (
	"testing"

	"gostats/internal/bench/trackutil"
	"gostats/internal/engine"
	"gostats/internal/machine"
	"gostats/internal/rng"
)

func small() *trackutil.Tracker {
	p := Default()
	p.Frames = 200
	p.Occlusions = 2
	return NewWithParams(p)
}

func TestStateBytes(t *testing.T) {
	if got := New().StateBytes(); got != 8000 {
		t.Fatalf("StateBytes = %d, want 8000 (Table I)", got)
	}
}

func TestNativeVideoLength(t *testing.T) {
	if n := len(New().Inputs(rng.New(1))); n != 1050 {
		t.Fatalf("native video has %d frames, want 1050 (§IV-C)", n)
	}
}

func TestDetectorHandlesClearFrames(t *testing.T) {
	f := small()
	ins := f.Inputs(rng.New(2))
	st := f.Initial(rng.New(3))
	r := rng.New(4)
	for _, in := range ins {
		fr := in.(trackutil.Frame)
		var out engine.Output
		st, out = f.Update(st, in, r)
		res := out.(trackutil.Result)
		if res.Detected != !fr.Occluded {
			t.Fatalf("frame %d: Detected=%v but Occluded=%v", fr.Index, res.Detected, fr.Occluded)
		}
		if res.Detected && res.Err > 0.35 {
			t.Fatalf("frame %d: detector error %g too high", fr.Index, res.Err)
		}
	}
}

func TestBimodalCost(t *testing.T) {
	f := small()
	st := f.Initial(rng.New(5))
	clear := trackutil.Frame{Obs: make([]float64, 5), True: make([]float64, 5), Quality: 1}
	occ := clear
	occ.Occluded = true
	occ.Quality = 0.02
	cClear := f.UpdateCost(clear, st).Total()
	cOcc := f.UpdateCost(occ, st).Total()
	if cOcc < 3*cClear {
		t.Fatalf("filter fallback (%d) should cost much more than detection (%d)", cOcc, cClear)
	}
}

func TestFilterCoversOcclusion(t *testing.T) {
	f := small()
	ins := f.Inputs(rng.New(6))
	st := f.Initial(rng.New(7))
	r := rng.New(8)
	worst := 0.0
	for _, in := range ins {
		var out engine.Output
		st, out = f.Update(st, in, r)
		if e := out.(trackutil.Result).Err; e > worst {
			worst = e
		}
	}
	// The filter may drift during occlusion but must not lose the face
	// entirely (the detector re-locks it afterwards).
	if worst > 2.0 {
		t.Fatalf("tracking error spiked to %g", worst)
	}
}

func TestRecoveryAfterOcclusion(t *testing.T) {
	f := small()
	ins := f.Inputs(rng.New(9))
	st := f.Initial(rng.New(10))
	r := rng.New(11)
	prevOccluded := false
	for _, in := range ins {
		fr := in.(trackutil.Frame)
		var out engine.Output
		st, out = f.Update(st, in, r)
		if prevOccluded && !fr.Occluded {
			// First frame after occlusion: detector must re-lock to the
			// observation-noise floor (obsNoise * sqrt(5 dims) ~= 0.13).
			if out.(trackutil.Result).Err > 0.3 {
				t.Fatalf("detector did not re-lock after occlusion: err %g", out.(trackutil.Result).Err)
			}
		}
		prevOccluded = fr.Occluded
	}
}

func TestFreshStateShortMemoryViaDetector(t *testing.T) {
	// A fresh state becomes equivalent to any lineage after a single
	// detectable frame — the detector is the short-memory mechanism.
	f := small()
	ins := f.Inputs(rng.New(12))
	var clearIdx int
	for i, in := range ins {
		if i > 20 && !in.(trackutil.Frame).Occluded {
			clearIdx = i
			break
		}
	}
	long := f.Initial(rng.New(13))
	rl := rng.New(14)
	for i := 0; i <= clearIdx; i++ {
		long, _ = f.Update(long, ins[i], rl)
	}
	spec := f.Fresh(rng.New(15))
	rs := rng.New(16)
	spec, _ = f.Update(spec, ins[clearIdx], rs)
	if !f.Match(long, spec) {
		t.Fatal("one detected frame should align any lineage")
	}
}

func TestEndToEndFewerChunksFewerAborts(t *testing.T) {
	// The paper picks 14 chunks for facedet-and-track to avoid
	// mispeculation: fewer chunks must not abort more than many chunks,
	// and at 14 chunks most speculation must commit.
	f := New()
	ins := f.Inputs(rng.New(17))
	runWith := func(chunks int) *engine.Report {
		rep, err := (&engine.SimScheduler{Config: machine.DefaultConfig(8)}).RunSlice(f, ins,
			engine.Config{Chunks: chunks, Lookback: 6, ExtraStates: 1, InnerWidth: 1, Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	r14, r28 := runWith(14), runWith(28)
	if r14.Aborts > r28.Aborts {
		t.Fatalf("14 chunks aborted more (%d) than 28 chunks (%d)", r14.Aborts, r28.Aborts)
	}
	if r14.Commits < 10 {
		t.Fatalf("14-chunk run committed only %d/%d", r14.Commits, r14.Chunks)
	}
	if len(r14.Outputs) != len(ins) {
		t.Fatalf("lost outputs: %d", len(r14.Outputs))
	}
}

func TestQualityOrdering(t *testing.T) {
	f := small()
	good := []engine.Output{trackutil.Result{Err: 0.05}}
	bad := []engine.Output{trackutil.Result{Err: 0.8}}
	if f.Quality(good) <= f.Quality(bad) {
		t.Fatal("quality ordering wrong")
	}
}
