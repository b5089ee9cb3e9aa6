package trackutil

import (
	"math"
	"testing"
	"testing/quick"

	"gostats/internal/memsim"
	"gostats/internal/rng"
)

func TestGenTrajectoryShape(t *testing.T) {
	r := rng.New(1)
	cfg := TrajConfig{Frames: 100, Dims: 5, Speed: 0.03, ObsNoise: 0.05, Occlusions: 2, OccMin: 5, OccMax: 10}
	frames := GenTrajectory(r, cfg)
	if len(frames) != 100 {
		t.Fatalf("frames = %d", len(frames))
	}
	occluded := 0
	for i, f := range frames {
		if f.Index != i {
			t.Fatalf("frame %d has index %d", i, f.Index)
		}
		if len(f.Obs) != 5 || len(f.True) != 5 {
			t.Fatalf("frame %d has wrong dims", i)
		}
		if f.Occluded {
			occluded++
			if f.Quality > 0.5 {
				t.Fatalf("occluded frame %d has quality %g", i, f.Quality)
			}
		}
	}
	if occluded < 10 || occluded > 40 {
		t.Fatalf("occluded frames = %d, want roughly 2 segments of 5-10", occluded)
	}
}

func TestGenTrajectoryObservationNoise(t *testing.T) {
	r := rng.New(2)
	frames := GenTrajectory(r, TrajConfig{Frames: 500, Dims: 3, Speed: 0.02, ObsNoise: 0.1})
	var sum float64
	for _, f := range frames {
		for d := 0; d < 3; d++ {
			diff := f.Obs[d] - f.True[d]
			sum += diff * diff
		}
	}
	sd := math.Sqrt(sum / float64(500*3))
	if sd < 0.08 || sd > 0.12 {
		t.Fatalf("observation noise sd = %g, want ~0.1", sd)
	}
}

func TestGenTrajectorySmooth(t *testing.T) {
	r := rng.New(3)
	frames := GenTrajectory(r, TrajConfig{Frames: 200, Dims: 2, Speed: 0.03, ObsNoise: 0.01})
	for i := 1; i < len(frames); i++ {
		if d := Dist(frames[i].True, frames[i-1].True); d > 0.5 {
			t.Fatalf("trajectory jumped %g between frames %d and %d", d, i-1, i)
		}
	}
}

func TestCloudColdFlag(t *testing.T) {
	r := rng.New(4)
	if NewCloud(50, 3, nil, 0.05, r).Cold {
		t.Fatal("tight cloud should not be cold")
	}
	if !NewCloud(50, 3, nil, 2.0, r).Cold {
		t.Fatal("wide cloud should be cold")
	}
}

func TestCloudLocksOnTarget(t *testing.T) {
	r := rng.New(5)
	c := NewCloud(200, 5, nil, 2.0, r)
	truth := []float64{1, -2, 0.5, 3, -1}
	for i := 0; i < 5; i++ {
		obs := make([]float64, 5)
		for d := range obs {
			obs[d] = truth[d] + 0.05*r.NormFloat64()
		}
		c.Step(Frame{Obs: obs, True: truth, Quality: 1}, 0.02, 0.05, r)
	}
	if c.Cold {
		t.Fatal("cloud still cold after informative frames")
	}
	if err := Dist(c.Estimate(), truth); err > 0.2 {
		t.Fatalf("cloud did not lock: error %g", err)
	}
}

func TestColdCloudStaysColdDuringOcclusion(t *testing.T) {
	r := rng.New(6)
	c := NewCloud(200, 5, nil, 2.0, r)
	obs := []float64{5, 5, 5, 5, 5}
	for i := 0; i < 10; i++ {
		c.Step(Frame{Obs: obs, True: obs, Quality: 0.02}, 0.02, 0.05, r)
	}
	if !c.Cold {
		t.Fatal("cloud locked during occlusion")
	}
	if err := Dist(c.Estimate(), obs); err < 2 {
		t.Fatalf("occluded cold cloud implausibly close to target: %g", err)
	}
}

func TestLockedCloudCoastsThroughOcclusion(t *testing.T) {
	r := rng.New(7)
	c := NewCloud(200, 5, nil, 0.03, r) // locked at origin
	truth := []float64{0, 0, 0, 0, 0}
	// Occluded frames: the cloud should diffuse but stay in the vicinity.
	for i := 0; i < 8; i++ {
		c.Step(Frame{Obs: truth, True: truth, Quality: 0.02}, 0.03, 0.05, r)
	}
	if err := Dist(c.Estimate(), truth); err > 1.0 {
		t.Fatalf("locked cloud lost target during short occlusion: %g", err)
	}
}

func TestHighDimensionalTemperedLock(t *testing.T) {
	// 50-dim tracking (bodytrack's regime) requires tempering; verify the
	// estimate hugs the observation.
	r := rng.New(8)
	c := NewCloud(1250, 50, nil, 3.0, r)
	truth := make([]float64, 50)
	for f := 0; f < 6; f++ {
		obs := make([]float64, 50)
		for d := range obs {
			obs[d] = truth[d] + 0.1*r.NormFloat64()
		}
		fr := Frame{Obs: obs, True: truth, Quality: 1}
		c.StepT(fr, 0.035, 0.1, 5, r)
		est := c.StepT(fr, 0.014, 0.1, 2.5, r)
		if f >= 2 {
			if d := Dist(est, obs); d > 0.5 {
				t.Fatalf("frame %d estimate %g from obs; tempered lock failed", f, d)
			}
		}
	}
}

func TestCloneIndependentAndFreshID(t *testing.T) {
	r := rng.New(9)
	c := NewCloud(50, 3, nil, 0.05, r)
	cl := c.Clone()
	if cl.ID == c.ID {
		t.Fatal("clone shares region ID with original")
	}
	orig := c.P[0]
	cl.P[0] = orig + 100
	if c.P[0] != orig {
		t.Fatal("clone shares particle storage")
	}
	if cl.Cold != c.Cold || cl.Age != c.Age || cl.N != c.N || cl.Dims != c.Dims {
		t.Fatal("clone lost metadata")
	}
}

func TestRecenter(t *testing.T) {
	r := rng.New(10)
	c := NewCloud(100, 5, nil, 2.0, r)
	pose := []float64{1, 2, 3, 4, 5}
	c.Recenter(pose, 0.01, r)
	if c.Cold {
		t.Fatal("recentered cloud still cold")
	}
	if d := Dist(c.Estimate(), pose); d > 0.05 {
		t.Fatalf("recenter missed pose by %g", d)
	}
	if c.Spread() > 0.1 {
		t.Fatalf("recentered cloud too spread: %g", c.Spread())
	}
}

func TestResamplePreservesCount(t *testing.T) {
	r := rng.New(11)
	c := NewCloud(64, 4, nil, 0.1, r)
	c.Step(Frame{Obs: make([]float64, 4), True: make([]float64, 4), Quality: 1}, 0.02, 0.05, r)
	if len(c.P) != 64*4 || len(c.W) != 64 {
		t.Fatalf("resample changed particle storage: %d/%d", len(c.P), len(c.W))
	}
	var sum float64
	for _, w := range c.W {
		if w < 0 {
			t.Fatal("negative weight after resample")
		}
		sum += w
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("weights sum to %g", sum)
	}
}

func TestDist(t *testing.T) {
	if d := Dist([]float64{0, 3}, []float64{4, 0}); d != 5 {
		t.Fatalf("Dist = %g, want 5", d)
	}
	if d := Dist([]float64{1}, []float64{1}); d != 0 {
		t.Fatalf("Dist same point = %g", d)
	}
}

func TestStateProfileRenamesStateRegion(t *testing.T) {
	base := memsim.AccessProfile{
		Name: "x",
		Regions: []memsim.RegionRef{
			{Name: "frames", Bytes: 100, Frac: 0.5},
			{Name: "$state", Bytes: 1, Frac: 0.5},
		},
	}
	p1 := StateProfile(base, "bt.", 7, 8000)
	p2 := StateProfile(base, "bt.", 8, 8000)
	if p1.Regions[1].Name == "$state" {
		t.Fatal("placeholder not replaced")
	}
	if p1.Regions[1].Name == p2.Regions[1].Name {
		t.Fatal("different state IDs share a region name")
	}
	if p1.Regions[1].Bytes != 8000 {
		t.Fatalf("state region size %d", p1.Regions[1].Bytes)
	}
	if p1.Regions[0].Name != "frames" {
		t.Fatal("non-state region renamed")
	}
	if base.Regions[1].Name != "$state" {
		t.Fatal("StateProfile mutated the base profile")
	}
}

func TestSpreadReflectsDispersion(t *testing.T) {
	r := rng.New(12)
	tight := NewCloud(100, 4, nil, 0.01, r)
	wide := NewCloud(100, 4, nil, 1.0, r)
	if tight.Spread() >= wide.Spread() {
		t.Fatalf("spread ordering wrong: %g vs %g", tight.Spread(), wide.Spread())
	}
}

func TestPropertyEstimateWithinParticleHull(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		c := NewCloud(32, 2, []float64{1, 1}, 0.3, r)
		est := c.Estimate()
		// Weighted mean must lie within the bounding box of particles.
		for d := 0; d < 2; d++ {
			lo, hi := math.Inf(1), math.Inf(-1)
			for i := 0; i < c.N; i++ {
				v := c.P[i*2+d]
				lo = math.Min(lo, v)
				hi = math.Max(hi, v)
			}
			if est[d] < lo-1e-9 || est[d] > hi+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestDeterministicSteps(t *testing.T) {
	run := func() []float64 {
		r := rng.New(77)
		c := NewCloud(100, 5, nil, 2.0, r)
		var est []float64
		for i := 0; i < 5; i++ {
			obs := []float64{0.1, 0.2, 0.3, 0.4, 0.5}
			est = c.Step(Frame{Obs: obs, True: obs, Quality: 1}, 0.02, 0.05, r)
		}
		return est
	}
	a, b := run(), run()
	for d := range a {
		if a[d] != b[d] {
			t.Fatal("identical seeds produced different estimates")
		}
	}
}

func TestCloneCloudIntoReusesBuffersAndIsolatesScratch(t *testing.T) {
	r := rng.New(6)
	src := NewCloud(50, 3, nil, 1.0, r)
	retired := NewCloud(50, 3, []float64{9, 9, 9}, 1.0, r)
	retiredP := &retired.P[0]
	got := CloneCloudInto(retired, src)
	if got != retired {
		t.Fatal("CloneCloudInto must reuse the retired cloud")
	}
	if &got.P[0] != retiredP {
		t.Fatal("CloneCloudInto must reuse the retired particle buffer")
	}
	if got.ID == src.ID {
		t.Fatal("a recycled clone must get a fresh region ID, like Clone")
	}
	for i := range src.P {
		if got.P[i] != src.P[i] {
			t.Fatalf("particle %d not copied", i)
		}
	}
	// The recycled clone and the source must evolve independently: their
	// buffers (including resample scratch) must not alias.
	fr := Frame{Obs: []float64{0, 0, 0}, True: []float64{0, 0, 0}, Quality: 1}
	srcBefore := append([]float64(nil), src.P...)
	got.Step(fr, 0.02, 0.05, rng.New(1))
	for i := range src.P {
		if src.P[i] != srcBefore[i] {
			t.Fatal("stepping the recycled clone mutated the source cloud")
		}
	}
	// A nil or too-small destination degrades to a fresh Clone.
	if c := CloneCloudInto(nil, src); c == nil || c == src || len(c.P) != len(src.P) {
		t.Fatal("CloneCloudInto(nil, src) must build a fresh clone")
	}
	small := NewCloud(10, 3, nil, 1.0, r)
	if c := CloneCloudInto(small, src); c == small {
		t.Fatal("CloneCloudInto must not squeeze into a smaller cloud")
	}
}

func TestProfileCachedPerBaseAndInvalidatedOnRecycle(t *testing.T) {
	base1 := memsim.AccessProfile{Name: "t.one", Regions: []memsim.RegionRef{{Name: "$state", Bytes: 1}}}
	base2 := memsim.AccessProfile{Name: "t.two", Regions: []memsim.RegionRef{{Name: "$state", Bytes: 1}}}
	c := NewCloud(10, 2, nil, 1.0, rng.New(8))
	p1 := c.Profile(&base1, "t.state.", 160)
	if c.Profile(&base1, "t.state.", 160) != p1 {
		t.Fatal("same base must hit the cache")
	}
	p2 := c.Profile(&base2, "t.state.", 160)
	if p2 == p1 {
		t.Fatal("distinct bases must get distinct profiles")
	}
	if c.Profile(&base1, "t.state.", 160) != p1 || c.Profile(&base2, "t.state.", 160) != p2 {
		t.Fatal("two-slot cache must hold both bases")
	}
	// Recycling assigns a new ID, so cached profiles (named by ID) must
	// be rebuilt.
	src := NewCloud(10, 2, nil, 1.0, rng.New(9))
	CloneCloudInto(c, src)
	if c.Profile(&base1, "t.state.", 160) == p1 {
		t.Fatal("profile cache must be invalidated when the cloud is recycled")
	}
}
