package quality

import (
	"testing"

	"gostats/internal/bench/streamcluster"
	"gostats/internal/bench/swaptions"
	"gostats/internal/engine"
)

func TestDistributionsShape(t *testing.T) {
	p := swaptions.Default()
	p.BatchesPerSwaption = 12
	p.RealSimsPerBatch = 150
	b := swaptions.NewWithParams(p)
	cfg := engine.Config{Chunks: 4, Lookback: 3, ExtraStates: 1, InnerWidth: 1}
	sw, err := Distributions(b, cfg, 8, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(sw.Original) != 8 || len(sw.STATS) != 8 {
		t.Fatalf("distribution sizes %d/%d", len(sw.Original), len(sw.STATS))
	}
	if sw.Commits+sw.Aborts != 8*4 {
		t.Fatalf("commit accounting: %d+%d != 32", sw.Commits, sw.Aborts)
	}
	// Different seeds must produce varying qualities.
	same := true
	for _, q := range sw.Original[1:] {
		if q != sw.Original[0] {
			same = false
		}
	}
	if same {
		t.Fatal("original quality distribution is degenerate")
	}
}

func TestSummarize(t *testing.T) {
	sw := &Sweep{
		Benchmark: "x",
		Original:  []float64{-0.5, -0.6, -0.4},
		STATS:     []float64{-0.2, -0.3, -0.1},
	}
	s := sw.Summarize()
	if !s.Improved {
		t.Fatal("better STATS median not flagged as improved")
	}
	if s.Original.Median != -0.5 || s.STATS.Median != -0.2 {
		t.Fatalf("medians %g/%g", s.Original.Median, s.STATS.Median)
	}
}

func TestSTATSImprovesClusteringQuality(t *testing.T) {
	// The Fig. 16 signature on streamcluster: the chunk-local lineages
	// track the drifting clusters better than the aging sequential
	// lineage, so STATS improves output quality.
	p := streamcluster.Default()
	p.Blocks = 800
	b := streamcluster.NewWithParams(p)
	cfg := engine.Config{Chunks: 8, Lookback: 6, ExtraStates: 1, InnerWidth: 1}
	sw, err := Distributions(b, cfg, 5, 3, 4)
	if err != nil {
		t.Fatal(err)
	}
	s := sw.Summarize()
	if !s.Improved {
		t.Fatalf("STATS median %g not better than original %g", s.STATS.Median, s.Original.Median)
	}
}

func TestValidation(t *testing.T) {
	p := swaptions.Default()
	p.BatchesPerSwaption = 96
	b := swaptions.NewWithParams(p)
	if _, err := Distributions(b, engine.Config{Chunks: 1, Lookback: 1, InnerWidth: 1}, 0, 1, 1); err == nil {
		t.Fatal("zero runs accepted")
	}
	if _, err := Distributions(b, engine.Config{}, 2, 1, 1); err == nil {
		t.Fatal("invalid config accepted")
	}
}

func TestKolmogorovSmirnov(t *testing.T) {
	same := []float64{1, 2, 3, 4, 5}
	if d := KolmogorovSmirnov(same, same); d > 1e-9 {
		t.Fatalf("KS of identical samples = %g", d)
	}
	a := []float64{1, 2, 3, 4, 5}
	b := []float64{101, 102, 103, 104, 105}
	if d := KolmogorovSmirnov(a, b); d != 1 {
		t.Fatalf("KS of disjoint samples = %g, want 1", d)
	}
	if KolmogorovSmirnov(nil, a) != 0 {
		t.Fatal("KS with empty sample should be 0")
	}
	// Symmetry.
	if KolmogorovSmirnov(a, b) != KolmogorovSmirnov(b, a) {
		t.Fatal("KS not symmetric")
	}
}

func TestKSReject(t *testing.T) {
	// Disjoint distributions with decent sample sizes: rejected.
	if !KSReject(1.0, 30, 30, 0.05) {
		t.Fatal("KS=1 with n=m=30 should reject")
	}
	// Tiny difference: not rejected.
	if KSReject(0.05, 30, 30, 0.05) {
		t.Fatal("KS=0.05 with n=m=30 should not reject")
	}
	if KSReject(1, 0, 5, 0.05) {
		t.Fatal("empty sample should never reject")
	}
}

func TestSummaryIncludesKS(t *testing.T) {
	sw := &Sweep{
		Benchmark: "x",
		Original:  []float64{1, 1.1, 0.9, 1.05, 0.95, 1, 1.1, 0.9, 1.05, 0.95},
		STATS:     []float64{5, 5.1, 4.9, 5.05, 4.95, 5, 5.1, 4.9, 5.05, 4.95},
	}
	s := sw.Summarize()
	if s.KS != 1 || !s.KSSignificant {
		t.Fatalf("clearly different distributions: KS=%g significant=%v", s.KS, s.KSSignificant)
	}
}
