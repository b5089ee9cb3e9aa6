package workload

import (
	"math"
	"testing"

	"gostats/internal/rng"
)

// sampleMoments draws n samples and returns their empirical mean and
// variance.
func sampleMoments(t *testing.T, d Distribution, seed uint64, n int) (float64, float64) {
	t.Helper()
	if err := d.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	r := rng.New(seed)
	sum, sumsq := 0.0, 0.0
	for i := 0; i < n; i++ {
		x := d.Sample(r)
		if x < 0 {
			t.Fatalf("sample %d is negative: %v", i, x)
		}
		sum += x
		sumsq += x * x
	}
	mean := sum / float64(n)
	return mean, sumsq/float64(n) - mean*mean
}

// within fails unless got is within tol (fractional) of want.
func within(t *testing.T, what string, got, want, tol float64) {
	t.Helper()
	if diff := math.Abs(got-want) / want; diff > tol {
		t.Errorf("%s = %v, want %v (±%.0f%%); off by %.1f%%", what, got, want, tol*100, diff*100)
	}
}

// TestDistributionMoments checks every law's empirical mean and variance
// against the analytic values at fixed seeds. 200k samples put the
// standard error well inside the 3% tolerance for these parameters.
func TestDistributionMoments(t *testing.T) {
	const n = 200_000
	cases := []struct {
		name     string
		d        Distribution
		mean     float64
		variance float64
	}{
		{"exponential", exp(100), 100, 100 * 100},
		{"poisson", Poisson{Lambda: 75}, 75, 75},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := tc.d.Mean(); got != tc.mean {
				t.Errorf("Mean() = %v, want %v", got, tc.mean)
			}
			mean, variance := sampleMoments(t, tc.d, 9, n)
			within(t, "empirical mean", mean, tc.mean, 0.03)
			within(t, "empirical variance", variance, tc.variance, 0.05)
		})
	}
}

// TestDistributionDeterminism: the same (law, seed) yields the same draw
// sequence; a different seed yields a different one.
func TestDistributionDeterminism(t *testing.T) {
	laws := []Distribution{exp(10), Poisson{Lambda: 12}}
	for _, d := range laws {
		ra, rb, rc := rng.New(3), rng.New(3), rng.New(4)
		same, diff := true, true
		for i := 0; i < 100; i++ {
			a, b, c := d.Sample(ra), d.Sample(rb), d.Sample(rc)
			if a != b {
				same = false
			}
			if a != c {
				diff = false
			}
		}
		if !same {
			t.Errorf("%T: same seed diverged", d)
		}
		if diff {
			t.Errorf("%T: different seeds produced identical streams", d)
		}
	}
}

// TestExponentialMatchesLegacyDraw pins Exponential.Sample to the closed
// form r.ExpFloat64() * mean, one draw per sample: every exponential
// spec, the one behind the nonstationary golden among them, has always
// generated its arrivals with it.
func TestExponentialMatchesLegacyDraw(t *testing.T) {
	mean := 250.0
	a, b := rng.New(42).Derive("workload-arrivals"), rng.New(42).Derive("workload-arrivals")
	d := exp(mean)
	for i := 0; i < 1000; i++ {
		if got, want := d.Sample(a), b.ExpFloat64()*mean; got != want {
			t.Fatalf("draw %d: Sample = %v, legacy expression = %v", i, got, want)
		}
	}
}

// TestPoissonIsInteger: Poisson samples are whole counts.
func TestPoissonIsInteger(t *testing.T) {
	r := rng.New(5)
	d := Poisson{Lambda: 200} // crosses the λ-slicing threshold
	for i := 0; i < 1000; i++ {
		if x := d.Sample(r); x != math.Trunc(x) {
			t.Fatalf("sample %d not integral: %v", i, x)
		}
	}
}

// TestDistributionValidate: bad parameters are rejected, good accepted.
func TestDistributionValidate(t *testing.T) {
	bad := []Distribution{exp(0), exp(-1), exp(math.NaN()), Poisson{Lambda: 0}}
	for _, d := range bad {
		if err := d.Validate(); err == nil {
			t.Errorf("%T%+v: Validate accepted bad parameters", d, d)
		}
	}
	good := []Distribution{exp(1), Poisson{Lambda: 0.5}}
	for _, d := range good {
		if err := d.Validate(); err != nil {
			t.Errorf("%T%+v: Validate rejected good parameters: %v", d, d, err)
		}
	}
}
