package rng

import (
	"math"
	"math/bits"
	"slices"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams with equal seeds diverged at draw %d", i)
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("streams with different seeds matched %d/100 draws", same)
	}
}

func TestZeroSeedValid(t *testing.T) {
	r := New(0)
	if r.Uint64() == 0 && r.Uint64() == 0 && r.Uint64() == 0 {
		t.Fatal("zero seed produced a degenerate stream")
	}
}

func TestDeriveIndependence(t *testing.T) {
	root := New(7)
	a := root.Derive("alpha")
	b := root.Derive("beta")
	if a.Uint64() == b.Uint64() {
		t.Fatal("derived streams with different labels produced equal first draw")
	}
	// Derivation must not consume parent state.
	r1 := New(7)
	r1.Derive("alpha")
	r2 := New(7)
	if r1.Uint64() != r2.Uint64() {
		t.Fatal("Derive disturbed the parent stream")
	}
}

func TestDeriveSameLabelSameStream(t *testing.T) {
	root := New(9)
	a := root.Derive("x")
	b := root.Derive("x")
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same-label derivations diverged at draw %d", i)
		}
	}
}

func TestDeriveNDistinct(t *testing.T) {
	root := New(11)
	seen := make(map[uint64]int)
	for n := 0; n < 200; n++ {
		v := root.DeriveN("thread", n).Uint64()
		if prev, ok := seen[v]; ok {
			t.Fatalf("DeriveN(%d) and DeriveN(%d) produced the same first draw", prev, n)
		}
		seen[v] = n
	}
}

// TestSubIsDeriveByValue pins the by-value derivation to the bits Derive
// and DeriveN have always produced (the constants predate Sub), and to
// what it is for: a substream in storage the caller owns, no allocation.
func TestSubIsDeriveByValue(t *testing.T) {
	root := New(7)
	a, n := root.Sub("alpha"), root.SubN("thread", 3)
	if got := a.Uint64(); got != 0x91e991dabee84a15 {
		t.Errorf(`Sub("alpha") first draw = %#x`, got)
	}
	if got := n.Uint64(); got != 0x74d2cf06e52d785f {
		t.Errorf(`SubN("thread", 3) first draw = %#x`, got)
	}
	if got := root.Derive("alpha").Uint64(); got != 0x91e991dabee84a15 {
		t.Errorf(`Derive("alpha") first draw = %#x`, got)
	}
	if got := root.DeriveN("thread", 3).Uint64(); got != 0x74d2cf06e52d785f {
		t.Errorf(`DeriveN("thread", 3) first draw = %#x`, got)
	}
	var slot Stream
	if allocs := testing.AllocsPerRun(100, func() {
		slot = root.SubN("worker", 1)
		slot = slot.Sub("body")
	}); allocs != 0 {
		t.Errorf("Sub/SubN into an owned slot allocate %v objects a run", allocs)
	}
}

func TestIntnRange(t *testing.T) {
	r := New(3)
	for n := 1; n < 40; n++ {
		for i := 0; i < 50; i++ {
			v := r.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestIntnUniformity(t *testing.T) {
	r := New(5)
	const n, draws = 10, 100000
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		counts[r.Intn(n)]++
	}
	want := float64(draws) / n
	for i, c := range counts {
		if math.Abs(float64(c)-want) > 0.05*want {
			t.Fatalf("bucket %d count %d deviates more than 5%% from %g", i, c, want)
		}
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(8)
	for i := 0; i < 10000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64() = %g out of [0,1)", v)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	r := New(13)
	sum := 0.0
	const n = 200000
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	if mean := sum / n; math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("Float64 mean %g too far from 0.5", mean)
	}
}

func TestNormFloat64Moments(t *testing.T) {
	r := New(17)
	const n = 200000
	var sum, sumsq float64
	for i := 0; i < n; i++ {
		v := r.NormFloat64()
		sum += v
		sumsq += v * v
	}
	mean := sum / n
	variance := sumsq/n - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Fatalf("normal mean %g too far from 0", mean)
	}
	if math.Abs(variance-1) > 0.05 {
		t.Fatalf("normal variance %g too far from 1", variance)
	}
}

func TestExpFloat64Mean(t *testing.T) {
	r := New(19)
	const n = 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		v := r.ExpFloat64()
		if v < 0 {
			t.Fatalf("ExpFloat64 returned negative value %g", v)
		}
		sum += v
	}
	if mean := sum / n; math.Abs(mean-1) > 0.03 {
		t.Fatalf("exponential mean %g too far from 1", mean)
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := New(23)
	for n := 0; n < 50; n++ {
		// Stale contents: Perm overwrites every slot.
		p := make([]int, n)
		for i := range p {
			p[i] = 7 * i
		}
		r.Perm(p)
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				t.Fatalf("Perm of %d = %v is not a permutation", n, p)
			}
			seen[v] = true
		}
	}
}

// TestPermDraws pins Perm to the permutations, and the stream position,
// of the allocating form it replaced: the FNV-1a hash of the permutation
// and the stream's next Uint64 after it, for three seeds and sizes from
// 0 through 200. 65 is one past streamclassifier's stack array, the
// largest block its Update permutes without allocating. A changed draw
// here moves every streamclassifier output.
func TestPermDraws(t *testing.T) {
	for _, tc := range []struct {
		seed       uint64
		n          int
		hash, next uint64
	}{
		{1, 0, 0xcbf29ce484222325, 0xb3f2af6d0fc710c5},
		{1, 1, 0xaf63bd4c8601b7df, 0x853b559647364cea},
		{1, 2, 0x8328707b4eb6e3a, 0x92f89756082a4514},
		{1, 16, 0x34f52ba55d17c767, 0x1498c2c122087c87},
		{1, 64, 0xdc050ea3c6929f6f, 0x9436a47fa3eb824b},
		{1, 65, 0x1428140886e5b36d, 0xe9c9b34bb1ae2a6a},
		{1, 200, 0x62f798c4ef0860c9, 0x74a8d0218d376b8d},
		{7, 0, 0xcbf29ce484222325, 0xb358faf74ef9765a},
		{7, 1, 0xaf63bd4c8601b7df, 0x475c3d964f482cd2},
		{7, 2, 0x82f2207b4e88cc4, 0xd6f1d349952c7996},
		{7, 16, 0x256b939c34582acb, 0x41b6f599f3da5dbf},
		{7, 64, 0x8f63bbfe4bf8fa5d, 0x5bf07bcc4ed9d19b},
		{7, 65, 0xc78fae89f7948bb7, 0xf5d3acc4fe1d1e6b},
		{7, 200, 0x41e6f11a217827c3, 0x4ea67d0d94786ce7},
		{42, 0, 0xcbf29ce484222325, 0x15780b2e0c2ec716},
		{42, 1, 0xaf63bd4c8601b7df, 0x6104d9866d113a7e},
		{42, 2, 0x82f2207b4e88cc4, 0xae17533239e499a1},
		{42, 16, 0x19a18cc0e36c00b5, 0x9de4159eda9cef95},
		{42, 64, 0x1077be30d77abda1, 0x125c1354bb1738f2},
		{42, 65, 0x28e35b7740fd7c3, 0x2c0162ba54980a8d},
		{42, 200, 0x3f37666500731293, 0xf09803221eb0c5ba},
	} {
		r := New(tc.seed)
		p := make([]int, tc.n)
		r.Perm(p)
		h := uint64(14695981039346656037)
		for _, v := range p {
			h = (h ^ uint64(v)) * 1099511628211
		}
		if next := r.Uint64(); h != tc.hash || next != tc.next {
			t.Errorf("seed %d, n %d: hash %#x and next draw %#x, want %#x and %#x", tc.seed, tc.n, h, next, tc.hash, tc.next)
		}
	}
	p := make([]int, 16)
	New(1).Perm(p)
	if want := []int{6, 3, 1, 7, 2, 9, 5, 8, 14, 13, 10, 11, 12, 0, 15, 4}; !slices.Equal(p, want) {
		t.Errorf("seed 1, n 16: %v, want %v", p, want)
	}
}

// TestPermAllocatesNothing holds Perm to the caller's storage: filling a
// slice, of any size, allocates nothing.
func TestPermAllocatesNothing(t *testing.T) {
	r := New(5)
	for _, n := range []int{0, 1, 16, 65, 200} {
		p := make([]int, n)
		if a := testing.AllocsPerRun(20, func() { r.Perm(p) }); a != 0 {
			t.Errorf("Perm of %d: %v allocations, want 0", n, a)
		}
	}
}

func TestShufflePreservesMultiset(t *testing.T) {
	r := New(29)
	s := []int{1, 2, 3, 4, 5, 6, 7, 8}
	sum := 0
	for _, v := range s {
		sum += v
	}
	r.Shuffle(len(s), func(i, j int) { s[i], s[j] = s[j], s[i] })
	got := 0
	for _, v := range s {
		got += v
	}
	if got != sum {
		t.Fatalf("Shuffle changed the element multiset: sum %d != %d", got, sum)
	}
}

func TestBoolProbability(t *testing.T) {
	r := New(31)
	const n = 100000
	hits := 0
	for i := 0; i < n; i++ {
		if r.Bool(0.3) {
			hits++
		}
	}
	if frac := float64(hits) / n; math.Abs(frac-0.3) > 0.01 {
		t.Fatalf("Bool(0.3) hit rate %g", frac)
	}
}

func TestJitterBounds(t *testing.T) {
	r := New(37)
	for i := 0; i < 10000; i++ {
		v := r.Jitter(100, 0.2)
		if v < 80 || v > 120 {
			t.Fatalf("Jitter(100, 0.2) = %g out of [80,120]", v)
		}
	}
}

func TestMul64AgainstBigProducts(t *testing.T) {
	cases := []struct{ a, b, hi, lo uint64 }{
		{0, 0, 0, 0},
		{1, 1, 0, 1},
		{math.MaxUint64, 2, 1, math.MaxUint64 - 1},
		{math.MaxUint64, math.MaxUint64, math.MaxUint64 - 1, 1},
		{1 << 32, 1 << 32, 1, 0},
	}
	// Intn's rejection sampling leans on the full 128-bit product; pin
	// the multiply primitive's behavior at the extremes.
	for _, c := range cases {
		hi, lo := bits.Mul64(c.a, c.b)
		if hi != c.hi || lo != c.lo {
			t.Fatalf("Mul64(%d, %d) = (%d, %d), want (%d, %d)", c.a, c.b, hi, lo, c.hi, c.lo)
		}
	}
}

func TestPropertyIntnAlwaysInRange(t *testing.T) {
	f := func(seed uint64, n uint16) bool {
		m := int(n%1000) + 1
		r := New(seed)
		for i := 0; i < 20; i++ {
			v := r.Intn(m)
			if v < 0 || v >= m {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPropertySeedDeterminism(t *testing.T) {
	f := func(seed uint64) bool {
		a, b := New(seed), New(seed)
		for i := 0; i < 10; i++ {
			if a.Uint64() != b.Uint64() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
