package workload

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"gostats/internal/rng"
)

func TestDurationUnmarshalForms(t *testing.T) {
	var d struct {
		A Duration `json:"a"`
		B Duration `json:"b"`
	}
	if err := json.Unmarshal([]byte(`{"a": "250ms", "b": 1500}`), &d); err != nil {
		t.Fatal(err)
	}
	if d.A != Duration(250*time.Millisecond) {
		t.Errorf("string form: got %v, want 250ms in ns", float64(d.A))
	}
	if d.B != 1500 {
		t.Errorf("number form: got %v, want 1500", float64(d.B))
	}
	if err := json.Unmarshal([]byte(`{"a": "not-a-duration"}`), &d); err == nil {
		t.Error("bad duration string accepted")
	}
}

func TestMixWeightedProportions(t *testing.T) {
	mix, err := NewMix([]MixEntry{
		{Benchmark: "a", Weight: 3},
		{Benchmark: "b", Weight: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(1)
	counts := map[string]int{}
	const n = 100_000
	for i := 0; i < n; i++ {
		counts[mix.Pick(r)]++
	}
	if frac := float64(counts["a"]) / n; math.Abs(frac-0.75) > 0.01 {
		t.Errorf("weight-3 entry drew %.3f of picks, want 0.75±0.01", frac)
	}
}

func TestMixUniformSingleDraw(t *testing.T) {
	// The uniform fast path must consume exactly one Intn-sized draw per
	// pick, so every recorded uniform-mix trace regenerates pick for
	// pick. Two streams, one picking and one replicating the raw Intn,
	// must stay in lockstep.
	names := []string{"a", "b", "c"}
	mix := uniformMix(names)
	pick, raw := rng.New(9).Derive("mix"), rng.New(9).Derive("mix")
	for i := 0; i < 1000; i++ {
		if got, want := mix.Pick(pick), names[raw.Intn(len(names))]; got != want {
			t.Fatalf("pick %d: %q, want %q — uniform path consumed extra draws", i, got, want)
		}
	}
}

func TestMixErrors(t *testing.T) {
	if _, err := NewMix(nil); err == nil {
		t.Error("empty mix accepted")
	}
	if _, err := NewMix([]MixEntry{{Weight: 1}}); err == nil {
		t.Error("nameless entry accepted")
	}
	if _, err := NewMix([]MixEntry{{Benchmark: "a", Weight: -1}}); err == nil {
		t.Error("negative weight accepted")
	}
	if _, err := NewMix([]MixEntry{{Benchmark: "a", Weight: 1}, {Benchmark: "b"}}); err == nil {
		t.Error("mixed weighted/unweighted entries accepted")
	}
}

func TestDiurnalFactorBounds(t *testing.T) {
	d := &Diurnal{PeriodNS: 1000, Depth: 0.6}
	min, max := math.Inf(1), math.Inf(-1)
	for now := int64(0); now < 3000; now += 7 {
		f := d.Factor(now)
		if f <= 0 {
			t.Fatalf("factor %v at %d not positive", f, now)
		}
		min, max = math.Min(min, f), math.Max(max, f)
	}
	if min > 0.41 || max < 1.59 {
		t.Errorf("depth-0.6 curve spanned [%v, %v], want ≈[0.4, 1.6]", min, max)
	}
}

func TestOnOffDeterministicSchedule(t *testing.T) {
	spec := ModSpec{Kind: "onoff", OnMean: 100, OffMean: 50, OffFactor: 0.2}
	build := func() Modulator {
		m, err := spec.Build(rng.New(3).Derive("m"))
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	a, b := build(), build()
	sawOff := false
	for now := int64(0); now < 10_000; now += 3 {
		fa, fb := a.Factor(now), b.Factor(now)
		if fa != fb {
			t.Fatalf("at %d: %v vs %v — phase schedule not a pure function of the seed", now, fa, fb)
		}
		if fa == 0.2 {
			sawOff = true
		} else if fa != 1 {
			t.Fatalf("at %d: factor %v, want 1 (on) or 0.2 (off)", now, fa)
		}
	}
	if !sawOff {
		t.Error("10000ns of Exp(100)/Exp(50) phases never went off")
	}
}

func TestFactorFloorAndScaleGap(t *testing.T) {
	deep := []Modulator{&Diurnal{PeriodNS: 10, Depth: 0.99999}}
	// Whatever the modulators report, the composite factor never reaches 0.
	for now := int64(0); now < 100; now++ {
		if f := factor(deep, now); f < 1e-3 {
			t.Fatalf("composite factor %v below the 1e-3 floor", f)
		}
	}
	if got := scaleGap(1000, 1); got != 1000 {
		t.Errorf("identity factor changed the gap: %d", got)
	}
	if got := scaleGap(1000, 2); got != 500 {
		t.Errorf("factor 2 should halve the gap, got %d", got)
	}
	if got := scaleGap(math.MaxInt64/4, 1e-9); got != math.MaxInt64/2 {
		t.Errorf("overflow guard: got %d, want MaxInt64/2", got)
	}
}

func TestModSpecValidate(t *testing.T) {
	bad := []ModSpec{
		{Kind: "nope"},
		{Kind: "diurnal"},                       // no period
		{Kind: "diurnal", Period: 10, Depth: 1}, // depth out of range
		{Kind: "onoff", OnMean: 10},             // no off mean
		{Kind: "onoff", OnMean: 10, OffMean: 10, OffFactor: -1},
	}
	for _, m := range bad {
		if err := m.Validate(); err == nil {
			t.Errorf("%+v: Validate accepted bad modulator", m)
		}
	}
}

func TestSpecParseValidate(t *testing.T) {
	good := `{
	  "name": "t", "seed": 1, "sessions": 10,
	  "arrival": {"dist": "exponential", "mean": "1ms"},
	  "length": {"dist": "poisson", "lambda": 50},
	  "mix": [{"benchmark": "facetrack"}]
	}`
	s, err := Parse([]byte(good))
	if err != nil {
		t.Fatalf("good spec rejected: %v", err)
	}
	// A spec file that still carries a duration law loads, and the law
	// moves no draw: the trace is the one the spec without it generates.
	old := strings.Replace(good, `"length"`, `"duration": {"dist": "gamma", "mean": "250ms", "shape": 2},
	  "length"`, 1)
	o, err := Parse([]byte(old))
	if err != nil {
		t.Fatalf("spec with a duration law rejected: %v", err)
	}
	if a, b := traceBytes(t, s), traceBytes(t, o); !bytes.Equal(a, b) {
		t.Fatalf("a duration law changed the trace:\n%s\n%s", a, b)
	}
	bad := map[string]string{
		"no sessions":   `{"name":"t","arrival":{"dist":"exponential","mean":1},"mix":[{"benchmark":"a"}]}`,
		"no arrival":    `{"name":"t","sessions":5,"mix":[{"benchmark":"a"}]}`,
		"unknown dist":  `{"name":"t","sessions":5,"arrival":{"dist":"zipf","mean":1},"mix":[{"benchmark":"a"}]}`,
		"gamma arrival": `{"name":"t","sessions":5,"arrival":{"dist":"gamma","mean":1,"shape":2},"mix":[{"benchmark":"a"}]}`,
		"poisson length by mean": `{"name":"t","sessions":5,"arrival":{"dist":"exponential","mean":1},
		  "length":{"dist":"poisson","mean":50},"mix":[{"benchmark":"a"}]}`,
		"empty mix": `{"name":"t","sessions":5,"arrival":{"dist":"exponential","mean":1},"mix":[]}`,
		"bad modulator": `{"name":"t","sessions":5,"arrival":{"dist":"exponential","mean":1},
		  "mix":[{"benchmark":"a"}],"modulators":[{"kind":"diurnal"}]}`,
	}
	for name, s := range bad {
		if _, err := Parse([]byte(s)); err == nil {
			t.Errorf("%s: Parse accepted invalid spec", name)
		}
	}
}

// testSpec exercises every seam of Generate at once: an arrival law, a
// length law, a weighted mix and both modulator kinds.
func testSpec() *Spec {
	return &Spec{
		Name: "roundtrip", Seed: 17, Sessions: 200,
		Arrival: DistSpec{Dist: "exponential", Mean: Duration(2 * time.Millisecond)},
		Length:  DistSpec{Dist: "poisson", Lambda: 64},
		Mix: []MixEntry{
			{Benchmark: "facetrack", Weight: 2},
			{Benchmark: "dedupstream", Weight: 1},
		},
		Modulators: []ModSpec{
			{Kind: "diurnal", Period: Duration(50 * time.Millisecond), Depth: 0.4},
			{Kind: "onoff", OnMean: Duration(20 * time.Millisecond),
				OffMean: Duration(10 * time.Millisecond), OffFactor: 0.3},
		},
	}
}

// TestGenerateDeterministicAndByteStable: Generate is a pure function of
// the spec, its serialization is byte-stable, and a write→read round
// trip reproduces the trace exactly.
func TestGenerateDeterministicAndByteStable(t *testing.T) {
	spec := testSpec()
	a, err := Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("two Generate runs of the same spec differ")
	}

	var buf1, buf2 bytes.Buffer
	if _, err := a.WriteTo(&buf1); err != nil {
		t.Fatal(err)
	}
	if _, err := b.WriteTo(&buf2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf1.Bytes(), buf2.Bytes()) {
		t.Fatal("trace serialization not byte-stable")
	}

	rt, err := ReadTrace(bytes.NewReader(buf1.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if rt.Name != a.Name || rt.Seed != a.Seed || !reflect.DeepEqual(rt.Sessions, a.Sessions) {
		t.Fatal("trace round trip changed the trace")
	}
	// And the round-tripped trace re-serializes to the same bytes.
	var buf3 bytes.Buffer
	if _, err := rt.WriteTo(&buf3); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf1.Bytes(), buf3.Bytes()) {
		t.Fatal("read→write round trip changed the bytes")
	}
}

func TestGenerateShape(t *testing.T) {
	spec := testSpec()
	tr, err := Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Sessions) != spec.Sessions {
		t.Fatalf("got %d sessions, want %d", len(tr.Sessions), spec.Sessions)
	}
	seeds := map[uint64]bool{}
	prevAt := int64(-1)
	for i, s := range tr.Sessions {
		if s.Seq != i {
			t.Fatalf("session %d has seq %d", i, s.Seq)
		}
		if s.At < prevAt {
			t.Fatalf("session %d arrives at %d, before its predecessor at %d", i, s.At, prevAt)
		}
		prevAt = s.At
		if s.Inputs < 1 {
			t.Fatalf("session %d has %d inputs; lengths are floored at 1", i, s.Inputs)
		}
		if s.Benchmark != "facetrack" && s.Benchmark != "dedupstream" {
			t.Fatalf("session %d runs %q, not in the mix", i, s.Benchmark)
		}
		seeds[s.Seed] = true
	}
	if len(seeds) != spec.Sessions {
		t.Errorf("only %d distinct session seeds for %d sessions", len(seeds), spec.Sessions)
	}
}

// TestReadTraceHeaderMismatch: ReadTrace refuses an empty trace and one
// whose header miscounts its sessions.
func TestReadTraceHeaderMismatch(t *testing.T) {
	in := `{"trace":"x","seed":1,"sessions":3}
{"seq":0,"at_ns":0,"benchmark":"a"}
`
	if _, err := ReadTrace(strings.NewReader(in)); err == nil {
		t.Error("header promising 3 sessions accepted with 1")
	}
	if _, err := ReadTrace(strings.NewReader("")); err == nil {
		t.Error("empty trace accepted")
	}
}
