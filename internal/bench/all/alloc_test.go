package all

import (
	"testing"

	"gostats/internal/bench"
	"gostats/internal/engine"
	"gostats/internal/rng"
)

// allocs reports the allocations of one call of f.
func allocs(f func()) float64 { return testing.AllocsPerRun(10, f) }

// sample is one benchmark's codec with an input, the output and state it
// leads to, and the three encoded.
type sample struct {
	wc                      bench.WireCodec
	out                     engine.Output
	st                      engine.State
	inLine, outLine, stLine []byte
}

func newSample(t *testing.T, name string) (s sample) {
	t.Helper()
	b := bench.MustNew(name)
	var err error
	if s.wc, err = bench.WireFor(name); err != nil {
		t.Fatal(err)
	}
	in := b.Inputs(rng.New(7))[3]
	s.st, s.out = b.Update(b.Initial(rng.New(1)), in, rng.New(2))
	if s.inLine, err = s.wc.EncodeInput(in); err != nil {
		t.Fatal(err)
	}
	if s.outLine, err = s.wc.EncodeOutput(s.out); err != nil {
		t.Fatal(err)
	}
	if s.stLine, err = s.wc.EncodeState(s.st); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestCodecAllocations pins what the hand-written codecs are for. Every
// decoder must take its own encoder's line without encoding/json — seen
// from outside as allocating less than the same line behind a space,
// which json.Unmarshal decodes — and the hot ones have absolute budgets.
func TestCodecAllocations(t *testing.T) {
	for _, name := range bench.WireNames() {
		t.Run(name, func(t *testing.T) {
			s := newSample(t, name)
			for _, d := range []struct {
				what   string
				line   []byte
				decode func([]byte) error
			}{
				{"DecodeInput", s.inLine, func(l []byte) error { _, err := s.wc.DecodeInput(l); return err }},
				{"DecodeOutput", s.outLine, func(l []byte) error { _, err := s.wc.DecodeOutput(l); return err }},
				{"DecodeState", s.stLine, func(l []byte) error { _, err := s.wc.DecodeState(l); return err }},
			} {
				slowLine := append([]byte(" "), d.line...)
				if err := d.decode(slowLine); err != nil {
					t.Fatalf("%s: %v", d.what, err)
				}
				fast := allocs(func() { _ = d.decode(d.line) })
				slow := allocs(func() { _ = d.decode(slowLine) })
				if fast >= slow {
					t.Errorf("%s: %v allocations for the canonical line, %v through encoding/json: the scanner is not taking it", d.what, fast, slow)
				}
			}
		})
	}

	sc := newSample(t, "streamcluster")
	if n := allocs(func() { _, _ = sc.wc.DecodeInput(sc.inLine) }); n > 2 {
		t.Errorf("streamcluster DecodeInput: %v allocations, want at most 2 (the points and the interface box)", n)
	}
	if n := allocs(func() { _, _ = sc.wc.EncodeOutput(sc.out) }); n > 1 {
		t.Errorf("streamcluster EncodeOutput: %v allocations, want at most 1 (the line)", n)
	}
	dd := newSample(t, "dedupstream")
	if n := allocs(func() { _, _ = dd.wc.EncodeState(dd.st) }); n > 1 {
		t.Errorf("dedupstream EncodeState: %v allocations, want at most 1 (the line)", n)
	}
}
