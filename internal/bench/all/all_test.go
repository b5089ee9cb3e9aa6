package all_test

import (
	"math"
	"testing"

	"gostats/internal/bench"
	_ "gostats/internal/bench/all"
	"gostats/internal/engine"
	"gostats/internal/rng"
)

// TestRegistryComplete smoke-tests the full suite through the registry:
// every benchmark must construct, describe itself, have a codec that
// serializes states, generate inputs, round-trip them through a
// sequential native run, and score the outputs with a finite quality —
// the minimum contract every tool and experiment in the repo assumes.
func TestRegistryComplete(t *testing.T) {
	names := bench.Names()
	if len(names) == 0 {
		t.Fatal("benchmark registry is empty")
	}
	for _, name := range names {
		t.Run(name, func(t *testing.T) {
			b, err := bench.New(name)
			if err != nil {
				t.Fatal(err)
			}
			if b.Name() != name {
				t.Errorf("Name() = %q, registered as %q", b.Name(), name)
			}
			if b.Describe() == "" {
				t.Error("empty Describe()")
			}
			if b.MaxInnerWidth() < 1 {
				t.Errorf("MaxInnerWidth() = %d", b.MaxInnerWidth())
			}
			if _, err := bench.WireFor(name); err != nil {
				t.Error(err)
			}

			inputs := b.Inputs(rng.New(1))
			if len(inputs) == 0 {
				t.Fatal("no native inputs")
			}
			training := b.TrainingInputs(rng.New(1))
			if len(training) == 0 {
				t.Fatal("no training inputs")
			}
			if len(inputs) > 32 {
				inputs = inputs[:32]
			}

			rep := engine.RunSequential(engine.NewNativeExec(), b, inputs, 5)
			if len(rep.Outputs) != len(inputs) {
				t.Fatalf("sequential run: %d outputs for %d inputs", len(rep.Outputs), len(inputs))
			}
			q := b.Quality(rep.Outputs)
			if math.IsNaN(q) || math.IsInf(q, 0) {
				t.Fatalf("Quality = %v, want finite", q)
			}
		})
	}
}

// TestCodecRoundTrip checks every registered stream codec against its
// benchmark: encoded inputs must decode back into values that drive the
// program identically, which is what makes a served NDJSON session
// reproducible from its request log.
func TestCodecRoundTrip(t *testing.T) {
	names := bench.CodecNames()
	if len(names) == 0 {
		t.Fatal("no stream codecs registered")
	}
	for _, name := range names {
		t.Run(name, func(t *testing.T) {
			b, err := bench.New(name)
			if err != nil {
				t.Fatal(err)
			}
			codec, err := bench.CodecFor(name)
			if err != nil {
				t.Fatal(err)
			}
			inputs := b.Inputs(rng.New(1))
			if len(inputs) > 16 {
				inputs = inputs[:16]
			}
			decoded := make([]engine.Input, len(inputs))
			for i, in := range inputs {
				wire, err := codec.EncodeInput(in)
				if err != nil {
					t.Fatalf("input %d: encode: %v", i, err)
				}
				decoded[i], err = codec.DecodeInput(wire)
				if err != nil {
					t.Fatalf("input %d: decode: %v", i, err)
				}
			}
			// Same seed, original vs round-tripped inputs: the sequential
			// runs must emit identical wire-encoded outputs.
			a := engine.RunSequential(engine.NewNativeExec(), b, inputs, 5)
			bb, err := bench.New(name)
			if err != nil {
				t.Fatal(err)
			}
			c := engine.RunSequential(engine.NewNativeExec(), bb, decoded, 5)
			for i := range a.Outputs {
				wa, err := codec.EncodeOutput(a.Outputs[i])
				if err != nil {
					t.Fatal(err)
				}
				wc, err := codec.EncodeOutput(c.Outputs[i])
				if err != nil {
					t.Fatal(err)
				}
				if string(wa) != string(wc) {
					t.Fatalf("output %d differs after input round-trip:\n orig: %s\n rt:   %s", i, wa, wc)
				}
			}
		})
	}
}
