package all

import (
	"bytes"
	"testing"

	"gostats/internal/bench"
	"gostats/internal/engine"
	"gostats/internal/rng"
)

// TestCheckpointWireStateRoundTrip is the WireCodec contract test behind
// checkpointing and out-of-process chunk execution: every registered
// benchmark must serialize state such that Decode(Encode(s)) is
// bit-equivalent to s — same Match verdict and the same future under
// identical further updates. Re-encoding the decoded
// state must also reproduce the exact bytes, so snapshots are stable
// across save/restore cycles.
func TestCheckpointWireStateRoundTrip(t *testing.T) {
	names := bench.Names()
	wired := make(map[string]bool)
	for _, n := range bench.WireNames() {
		wired[n] = true
	}
	for _, name := range names {
		if !wired[name] {
			t.Errorf("benchmark %q has no registered WireCodec", name)
		}
	}
	for _, name := range names {
		name := name
		t.Run(name, func(t *testing.T) {
			b := bench.MustNew(name)
			wc, err := bench.WireFor(name)
			if err != nil {
				t.Fatal(err)
			}
			states := genStates(b, 16)
			ins := b.Inputs(rng.New(7))
			for i, s := range states {
				raw, err := wc.EncodeState(s)
				if err != nil {
					t.Fatalf("state %d: encode: %v", i, err)
				}
				dec, err := wc.DecodeState(raw)
				if err != nil {
					t.Fatalf("state %d: decode: %v", i, err)
				}
				if !b.Match(dec, s) {
					t.Fatalf("state %d: decoded state does not Match the original", i)
				}
				raw2, err := wc.EncodeState(dec)
				if err != nil {
					t.Fatalf("state %d: re-encode: %v", i, err)
				}
				if !bytes.Equal(raw, raw2) {
					t.Fatalf("state %d: re-encoded bytes differ:\n %s\n %s", i, raw, raw2)
				}
				// Bit-equivalence: both copies must walk the same future.
				a, c := b.Clone(s), dec
				for k := 0; k < 6; k++ {
					in := ins[(i*11+k)%len(ins)]
					ra := rng.New(uint64(i)).DeriveN("fut", k)
					rc := rng.New(uint64(i)).DeriveN("fut", k)
					var oa, oc engine.Output
					a, oa = b.Update(a, in, ra)
					c, oc = b.Update(c, in, rc)
					ea, err := wc.EncodeOutput(oa)
					if err != nil {
						t.Fatalf("state %d step %d: encode output: %v", i, k, err)
					}
					ec, err := wc.EncodeOutput(oc)
					if err != nil {
						t.Fatalf("state %d step %d: encode output: %v", i, k, err)
					}
					if !bytes.Equal(ea, ec) {
						t.Fatalf("state %d step %d: futures diverged:\n %s\n %s", i, k, ea, ec)
					}
					// Outputs must survive the return trip from a worker
					// process byte-for-byte.
					od, err := wc.DecodeOutput(ea)
					if err != nil {
						t.Fatalf("state %d step %d: decode output: %v", i, k, err)
					}
					eo, err := wc.EncodeOutput(od)
					if err != nil {
						t.Fatalf("state %d step %d: re-encode output: %v", i, k, err)
					}
					if !bytes.Equal(ea, eo) {
						t.Fatalf("state %d step %d: output round-trip differs:\n %s\n %s", i, k, ea, eo)
					}
				}
				if !b.Match(a, c) {
					t.Fatalf("state %d: states diverged after identical updates", i)
				}
			}
		})
	}
}

// TestCheckpointWireInputRoundTrip pins the input/output codec half of the
// wire contract: encode→decode→encode must be byte-stable for inputs, so
// a resumed session re-derives the exact chunk bytes a remote worker saw.
func TestCheckpointWireInputRoundTrip(t *testing.T) {
	for _, name := range bench.WireNames() {
		name := name
		t.Run(name, func(t *testing.T) {
			b := bench.MustNew(name)
			wc, err := bench.WireFor(name)
			if err != nil {
				t.Fatal(err)
			}
			ins := b.Inputs(rng.New(13))
			if len(ins) > 64 {
				ins = ins[:64]
			}
			for i, in := range ins {
				raw, err := wc.EncodeInput(in)
				if err != nil {
					t.Fatalf("input %d: encode: %v", i, err)
				}
				dec, err := wc.DecodeInput(raw)
				if err != nil {
					t.Fatalf("input %d: decode: %v", i, err)
				}
				raw2, err := wc.EncodeInput(dec)
				if err != nil {
					t.Fatalf("input %d: re-encode: %v", i, err)
				}
				if !bytes.Equal(raw, raw2) {
					t.Fatalf("input %d: re-encoded bytes differ:\n %s\n %s", i, raw, raw2)
				}
			}
		})
	}
}
