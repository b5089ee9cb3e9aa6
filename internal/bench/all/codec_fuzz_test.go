package all

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"gostats/internal/bench"
	"gostats/internal/engine"
	"gostats/internal/rng"
)

// FuzzStreamCodecs drives every registered NDJSON stream codec with
// arbitrary request lines, differentially against encoding/json, which
// the codecs' hand-written scanners and encoders stand in for. A line
// json.Unmarshal rejects, DecodeInput rejects; a line it accepts,
// DecodeInput accepts with the same value; and EncodeInput of that value
// is json.Marshal's bytes. Accepted values also re-encode and re-decode
// to a fixed point, which is what makes a served session reproducible
// from its request log even when clients send semantically odd but
// syntactically valid lines.
func FuzzStreamCodecs(f *testing.F) {
	names := bench.CodecNames()
	samples := make([]engine.Input, len(names))
	// Seed with genuine encoded inputs from each streamable benchmark,
	// plus structural edge cases.
	for idx, name := range names {
		b := bench.MustNew(name)
		c, err := bench.CodecFor(name)
		if err != nil {
			f.Fatal(err)
		}
		ins := b.Inputs(rng.New(7))
		samples[idx] = ins[0]
		for k := 0; k < 3 && k < len(ins); k++ {
			line, err := c.EncodeInput(ins[k*len(ins)/3])
			if err != nil {
				f.Fatal(err)
			}
			f.Add(uint8(idx), line)
		}
	}
	for idx := range names {
		f.Add(uint8(idx), []byte(`{}`))
		f.Add(uint8(idx), []byte(`null`))
		f.Add(uint8(idx), []byte(`{"Points":null,"Obs":[],"X":[[]],"Y":null}`))
		f.Add(uint8(idx), []byte(`{"Quality":1e308,"Index":-1}`))
		f.Add(uint8(idx), []byte(``))
		// Number forms strconv takes and JSON does not, and the reverse.
		f.Add(uint8(idx), []byte(`{"Index":01,"Obs":[1.,.5,+1,0x1p-2,1_0,Inf],"True":[-0,1E+2,1e999],"Quality":-0.0e-0,"Occluded":false}`))
		f.Add(uint8(idx), []byte(`{"Swaption":-0,"Index":9223372036854775808,"Seed":18446744073709551616}`))
		f.Add(uint8(idx), []byte("{\"data\":\"QUJD\\nRA==\"}"))
		f.Add(uint8(idx), []byte("{\"data\":\"QUJD\nRA==\"}"))
		f.Add(uint8(idx), []byte(`{"data":"QUJDRA"}`))
	}

	f.Fuzz(func(t *testing.T, which uint8, line []byte) {
		idx := int(which) % len(names)
		name := names[idx]
		codec, err := bench.CodecFor(name)
		if err != nil {
			t.Fatal(err)
		}
		want, refErr := refDecode(samples[idx], line)
		in, err := codec.DecodeInput(line)
		if (err == nil) != (refErr == nil) {
			t.Fatalf("%s: DecodeInput error %v, json.Unmarshal error %v\n%q", name, err, refErr, line)
		}
		if err != nil {
			return // rejecting malformed input is fine
		}
		if !reflect.DeepEqual(in, want) {
			t.Fatalf("%s: DecodeInput differs from json.Unmarshal on %q:\n got %#v\nwant %#v", name, line, in, want)
		}
		enc1, err := codec.EncodeInput(in)
		if err != nil {
			t.Fatalf("%s: EncodeInput failed on decoded input: %v", name, err)
		}
		if ref, _ := json.Marshal(in); !bytes.Equal(enc1, ref) {
			t.Fatalf("%s: EncodeInput differs from json.Marshal:\n got %s\nwant %s", name, enc1, ref)
		}
		in2, err := codec.DecodeInput(enc1)
		if err != nil {
			t.Fatalf("%s: codec rejected its own encoding %q: %v", name, enc1, err)
		}
		enc2, err := codec.EncodeInput(in2)
		if err != nil {
			t.Fatalf("%s: re-encode failed: %v", name, err)
		}
		if !bytes.Equal(enc1, enc2) {
			t.Fatalf("%s: unstable round-trip:\n first: %s\nsecond: %s", name, enc1, enc2)
		}
	})
}

// FuzzWireCodecs drives the other two decoders of every wire codec —
// DecodeState, whose bytes come from a client's #resume line or a worker
// process's reply, and DecodeOutput — with arbitrary lines. Neither may
// panic. A state that is accepted must be one the program can run on:
// it fingerprints, takes one Update on a real input, and encodes to a
// line that decodes and encodes back to itself. An accepted output
// agrees with json.Unmarshal and re-encodes as json.Marshal would.
func FuzzWireCodecs(f *testing.F) {
	names := bench.WireNames()
	type fixture struct {
		b   bench.Benchmark
		wc  bench.WireCodec
		in  engine.Input
		out engine.Output
	}
	fix := make([]fixture, len(names))
	for idx, name := range names {
		b := bench.MustNew(name)
		wc, err := bench.WireFor(name)
		if err != nil {
			f.Fatal(err)
		}
		in := b.Inputs(rng.New(7))[0]
		st, out := b.Update(b.Initial(rng.New(1)), in, rng.New(2))
		fix[idx] = fixture{b, wc, in, out}
		stLine, err := wc.EncodeState(st)
		if err != nil {
			f.Fatal(err)
		}
		outLine, err := wc.EncodeOutput(out)
		if err != nil {
			f.Fatal(err)
		}
		// bodytrack's state is a megabyte of digits; the fuzzer
		// mutates small seeds far better, and the two small trackers
		// share its codec.
		if len(stLine) < 64<<10 {
			f.Add(uint8(idx), true, stLine)
		}
		f.Add(uint8(idx), false, outLine)
	}
	for idx := range names {
		for _, state := range []bool{true, false} {
			f.Add(uint8(idx), state, []byte(`{}`))
			f.Add(uint8(idx), state, []byte(`null`))
			f.Add(uint8(idx), state, []byte(``))
		}
		f.Add(uint8(idx), true, []byte(`{"p":[],"w":[],"n":5,"dims":3,"age":0}`))
		f.Add(uint8(idx), true, []byte(`{"p":[1,2],"w":[1],"n":1,"dims":2,"age":0,"cold":true}`))
		f.Add(uint8(idx), true, []byte(`{"p":[0,0,0,0],"w":[1,1,1,1],"n":4,"dims":4611686018427387905,"age":0}`))
		f.Add(uint8(idx), true, []byte(`{"fps":[1,2,1],"gens":[4294967295,0,7],"gen":3,"ema":0.5}`))
		f.Add(uint8(idx), true, []byte(`{"fps":[1],"gens":[],"gen":0,"ema":0}`))
		f.Add(uint8(idx), true, []byte(`{"vx":[0],"vy":[0]}`))
		f.Add(uint8(idx), false, []byte(`{"Frame":1,"Est":null,"Err":1e-7,"Detected":true}`))
	}

	f.Fuzz(func(t *testing.T, which uint8, state bool, line []byte) {
		fx := fix[int(which)%len(names)]
		name := fx.b.Name()
		if !state {
			want, refErr := refDecode(fx.out, line)
			out, err := fx.wc.DecodeOutput(line)
			if (err == nil) != (refErr == nil) {
				t.Fatalf("%s: DecodeOutput error %v, json.Unmarshal error %v\n%q", name, err, refErr, line)
			}
			if err != nil {
				return
			}
			if !reflect.DeepEqual(out, want) {
				t.Fatalf("%s: DecodeOutput differs from json.Unmarshal on %q:\n got %#v\nwant %#v", name, line, out, want)
			}
			enc, err := fx.wc.EncodeOutput(out)
			if err != nil {
				t.Fatalf("%s: EncodeOutput failed on decoded output: %v", name, err)
			}
			if ref, _ := json.Marshal(out); !bytes.Equal(enc, ref) {
				t.Fatalf("%s: EncodeOutput differs from json.Marshal:\n got %s\nwant %s", name, enc, ref)
			}
			return
		}

		st, err := fx.wc.DecodeState(line)
		if err != nil {
			return
		}
		engine.Program(fx.b).(engine.Fingerprinter).Fingerprint(st)
		st, _ = fx.b.Update(st, fx.in, rng.New(5))
		enc1, err := fx.wc.EncodeState(st)
		if err != nil {
			// A decoded state holds finite numbers only, but one Update
			// may overflow them; json.Marshal would refuse those too.
			return
		}
		if again := viaMirror(t, name, enc1); !bytes.Equal(enc1, again) {
			t.Fatalf("%s: EncodeState differs from json.Marshal:\n got %.300s\nwant %.300s", name, enc1, again)
		}
		st2, err := fx.wc.DecodeState(enc1)
		if err != nil {
			t.Fatalf("%s: codec rejected its own state %.300q: %v", name, enc1, err)
		}
		enc2, err := fx.wc.EncodeState(st2)
		if err != nil {
			t.Fatalf("%s: re-encode failed: %v", name, err)
		}
		if !bytes.Equal(enc1, enc2) {
			t.Fatalf("%s: unstable state round-trip:\n first: %.300s\nsecond: %.300s", name, enc1, enc2)
		}
	})
}
