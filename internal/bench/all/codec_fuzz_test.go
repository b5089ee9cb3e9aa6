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
//
// The reusing halves a served session runs (bench.ReusingCodec) are held
// to the allocating ones. A line decoded into a spare — an input of
// another shape whose storage the decoder may overwrite: the sample
// input, with its slices grown to twice their length or cut to one
// element — decodes as it does fresh, by reflect.DeepEqual and by its
// re-encoded bytes, whatever the spare held. And AppendOutput onto a
// non-empty buffer, with room or without, keeps the buffer's bytes and
// appends exactly EncodeOutput's: for the sample output, and for the line
// itself when it decodes as an output.
func FuzzStreamCodecs(f *testing.F) {
	names := bench.CodecNames()
	samples := make([]engine.Input, len(names))
	outs := make([]engine.Output, len(names))
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
		_, outs[idx] = b.Update(b.Initial(rng.New(1)), ins[0], rng.New(2))
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
		rc := bench.Reusing(codec)
		for _, out := range appendables(t, name, outs[idx], line) {
			checkAppendOutput(t, name, rc, codec, out, line)
		}
		want, refErr := refDecode(samples[idx], line)
		in, err := codec.DecodeInput(line)
		if (err == nil) != (refErr == nil) {
			t.Fatalf("%s: DecodeInput error %v, json.Unmarshal error %v\n%q", name, err, refErr, line)
		}
		for _, n := range []func(int) int{func(n int) int { return 2 * n }, func(int) int { return 1 }} {
			spare := reshaped(samples[idx], n)
			got, spareErr := rc.DecodeInputInto(line, spare)
			if (spareErr == nil) != (err == nil) {
				t.Fatalf("%s: DecodeInputInto error %v, DecodeInput error %v\n%q", name, spareErr, err, line)
			}
			if err != nil {
				continue
			}
			if !reflect.DeepEqual(got, in) {
				t.Fatalf("%s: decoded into a spare, %q differs from its fresh decoding:\n got %#v\nwant %#v", name, line, got, in)
			}
			a, errA := codec.EncodeInput(got)
			b, errB := codec.EncodeInput(in)
			if errA != nil || errB != nil || !bytes.Equal(a, b) {
				t.Fatalf("%s: decoded into a spare, %q re-encodes as %s (%v), fresh as %s (%v)", name, line, a, errA, b, errB)
			}
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

// reshaped returns a copy of in, on storage of its own, whose slice
// fields hold n(len) elements: the old ones over again, so every element
// a decoder fails to overwrite is a stale non-zero one.
func reshaped(in engine.Input, n func(int) int) engine.Input {
	v := reflect.New(reflect.TypeOf(in)).Elem()
	v.Set(reflect.ValueOf(in))
	for i := 0; i < v.NumField(); i++ {
		fv := v.Field(i)
		if fv.Kind() != reflect.Slice || fv.Len() == 0 {
			continue
		}
		k := n(fv.Len())
		s := reflect.MakeSlice(fv.Type(), k, k)
		for j := 0; j < k; j++ {
			s.Index(j).Set(fv.Index(j % fv.Len()))
		}
		fv.Set(s)
	}
	return v.Interface()
}

// appendables is the outputs a fuzzed line's AppendOutput checks run on:
// the sample output, and the line decoded as an output when it is one.
func appendables(t *testing.T, name string, sample engine.Output, line []byte) []engine.Output {
	t.Helper()
	wc, err := bench.WireFor(name)
	if err != nil {
		t.Fatal(err)
	}
	if out, err := wc.DecodeOutput(line); err == nil {
		return []engine.Output{sample, out}
	}
	return []engine.Output{sample}
}

// checkAppendOutput appends out to a buffer holding line and a marker,
// once with room to spare and once with none.
func checkAppendOutput(t *testing.T, name string, rc bench.ReusingCodec, codec bench.StreamCodec, out engine.Output, line []byte) {
	t.Helper()
	want, err := codec.EncodeOutput(out)
	prefix := append([]byte("#"), line...)
	for _, room := range []int{0, len(want) + 64} {
		dst := append(make([]byte, 0, len(prefix)+room), prefix...)
		got, appendErr := rc.AppendOutput(dst, out)
		if (appendErr == nil) != (err == nil) {
			t.Fatalf("%s: AppendOutput error %v, EncodeOutput error %v", name, appendErr, err)
		}
		if err != nil {
			continue
		}
		if !bytes.Equal(got[:min(len(got), len(prefix))], prefix) || !bytes.Equal(got[min(len(got), len(prefix)):], want) {
			t.Fatalf("%s: AppendOutput onto %q (room %d) wrote %q, want the prefix and %s", name, prefix, room, got, want)
		}
	}
}

// FuzzWireCodecs drives the other two decoders of every wire codec —
// DecodeState, whose bytes come from a client's #resume line or a worker
// process's reply, and DecodeOutput — with arbitrary lines. Neither may
// panic. A state that is accepted must be one the program can run on:
// it takes one Update on a real input, and encodes to a
// line that decodes and encodes back to itself. An accepted output
// agrees with json.Unmarshal and re-encodes as json.Marshal would.
func FuzzWireCodecs(f *testing.F) {
	names := bench.CodecNames()
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
