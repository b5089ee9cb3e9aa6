package all

import (
	"bytes"
	"context"
	"encoding/json"
	"reflect"
	"slices"
	"strings"
	"testing"

	"gostats/internal/bench"
	"gostats/internal/bench/trackutil"
	"gostats/internal/checkpoint"
	"gostats/internal/engine"
	"gostats/internal/rng"
)

// The codecs write and read their NDJSON by hand (bench.Enc, bench.Cursor)
// and promise encoding/json's bytes and encoding/json's values. The tests
// here hold them to it against encoding/json itself.

// refDecode is the decoder the codecs had before they had scanners:
// json.Unmarshal into a fresh value of sample's type.
func refDecode(sample any, line []byte) (any, error) {
	p := reflect.New(reflect.TypeOf(sample))
	if err := json.Unmarshal(line, p.Interface()); err != nil {
		return nil, err
	}
	return p.Elem().Interface(), nil
}

// stateMirrors has, per benchmark, a struct with the JSON shape of its
// state line. The state types themselves are unexported, so the oracle
// for an EncodeState line is the fixed point through its mirror:
// json.Marshal(json.Unmarshal(line)) must give the line back, which it
// does only if every key, every number format and every separator is
// what encoding/json writes. It also pins the wire format: a codec whose
// state line changes shape fails here.
var stateMirrors = map[string]func() any{
	"bodytrack":         func() any { return new(trackutil.WireCloud) },
	"facetrack":         func() any { return new(trackutil.WireCloud) },
	"facedet-and-track": func() any { return new(trackutil.WireCloud) },
	"swaptions": func() any {
		return new(struct {
			Sum float64 `json:"sum"`
			N   float64 `json:"n"`
			Sw  int     `json:"sw"`
		})
	},
	"streamcluster": func() any {
		return new(struct {
			Centers [3][4]float64 `json:"centers"`
			N       float64       `json:"n"`
			Lag     float64       `json:"lag"`
		})
	},
	"streamclassifier": func() any {
		return new(struct {
			W       [12]float64 `json:"w"`
			N       float64     `json:"n"`
			ErrRate float64     `json:"err_rate"`
			Protos  float64     `json:"protos"`
		})
	},
	"fluidanimate": func() any {
		return new(struct {
			VX []float64 `json:"vx"`
			VY []float64 `json:"vy"`
		})
	},
	"dedupstream": func() any {
		return new(struct {
			FPs  []uint64 `json:"fps"`
			Gens []uint32 `json:"gens"`
			Gen  uint32   `json:"gen"`
			EMA  float64  `json:"ema"`
		})
	},
}

// viaMirror re-marshals a state line through the benchmark's mirror.
func viaMirror(t testing.TB, name string, line []byte) []byte {
	t.Helper()
	m := stateMirrors[name]()
	dec := json.NewDecoder(bytes.NewReader(line))
	dec.DisallowUnknownFields()
	if err := dec.Decode(m); err != nil {
		t.Fatalf("%s: state line does not fit its mirror: %v\n%s", name, err, line)
	}
	out, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// sameState compares two decoded states field by field. A cloud's ID is
// minted per decode and is not part of the value.
func sameState(a, b engine.State) bool {
	if ca, ok := a.(*trackutil.Cloud); ok {
		cb, ok := b.(*trackutil.Cloud)
		if !ok {
			return false
		}
		x, y := *ca, *cb
		x.ID, y.ID = 0, 0
		return reflect.DeepEqual(&x, &y)
	}
	return reflect.DeepEqual(a, b)
}

// diffInput checks one input against encoding/json both ways.
func diffInput(t *testing.T, c bench.StreamCodec, in engine.Input) {
	t.Helper()
	line, err := c.EncodeInput(in)
	if err != nil {
		t.Fatalf("EncodeInput: %v", err)
	}
	if want, _ := json.Marshal(in); !bytes.Equal(line, want) {
		t.Fatalf("EncodeInput differs from json.Marshal:\n got %s\nwant %s", line, want)
	}
	got, err := c.DecodeInput(line)
	if err != nil {
		t.Fatalf("DecodeInput: %v", err)
	}
	if want, _ := refDecode(in, line); !reflect.DeepEqual(got, want) {
		t.Fatalf("DecodeInput differs from json.Unmarshal:\n got %#v\nwant %#v", got, want)
	}
}

// TestCodecsMatchEncodingJSON runs a Workers:1 session of every benchmark
// with a checkpoint at every commit, and checks every input, every
// committed output, every lineage state and replica seed and every framed
// snapshot at every commit: what the encoder wrote is what json.Marshal
// writes, and what the decoder read is what json.Unmarshal reads.
func TestCodecsMatchEncodingJSON(t *testing.T) {
	for _, name := range bench.CodecNames() {
		t.Run(name, func(t *testing.T) {
			b := bench.MustNew(name)
			wc, err := bench.WireFor(name)
			if err != nil {
				t.Fatal(err)
			}
			ins := b.Inputs(rng.New(7))
			for _, in := range ins {
				diffInput(t, wc, in)
			}

			// A session long enough for aborts and re-executions to show up
			// in the lineage; the big states (a megabyte of digits per
			// snapshot for bodytrack) get a few commits' worth.
			if b.StateBytes() > 4096 {
				ins = ins[:min(len(ins), 32)]
			} else {
				ins = ins[:min(len(ins), 512)]
			}
			var states []json.RawMessage
			cfg := engine.StreamConfig{Seed: 3, ChunkSize: 8, Lookback: 3, ExtraStates: 1, Workers: 1}
			cfg.Checkpoint = engine.CheckpointConfig{Codec: wc, EveryCommits: 1, OnSnapshot: func(s *checkpoint.Snapshot) {
				states = append(states, s.Lineage...)
				if s.ReplicaSeed != nil {
					states = append(states, s.ReplicaSeed)
				}
				// The snapshot embeds the encodings as they are, so its
				// payload — between the envelope's 12-byte header and 4-byte
				// CRC — is json.Marshal's only if they are in its form.
				// It runs on the frontier's worker, so it reports with Errorf.
				raw, err := checkpoint.Encode(s)
				if err != nil {
					t.Errorf("checkpoint.Encode: %v", err)
				} else if want, _ := json.Marshal(s); !bytes.Equal(raw[12:len(raw)-4], want) {
					t.Errorf("snapshot payload differs from json.Marshal:\n got %.200s\nwant %.200s", raw[12:len(raw)-4], want)
				}
			}}
			p, err := engine.NewStream(context.Background(), b, cfg)
			if err != nil {
				t.Fatal(err)
			}
			go func() {
				defer p.Close()
				for _, in := range ins {
					if p.Push(context.Background(), in) != nil {
						return
					}
				}
			}()
			n := 0
			for o := range p.Outputs() {
				n++
				line, err := wc.EncodeOutput(o)
				if err != nil {
					t.Fatalf("EncodeOutput: %v", err)
				}
				if want, _ := json.Marshal(o); !bytes.Equal(line, want) {
					t.Fatalf("EncodeOutput differs from json.Marshal:\n got %s\nwant %s", line, want)
				}
				got, err := wc.DecodeOutput(line)
				if err != nil {
					t.Fatalf("DecodeOutput: %v", err)
				}
				if want, _ := refDecode(o, line); !reflect.DeepEqual(got, want) {
					t.Fatalf("DecodeOutput differs from json.Unmarshal:\n got %#v\nwant %#v", got, want)
				}
			}
			if _, err := p.Wait(); err != nil {
				t.Fatal(err)
			}
			if err := p.CheckpointErr(); err != nil {
				t.Fatal(err)
			}
			if n != len(ins) || len(states) == 0 {
				t.Fatalf("session gave %d outputs for %d inputs and %d lineage states", n, len(ins), len(states))
			}

			for i, line := range states {
				if again := viaMirror(t, name, line); !bytes.Equal(line, again) {
					t.Fatalf("state %d: EncodeState differs from json.Marshal:\n got %.200s\nwant %.200s", i, line, again)
				}
				fast, err := wc.DecodeState(line)
				if err != nil {
					t.Fatalf("state %d: DecodeState: %v", i, err)
				}
				// A leading space is JSON's smallest departure from the
				// form the scanner takes, so this decode is json.Unmarshal's.
				slow, err := wc.DecodeState(append([]byte(" "), line...))
				if err != nil {
					t.Fatalf("state %d: DecodeState through encoding/json: %v", i, err)
				}
				if !sameState(fast, slow) {
					t.Fatalf("state %d: DecodeState differs from json.Unmarshal", i)
				}
				if again, _ := wc.EncodeState(fast); !bytes.Equal(line, again) {
					t.Fatalf("state %d: decoded state re-encodes differently", i)
				}
			}
		})
	}
}

// TestCodecsDecodeNonCanonicalInputs sends each codec JSON that says the
// same thing as its own encoding in another way — the forms a client's
// serializer may produce, and the scanner does not take — and checks the
// value is json.Unmarshal's.
func TestCodecsDecodeNonCanonicalInputs(t *testing.T) {
	for _, name := range bench.CodecNames() {
		t.Run(name, func(t *testing.T) {
			b := bench.MustNew(name)
			c, err := bench.CodecFor(name)
			if err != nil {
				t.Fatal(err)
			}
			in := b.Inputs(rng.New(7))[3]
			line, err := c.EncodeInput(in)
			if err != nil {
				t.Fatal(err)
			}
			keys, vals := jsonFields(t, line)
			object := func(keys []string, vals []json.RawMessage) []byte {
				var b bytes.Buffer
				b.WriteByte('{')
				for i := range keys {
					if i > 0 {
						b.WriteByte(',')
					}
					b.WriteString(`"` + keys[i] + `":`)
					b.Write(vals[i])
				}
				b.WriteByte('}')
				return b.Bytes()
			}
			if !bytes.Equal(object(keys, vals), line) {
				t.Fatalf("test bug: rebuilt %s from %s", object(keys, vals), line)
			}
			reverse := func(keys []string, vals []json.RawMessage) ([]string, []json.RawMessage) {
				k, v := slices.Clone(keys), slices.Clone(vals)
				slices.Reverse(k)
				slices.Reverse(v)
				return k, v
			}
			otherCase := slices.Clone(keys)
			if otherCase[0] = strings.ToLower(keys[0]); otherCase[0] == keys[0] {
				otherCase[0] = strings.ToUpper(keys[0])
			}
			nulled := slices.Clone(vals)
			nulled[0] = json.RawMessage("null")

			variants := map[string][]byte{
				"leading whitespace":  append([]byte(" \t"), line...),
				"trailing whitespace": append(slices.Clone(line), ' '),
				"inner whitespace":    bytes.Replace(line, []byte(":"), []byte(": "), 1),
				"reordered keys":      object(reverse(keys, vals)),
				"other-case key":      object(otherCase, vals),
				"extra field":         object(append([]string{"zz"}, keys...), append([]json.RawMessage{json.RawMessage(`[1,{"a":"}"}]`)}, vals...)),
				"null field":          object(keys, nulled),
				"null":                []byte("null"),
				"empty object":        []byte("{}"),
			}
			for what, v := range variants {
				want, err := refDecode(in, v)
				if err != nil {
					t.Fatalf("%s: the variant is not valid JSON for this type: %v\n%s", what, err, v)
				}
				got, err := c.DecodeInput(v)
				if err != nil {
					t.Errorf("%s: DecodeInput rejected what json.Unmarshal accepts: %v\n%.200s", what, err, v)
					continue
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%s: DecodeInput differs from json.Unmarshal:\n got %#v\nwant %#v", what, got, want)
				}
			}
		})
	}
}

// jsonFields splits the object in line into its keys and raw values, in
// the order they appear.
func jsonFields(t *testing.T, line []byte) (keys []string, vals []json.RawMessage) {
	t.Helper()
	dec := json.NewDecoder(bytes.NewReader(line))
	if _, err := dec.Token(); err != nil {
		t.Fatal(err)
	}
	for dec.More() {
		k, err := dec.Token()
		if err != nil {
			t.Fatal(err)
		}
		var v json.RawMessage
		if err := dec.Decode(&v); err != nil {
			t.Fatal(err)
		}
		keys, vals = append(keys, k.(string)), append(vals, v)
	}
	return keys, vals
}
