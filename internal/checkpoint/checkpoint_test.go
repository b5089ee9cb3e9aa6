package checkpoint

import (
	"bytes"
	"encoding/base64"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"reflect"
	"strings"
	"testing"

	"gostats/internal/autotune"
)

func sampleSnapshot() *Snapshot {
	return &Snapshot{
		Benchmark:   "swaptions",
		Seed:        42,
		ChunkSize:   8,
		Lookback:    3,
		ExtraStates: 1,
		Workers:     3,
		Adapt:       true,
		NextChunk:   5,
		Inputs:      40,
		PrevWindow:  raws(`{"i":37}`, `{"i":38}`, `{"i":39}`),
		Lineage:     raws(`{"sum":1.5}`, `{"sum":1.25}`),
		Pending:     []bool{true, true, false},
		Controller: &autotune.OnlineState{
			Size: 8, EpochN: 3, Aborts: 1, Outcomes: 35, Resizes: 2,
			History: []autotune.SizeChange{{Outcome: 0, Size: 8}, {Outcome: 16, Size: 12}, {Outcome: 24, Size: 8}},
		},
	}
}

// raws builds a list of codec encodings.
func raws(docs ...string) []json.RawMessage {
	v := make([]json.RawMessage, len(docs))
	for i, d := range docs {
		v[i] = json.RawMessage(d)
	}
	return v
}

func TestCheckpointRoundTrip(t *testing.T) {
	want := sampleSnapshot()
	raw, err := Encode(want)
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	got, err := Decode(raw)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if got.Benchmark != want.Benchmark || got.Seed != want.Seed || got.NextChunk != want.NextChunk || got.Inputs != want.Inputs {
		t.Fatalf("round trip mismatch: got %+v want %+v", got, want)
	}
	if len(got.Lineage) != 2 || !bytes.Equal(got.Lineage[0], want.Lineage[0]) {
		t.Fatalf("lineage mismatch: %q", got.Lineage)
	}
	if len(got.PrevWindow) != 3 || !bytes.Equal(got.PrevWindow[2], want.PrevWindow[2]) {
		t.Fatalf("window mismatch: %q", got.PrevWindow)
	}
	if got.Controller == nil || got.Controller.Size != 8 || len(got.Controller.History) != 3 {
		t.Fatalf("controller mismatch: %+v", got.Controller)
	}
	if len(got.Pending) != 3 || got.Pending[2] {
		t.Fatalf("pending mismatch: %v", got.Pending)
	}
	// Encoding is deterministic: same snapshot, same bytes.
	raw2, err := Encode(got)
	if err != nil {
		t.Fatalf("re-encode: %v", err)
	}
	if !bytes.Equal(raw, raw2) {
		t.Fatalf("encode not deterministic")
	}

	// An adaptive snapshot written before the controller lost its
	// grow/shrink split carries "grows" and "shrinks": they decode as
	// unknown fields, and the controller validates and restores.
	payload := raw[header : len(raw)-4]
	parent := bytes.Replace(payload, []byte(`"resizes":2,`), []byte(`"resizes":2,"grows":1,"shrinks":1,`), 1)
	if bytes.Equal(parent, payload) {
		t.Fatal("the sample controller has no resizes field to extend")
	}
	old, err := Decode(envelope(parent))
	if err != nil {
		t.Fatalf("Decode of a controller with grows/shrinks: %v", err)
	}
	if !reflect.DeepEqual(old.Controller, want.Controller) {
		t.Fatalf("controller with grows/shrinks: got %+v want %+v", old.Controller, want.Controller)
	}
	ctl, err := autotune.RestoreOnline(old.ChunkSize, old.Controller)
	if err != nil {
		t.Fatalf("RestoreOnline of a controller with grows/shrinks: %v", err)
	}
	if ctl.Resizes() != 2 || ctl.ChunkSize() != 8 {
		t.Fatalf("restored controller: %d resizes, size %d", ctl.Resizes(), ctl.ChunkSize())
	}
}

func TestCheckpointStringRoundTrip(t *testing.T) {
	want := sampleSnapshot()
	s, err := EncodeString(want)
	if err != nil {
		t.Fatalf("EncodeString: %v", err)
	}
	if strings.ContainsAny(s, "\n ") {
		t.Fatalf("base64 envelope must be one token, got %q", s)
	}
	got, err := DecodeString(s)
	if err != nil {
		t.Fatalf("DecodeString: %v", err)
	}
	if got.Benchmark != want.Benchmark || got.Inputs != want.Inputs {
		t.Fatalf("string round trip mismatch: %+v", got)
	}
	if _, err := DecodeString("not!!base64"); err == nil {
		t.Fatalf("DecodeString accepted invalid base64")
	}
}

// TestCheckpointCRCGuard flips every byte of the guarded region in turn
// and demands every corruption is rejected.
func TestCheckpointCRCGuard(t *testing.T) {
	raw, err := Encode(sampleSnapshot())
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	for i := 4; i < len(raw); i++ {
		mut := append([]byte(nil), raw...)
		mut[i] ^= 0x40
		if _, err := Decode(mut); err == nil {
			t.Fatalf("Decode accepted envelope with byte %d corrupted", i)
		}
	}
}

func TestCheckpointRejectsBadEnvelopes(t *testing.T) {
	raw, err := Encode(sampleSnapshot())
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	cases := map[string][]byte{
		"empty":       nil,
		"short":       raw[:8],
		"truncated":   raw[:len(raw)-5],
		"extra bytes": append(append([]byte(nil), raw...), 0),
		"bad magic":   append([]byte("NOPE"), raw[4:]...),
	}
	for name, data := range cases {
		if _, err := Decode(data); err == nil {
			t.Errorf("Decode accepted %s envelope", name)
		}
	}
}

func TestCheckpointVersionGate(t *testing.T) {
	raw, err := Encode(sampleSnapshot())
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	// Stamp older versions and the next one with a valid CRC: the decoder
	// must reject on version, not CRC. A version 4 envelope — its session
	// shape carrying the adaptive bounds, its payload otherwise alike — is
	// not read, nor is a version 3 one, which also carried an inner gang
	// width.
	payload := raw[header : len(raw)-4]
	v4 := bytes.Replace(payload, []byte(`"adapt":true,`), []byte(`"adapt":true,"min_chunk":2,"max_chunk":32,`), 1)
	if bytes.Equal(v4, payload) {
		t.Fatal("the sample snapshot has no adapt field to extend")
	}
	v3 := bytes.Replace(v4, []byte(`"workers":`), []byte(`"inner_width":1,"workers":`), 1)
	for _, c := range []struct {
		v       uint32
		payload []byte
	}{{Version - 2, v3}, {Version - 1, v4}, {Version + 1, payload}} {
		mut := envelope(c.payload)
		binary.LittleEndian.PutUint32(mut[4:], c.v)
		restamp(mut)
		if _, err := Decode(mut); err == nil || !strings.Contains(err.Error(), fmt.Sprintf("version %d", c.v)) {
			t.Fatalf("version %d: want an error naming the version, got %v", c.v, err)
		}
	}
	// The same keys stray in a current payload are unknown fields: they
	// decode ignored, to the snapshot without them.
	for _, stray := range [][]byte{v4, v3} {
		got, err := Decode(envelope(stray))
		if err != nil {
			t.Fatalf("Decode of a current payload with stray shape keys: %v", err)
		}
		if !sameSnapshot(got, sampleSnapshot()) {
			t.Fatalf("stray shape keys changed the snapshot: got %+v", got)
		}
	}
}

func TestCheckpointValidate(t *testing.T) {
	bad := []*Snapshot{
		{Benchmark: "", NextChunk: 1, Lineage: raws("1")},
		{Benchmark: "x", NextChunk: -1},
		{Benchmark: "x", NextChunk: 0, Lineage: raws("1")},
		{Benchmark: "x", NextChunk: 3},
		{Benchmark: "x", Workers: 1, Pending: make([]bool, Window(1)+1)},
		{Benchmark: "x", ExtraStates: -1},
		// The lineage's shape: final plus ExtraStates replicas, or final
		// and the seed they are built from.
		{Benchmark: "x", NextChunk: 3, ExtraStates: 1, Lineage: raws("1")},
		{Benchmark: "x", NextChunk: 3, ExtraStates: 1, Lineage: raws("1", "2", "3")},
		{Benchmark: "x", NextChunk: 3, ExtraStates: 0, Lineage: raws("1", "2")},
		{Benchmark: "x", NextChunk: 3, ExtraStates: 1, Lineage: raws("1", "2"), ReplicaSeed: json.RawMessage("4")},
		{Benchmark: "x", NextChunk: 3, ExtraStates: 0, Lineage: raws("1"), ReplicaSeed: json.RawMessage("4")},
		{Benchmark: "x", NextChunk: 0, ExtraStates: 1, ReplicaSeed: json.RawMessage("4")},
		{Benchmark: "x", NextChunk: 3, ExtraStates: 1, Lineage: raws("1", "2"), Reorig: true},
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("case %d: Validate accepted %+v", i, s)
		}
	}
	for i, s := range []*Snapshot{
		{Benchmark: "x", Workers: 2, NextChunk: 0},
		{Benchmark: "x", NextChunk: 3, ExtraStates: 0, Lineage: raws("1")},
		{Benchmark: "x", NextChunk: 3, ExtraStates: 2, Lineage: raws("1", "2", "3")},
		{Benchmark: "x", NextChunk: 3, ExtraStates: 2, Lineage: raws("1"), ReplicaSeed: json.RawMessage("4")},
		{Benchmark: "x", NextChunk: 3, ExtraStates: 1, Lineage: raws("1"), ReplicaSeed: json.RawMessage("4"), Reorig: true},
	} {
		if err := s.Validate(); err != nil {
			t.Errorf("case %d: Validate rejected %+v: %v", i, s, err)
		}
	}
}

// TestCheckpointEncodeMatchesMarshal: Encode writes the payload itself, and it
// must be the bytes json.Marshal writes — Decode is json.Unmarshal — for
// every field's zero, nil and omitempty case, negative numbers, a
// benchmark name JSON escapes, and codec encodings of every JSON kind. An
// empty encoding has no JSON form: both refuse it.
func TestCheckpointEncodeMatchesMarshal(t *testing.T) {
	seeded := sampleSnapshot()
	seeded.Lineage, seeded.ReplicaSeed, seeded.Reorig = seeded.Lineage[:1], json.RawMessage(`{"sum":1}`), true
	for i, s := range []*Snapshot{
		sampleSnapshot(),
		seeded,
		{},
		{Benchmark: "a\"<b>&\u2028\x01\xff", Seed: 1<<64 - 1, ChunkSize: -1, Lookback: -2, Inputs: -1 << 63},
		{Benchmark: "x", PrevWindow: []json.RawMessage{nil, json.RawMessage("null")},
			Lineage: raws(`[1,{"a":[]},"\u003c\\"]`, `-0.5e-7`, `true`), Pending: []bool{false}},
		{Benchmark: "x", PrevWindow: []json.RawMessage{}, Lineage: []json.RawMessage{}, ReplicaSeed: json.RawMessage{},
			Pending: []bool{}, Controller: &autotune.OnlineState{}},
	} {
		want, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		raw, err := Encode(s)
		if err != nil {
			t.Fatal(err)
		}
		if got := raw[header : len(raw)-4]; !bytes.Equal(got, want) {
			t.Errorf("case %d: payload\n got %s\nwant %s", i, got, want)
		}
		if len(raw) != cap(raw) {
			t.Errorf("case %d: envelope of %d bytes in a buffer of %d", i, len(raw), cap(raw))
		}
	}
	for i, s := range []*Snapshot{
		{Benchmark: "x", PrevWindow: []json.RawMessage{{}}},
		{Benchmark: "x", NextChunk: 1, Lineage: []json.RawMessage{json.RawMessage("1"), {}}},
	} {
		if _, err := json.Marshal(s); err == nil {
			t.Errorf("empty case %d: json.Marshal accepted an empty encoding", i)
		}
		if _, err := Encode(s); err == nil {
			t.Errorf("empty case %d: Encode accepted an empty encoding", i)
		}
	}
}

// TestCheckpointEncodeAllocs: framing a dedupstream-sized snapshot — a
// four-input window of 22 KB inputs, a 23 KB final state and an 18 KB
// seed — allocates the envelope and nothing else.
func TestCheckpointEncodeAllocs(t *testing.T) {
	doc := func(n int) json.RawMessage {
		return json.RawMessage("[" + strings.Repeat("1,", n/2) + "1]")
	}
	in := doc(22 << 10)
	s := &Snapshot{Benchmark: "dedupstream", Seed: 3, ChunkSize: 16, Lookback: 4, ExtraStates: 1,
		Workers: 2, NextChunk: 40, Inputs: 640,
		PrevWindow:  []json.RawMessage{in, in, in, in},
		Lineage:     []json.RawMessage{doc(23 << 10)},
		ReplicaSeed: doc(18 << 10),
		Pending:     []bool{true, false, true},
	}
	if n := testing.AllocsPerRun(20, func() {
		if _, err := Encode(s); err != nil {
			t.Fatal(err)
		}
	}); n != 1 {
		t.Errorf("Encode made %v allocations, want the envelope's one", n)
	}
}

// restamp recomputes a valid CRC over a mutated envelope, using the same
// polynomial as the encoder.
func restamp(raw []byte) {
	crc := crc32.Checksum(raw[4:len(raw)-4], castagnoli)
	binary.LittleEndian.PutUint32(raw[len(raw)-4:], crc)
}

// envelope frames payload the way Encode does, with a valid CRC, so a
// fuzzed payload reaches the JSON decoder instead of failing the CRC.
func envelope(payload []byte) []byte {
	buf := append([]byte(nil), magic[:]...)
	buf = binary.LittleEndian.AppendUint32(buf, Version)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(payload)))
	buf = append(buf, payload...)
	return binary.LittleEndian.AppendUint32(buf, crc32.Checksum(buf[len(magic):], castagnoli))
}

// sameSnapshot is reflect.DeepEqual up to what the payload cannot tell
// apart: an omitempty slice that is empty encodes as one that is nil.
func sameSnapshot(a, b *Snapshot) bool {
	norm := func(s Snapshot) Snapshot {
		if len(s.PrevWindow) == 0 {
			s.PrevWindow = nil
		}
		if len(s.Lineage) == 0 {
			s.Lineage = nil
		}
		if len(s.Pending) == 0 {
			s.Pending = nil
		}
		return s
	}
	return reflect.DeepEqual(norm(*a), norm(*b))
}

// canonical is what json.Marshal makes of a JSON document: compact, with
// <, > and & (and U+2028, U+2029) escaped.
func canonical(doc []byte) []byte {
	var c bytes.Buffer
	if err := json.Compact(&c, doc); err != nil {
		return nil
	}
	var h bytes.Buffer
	json.HTMLEscape(&h, c.Bytes())
	return h.Bytes()
}

// allCanonical reports whether every codec encoding s carries is in
// json.Marshal's form.
func allCanonical(s *Snapshot) bool {
	for _, list := range [][]json.RawMessage{s.PrevWindow, s.Lineage, {s.ReplicaSeed}} {
		for _, doc := range list {
			if doc != nil && !bytes.Equal(canonical(doc), doc) {
				return false
			}
		}
	}
	return true
}

// FuzzCheckpointDecode: whatever arrives as a snapshot — an envelope, its
// base64 form on a #ckpt or #resume line, or a payload inside a valid
// envelope — Decode and DecodeString return a snapshot or an error, never
// a panic, and a snapshot they return re-encodes to an envelope that
// decodes to the same snapshot. Its payload is json.Marshal's bytes when
// the codec encodings are in json.Marshal's form, as codecs write them;
// Decode keeps an encoding's bytes as they arrived, spaces and all, and
// then the payload is json.Marshal's once made canonical.
func FuzzCheckpointDecode(f *testing.F) {
	payload, err := json.Marshal(sampleSnapshot())
	if err != nil {
		f.Fatal(err)
	}
	raw := envelope(payload)
	f.Add(payload)
	f.Add(raw)
	f.Add([]byte(base64.StdEncoding.EncodeToString(raw)))
	f.Add([]byte(`{"benchmark":"x","workers":1,"prev_window":[],"pending":[]}`))
	f.Add([]byte(`{"benchmark":"x","next_chunk":1,"extra_states":1,"lineage":[null,""],"controller":{"history":null}}`))
	f.Add([]byte(`{"benchmark":"x","next_chunk":2,"extra_states":2,"prev_window":[[1]],"lineage":[{"a":"<"}],"replica_seed":{},"reorig":true}`))
	f.Add([]byte(`{"benchmark":"x","next_chunk":2,"lineage":[ { "a" : [ 1 , 2 ] } ],"prev_window":["\u2028"]}`))
	// An adaptive snapshot from before "grows" and "shrinks" left the controller.
	f.Add([]byte(`{"benchmark":"x","workers":1,"adapt":true,"min_chunk":2,"max_chunk":32,"pending":[true],"controller":{"size":8,"epoch_n":3,"aborts":1,"outcomes":35,"resizes":2,"grows":1,"shrinks":1,"history":[{"outcome":0,"size":8},{"outcome":16,"size":12}]}}`))
	f.Add([]byte(`{"benchmark":"x","seed":1,"chunk_size":16,"lookback":4,"extra_states":1,"inner_width":64,"workers":2,"next_chunk":0,"inputs":0}`))
	// A version 4 envelope, the last to carry the adaptive bounds.
	v4 := []byte(`{"benchmark":"x","seed":1,"chunk_size":16,"lookback":4,"extra_states":1,"workers":2,"adapt":true,"min_chunk":4,"max_chunk":64,"next_chunk":0,"inputs":0}`)
	f.Add(v4)
	v4env := envelope(v4)
	binary.LittleEndian.PutUint32(v4env[len(magic):], Version-1)
	restamp(v4env)
	f.Add(v4env)
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, try := range []func() (*Snapshot, error){
			func() (*Snapshot, error) { return Decode(data) },
			func() (*Snapshot, error) { return DecodeString(string(data)) },
			func() (*Snapshot, error) { return Decode(envelope(data)) },
		} {
			s, err := try()
			if err != nil {
				continue
			}
			again, err := Encode(s)
			if err != nil {
				t.Fatalf("a decoded snapshot does not encode: %v", err)
			}
			got := again[header : len(again)-4]
			if !allCanonical(s) {
				got = canonical(got)
			}
			if want, _ := json.Marshal(s); !bytes.Equal(got, want) {
				t.Fatalf("Encode's payload differs from json.Marshal:\n got %s\nwant %s", got, want)
			}
			back, err := Decode(again)
			if err != nil {
				t.Fatalf("a re-encoded snapshot does not decode: %v", err)
			}
			if !sameSnapshot(s, back) {
				t.Fatalf("round trip changed the snapshot:\n%+v\n%+v", s, back)
			}
		}
	})
}
