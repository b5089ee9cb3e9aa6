package checkpoint

import (
	"bytes"
	"encoding/base64"
	"encoding/binary"
	"encoding/json"
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
		InnerWidth:  1,
		Workers:     3,
		Adapt:       true,
		MinChunk:    2,
		MaxChunk:    32,
		NextChunk:   5,
		Inputs:      40,
		PrevWindow:  [][]byte{[]byte(`{"i":37}`), []byte(`{"i":38}`), []byte(`{"i":39}`)},
		Lineage:     [][]byte{[]byte(`{"sum":1.5}`), []byte(`{"sum":1.25}`)},
		Pending:     []bool{true, true, false},
		Controller: &autotune.OnlineState{
			Size: 8, EpochN: 3, Aborts: 1, Outcomes: 35, Resizes: 2, Grows: 1, Shrinks: 1,
			History: []autotune.SizeChange{{Outcome: 0, Size: 8}, {Outcome: 16, Size: 12}, {Outcome: 24, Size: 8}},
		},
	}
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
	// Stamp the previous and the next version with a valid CRC: the
	// decoder must reject on version, not CRC. A version 1 envelope — its
	// lineage always built, its payload otherwise alike — is not read.
	for _, v := range []uint32{Version - 1, Version + 1} {
		mut := append([]byte(nil), raw...)
		binary.LittleEndian.PutUint32(mut[4:], v)
		restamp(mut)
		if _, err := Decode(mut); err == nil || !strings.Contains(err.Error(), "version") {
			t.Fatalf("version %d: want version error, got %v", v, err)
		}
	}
}

func TestCheckpointValidate(t *testing.T) {
	bad := []*Snapshot{
		{Benchmark: "", NextChunk: 1, Lineage: [][]byte{{1}}},
		{Benchmark: "x", NextChunk: -1},
		{Benchmark: "x", NextChunk: 0, Lineage: [][]byte{{1}}},
		{Benchmark: "x", NextChunk: 3},
		{Benchmark: "x", Workers: 1, Pending: make([]bool, Window(1)+1)},
		{Benchmark: "x", ExtraStates: -1},
		// The lineage's shape: final plus ExtraStates replicas, or final
		// and the seed they are built from.
		{Benchmark: "x", NextChunk: 3, ExtraStates: 1, Lineage: [][]byte{{1}}},
		{Benchmark: "x", NextChunk: 3, ExtraStates: 1, Lineage: [][]byte{{1}, {2}, {3}}},
		{Benchmark: "x", NextChunk: 3, ExtraStates: 0, Lineage: [][]byte{{1}, {2}}},
		{Benchmark: "x", NextChunk: 3, ExtraStates: 1, Lineage: [][]byte{{1}, {2}}, ReplicaSeed: []byte{4}},
		{Benchmark: "x", NextChunk: 3, ExtraStates: 0, Lineage: [][]byte{{1}}, ReplicaSeed: []byte{4}},
		{Benchmark: "x", NextChunk: 0, ExtraStates: 1, ReplicaSeed: []byte{4}},
		{Benchmark: "x", NextChunk: 3, ExtraStates: 1, Lineage: [][]byte{{1}, {2}}, Reorig: true},
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("case %d: Validate accepted %+v", i, s)
		}
	}
	for i, s := range []*Snapshot{
		{Benchmark: "x", Workers: 2, NextChunk: 0},
		{Benchmark: "x", NextChunk: 3, ExtraStates: 0, Lineage: [][]byte{{1}}},
		{Benchmark: "x", NextChunk: 3, ExtraStates: 2, Lineage: [][]byte{{1}, {2}, {3}}},
		{Benchmark: "x", NextChunk: 3, ExtraStates: 2, Lineage: [][]byte{{1}}, ReplicaSeed: []byte{4}},
		{Benchmark: "x", NextChunk: 3, ExtraStates: 1, Lineage: [][]byte{{1}}, ReplicaSeed: []byte{4}, Reorig: true},
	} {
		if err := s.Validate(); err != nil {
			t.Errorf("case %d: Validate rejected %+v: %v", i, s, err)
		}
	}
}

// TestCheckpointEncodeMatchesMarshal: Encode writes the payload itself, and it
// must be the bytes json.Marshal writes — Decode is json.Unmarshal — for
// every field's zero, nil and omitempty case, negative numbers, and a
// benchmark name JSON escapes.
func TestCheckpointEncodeMatchesMarshal(t *testing.T) {
	seeded := sampleSnapshot()
	seeded.Lineage, seeded.ReplicaSeed, seeded.Reorig = seeded.Lineage[:1], []byte(`{"sum":1}`), true
	for i, s := range []*Snapshot{
		sampleSnapshot(),
		seeded,
		{},
		{Benchmark: "a\"<b>&\u2028\x01\xff", Seed: 1<<64 - 1, ChunkSize: -1, MinChunk: -2, Inputs: -1 << 63},
		{Benchmark: "x", PrevWindow: [][]byte{nil, {}}, Lineage: [][]byte{{0xff, 0xfe, 0}}, Pending: []bool{false}},
		{Benchmark: "x", PrevWindow: [][]byte{}, Lineage: [][]byte{}, ReplicaSeed: []byte{}, Pending: []bool{},
			Controller: &autotune.OnlineState{}},
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
}

// TestCheckpointEncodeAllocs: framing a dedupstream-sized snapshot — a 36 KB final
// state and seed, a two-input window of 16 KB inputs — allocates the
// envelope and nothing else.
func TestCheckpointEncodeAllocs(t *testing.T) {
	blob := func(n int) []byte { return bytes.Repeat([]byte(`[1,2]`), n/5) }
	s := &Snapshot{Benchmark: "dedupstream", Seed: 3, ChunkSize: 16, Lookback: 2, ExtraStates: 1,
		InnerWidth: 1, Workers: 2, NextChunk: 40, Inputs: 640,
		PrevWindow:  [][]byte{blob(16 << 10), blob(16 << 10)},
		Lineage:     [][]byte{blob(36 << 10)},
		ReplicaSeed: blob(36 << 10),
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

// FuzzCheckpointDecode: whatever arrives as a snapshot — an envelope, its
// base64 form on a #ckpt or #resume line, or a payload inside a valid
// envelope — Decode and DecodeString return a snapshot or an error, never
// a panic, and a snapshot they return re-encodes to an envelope whose
// payload is json.Marshal's bytes and that decodes to the same snapshot.
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
	f.Add([]byte(`{"benchmark":"x","next_chunk":2,"extra_states":2,"prev_window":["WzFd"],"lineage":["e30="],"replica_seed":"e30=","reorig":true}`))
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
			if want, _ := json.Marshal(s); !bytes.Equal(again[header:len(again)-4], want) {
				t.Fatalf("Encode's payload differs from json.Marshal:\n got %s\nwant %s", again[header:len(again)-4], want)
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
