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
	// Bump the version and re-stamp a valid CRC: the decoder must reject
	// on version, not CRC.
	mut := append([]byte(nil), raw...)
	mut[4] = 2
	restamp(mut)
	_, err = Decode(mut)
	if err == nil || !strings.Contains(err.Error(), "version") {
		t.Fatalf("want version error, got %v", err)
	}
}

func TestCheckpointValidate(t *testing.T) {
	bad := []*Snapshot{
		{Benchmark: "", NextChunk: 1, Lineage: [][]byte{{1}}},
		{Benchmark: "x", NextChunk: -1},
		{Benchmark: "x", NextChunk: 0, Lineage: [][]byte{{1}}},
		{Benchmark: "x", NextChunk: 3},
		{Benchmark: "x", Workers: 1, Pending: make([]bool, Window(1)+1)},
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("case %d: Validate accepted %+v", i, s)
		}
	}
	ok := &Snapshot{Benchmark: "x", Workers: 2, NextChunk: 0}
	if err := ok.Validate(); err != nil {
		t.Errorf("Validate rejected fresh snapshot: %v", err)
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
// a panic, and a snapshot they return re-encodes to an envelope that
// decodes to the same snapshot.
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
	f.Add([]byte(`{"benchmark":"x","next_chunk":1,"lineage":[null,""],"controller":{"history":null}}`))
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
