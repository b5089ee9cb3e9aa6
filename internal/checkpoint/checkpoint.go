// Package checkpoint defines the commit-frontier snapshot: the versioned,
// CRC-guarded serialization of a streaming session's resumable core.
//
// A snapshot is taken at a commit boundary — the one point in the STATS
// protocol where the session's observable state is fully determined by
// (benchmark, seed, committed input prefix). Everything a fresh pipeline
// needs to produce byte-identical remaining outputs fits in a few fields:
// the session parameters (which fix every rng derivation), the index of
// the next chunk to dispatch, the committed-state lineage at the frontier
// (the final state, plus either the extra original-state replicas the
// next boundary validation may compare against or the state they are
// re-derived from) and the previous chunk's lookback window. Nothing
// else is captured — in-flight speculative work is deliberately discarded, because the
// determinism contract makes it free to re-derive (DESIGN.md §12).
//
// Wire format (everything little-endian):
//
//	magic   [4]byte  "STCP"
//	version uint32   currently 6
//	length  uint32   payload byte count
//	payload []byte   JSON-encoded Snapshot
//	crc     uint32   CRC-32C (Castagnoli) over version|length|payload
//
// The JSON payload keeps the format self-describing (fields are named,
// unknown fields are ignored on decode, states and inputs are the codec's
// own JSON documents, embedded as values); the binary envelope gives cheap
// integrity and version gating before any JSON is parsed. A snapshot that
// fails the CRC or carries an unknown version is rejected, never partially
// applied.
package checkpoint

import (
	"encoding/base64"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"strconv"
)

// Version is the current snapshot format version. Version 2 carried an
// unbuilt lineage as its replica seed (Snapshot.ReplicaSeed); version 3
// embeds every codec encoding as a JSON value instead of a base64 string;
// version 4 drops the inner gang width from the session shape, since a
// native pipeline runs no gang; version 5 drops the adaptive bounds,
// which follow from the chunk size; version 6 drops the adaptive flag, the
// pending outcomes and the controller state, with the online chunk-size
// controller they fed. Older envelopes are rejected.
const Version = 6

// magic identifies a snapshot envelope.
var magic = [4]byte{'S', 'T', 'C', 'P'}

// header is the envelope's byte count before the payload: magic, version,
// length.
const header = len(magic) + 4 + 4

// castagnoli is the CRC-32C table (hardware-accelerated on amd64/arm64).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Snapshot is a session's resumable core at a commit boundary. All state
// and input fields hold the benchmark wire codec's encodings, one JSON
// document per entry, so the snapshot layer itself never needs to know
// benchmark types. The payload embeds each as the JSON value it is, so an
// entry must be one: in encoding/json's compact form, as every WireCodec
// writes it, for the payload to be json.Marshal's bytes.
type Snapshot struct {
	// Benchmark is the registered benchmark name; a snapshot can only be
	// restored into a pipeline running the same program.
	Benchmark string `json:"benchmark"`
	// Seed is the session seed every rng stream derives from. Restoring
	// it restores the whole derivation tree: chunk worker streams are
	// re-derived by index, never by position, so no stream offsets need
	// capturing.
	Seed uint64 `json:"seed"`

	// Session shape: the StreamConfig fields that feed protocol
	// decisions. A resumed pipeline adopts these wholesale — resuming
	// under different parameters would change chunk boundaries and break
	// byte-identity.
	ChunkSize   int `json:"chunk_size"`
	Lookback    int `json:"lookback"`
	ExtraStates int `json:"extra_states"`
	Workers     int `json:"workers"`

	// NextChunk is the index of the first chunk not yet committed; the
	// restored producer and commit frontier both start here.
	NextChunk int `json:"next_chunk"`
	// Inputs is the absolute count of committed inputs (== committed
	// outputs; the protocol emits exactly one output per input). A
	// resumed session must be fed the input stream starting at this
	// index.
	Inputs int64 `json:"inputs"`

	// PrevWindow is the lookback window of the last committed chunk
	// (codec-encoded inputs): what chunk NextChunk's alternative producer
	// replays. Empty when NextChunk is 0.
	PrevWindow []json.RawMessage `json:"prev_window,omitempty"`
	// Lineage is the committed-state lineage at the frontier
	// (codec-encoded states): Lineage[0] is the committed final state,
	// the rest are the ExtraStates original-state replicas boundary
	// validation compares speculative states against — or, when
	// ReplicaSeed is set, nothing: the replicas were never built. Empty
	// when NextChunk is 0.
	Lineage []json.RawMessage `json:"lineage,omitempty"`
	// ReplicaSeed is what the lineage's unbuilt replicas are re-derived
	// from (codec-encoded): the committed chunk's state len(PrevWindow)
	// inputs before its end. A resumed frontier replays PrevWindow from
	// it, as the chunk would have, only if a boundary misses the final
	// state. Set only with ExtraStates >= 1 and Lineage [final].
	ReplicaSeed json.RawMessage `json:"replica_seed,omitempty"`
	// Reorig says the replicas derive from the chunk's recovery stream —
	// it was re-executed after a mispeculation — rather than from its
	// worker stream. Meaningful only with ReplicaSeed.
	Reorig bool `json:"reorig,omitempty"`
}

// Validate checks internal consistency of a decoded snapshot.
func (s *Snapshot) Validate() error {
	switch {
	case s.Benchmark == "":
		return fmt.Errorf("checkpoint: snapshot has no benchmark")
	case s.NextChunk < 0:
		return fmt.Errorf("checkpoint: negative next_chunk %d", s.NextChunk)
	case s.Inputs < 0:
		return fmt.Errorf("checkpoint: negative inputs %d", s.Inputs)
	case s.Workers < 0:
		return fmt.Errorf("checkpoint: negative workers %d", s.Workers)
	case s.ExtraStates < 0:
		return fmt.Errorf("checkpoint: negative extra_states %d", s.ExtraStates)
	case s.NextChunk == 0 && (len(s.Lineage) > 0 || len(s.PrevWindow) > 0 || len(s.ReplicaSeed) > 0):
		return fmt.Errorf("checkpoint: next_chunk 0 cannot carry lineage, replica seed or window")
	case s.Reorig && len(s.ReplicaSeed) == 0:
		return fmt.Errorf("checkpoint: reorig without a replica seed")
	case len(s.ReplicaSeed) > 0 && (len(s.Lineage) != 1 || s.ExtraStates < 1):
		return fmt.Errorf("checkpoint: a replica seed needs lineage [final] and extra_states >= 1, have %d states and %d", len(s.Lineage), s.ExtraStates)
	case s.NextChunk > 0 && len(s.ReplicaSeed) == 0 && len(s.Lineage) != 1+s.ExtraStates:
		return fmt.Errorf("checkpoint: next_chunk %d needs a lineage of 1+%d states, have %d", s.NextChunk, s.ExtraStates, len(s.Lineage))
	}
	return nil
}

// Encode serializes the snapshot into a self-describing envelope. One
// walk over the fields sizes the envelope and a second fills it, so the
// envelope is the only allocation: the payload is json.Marshal(s) byte
// for byte, but only a benchmark name JSON would escape goes through
// encoding/json. Ints and bools are written directly and the codec encodings are copied in as
// they are. Encode rejects an empty encoding, which has no JSON form, but
// does not parse the others: Decode does, and the codecs' differential
// tests hold them to encoding/json's form.
func Encode(s *Snapshot) ([]byte, error) {
	var name []byte
	if !plainJSON(s.Benchmark) {
		name, _ = json.Marshal(s.Benchmark) // a string always marshals
	}
	size := writer{dry: true}
	size.payload(s, name)
	if size.empty {
		return nil, fmt.Errorf("checkpoint: encode payload: an empty codec encoding")
	}
	w := writer{buf: make([]byte, 0, header+size.n+4)}
	w.buf = append(w.buf, magic[:]...)
	w.buf = binary.LittleEndian.AppendUint32(w.buf, Version)
	w.buf = binary.LittleEndian.AppendUint32(w.buf, uint32(size.n))
	w.payload(s, name)
	crc := crc32.Checksum(w.buf[len(magic):], castagnoli)
	return binary.LittleEndian.AppendUint32(w.buf, crc), nil
}

// writer appends a snapshot's JSON payload to buf or, dry, only counts
// its bytes in n. empty records an encoding with no bytes.
type writer struct {
	buf   []byte
	n     int
	dry   bool
	empty bool
}

func (w *writer) raw(s string) {
	if w.dry {
		w.n += len(s)
	} else {
		w.buf = append(w.buf, s...)
	}
}

func (w *writer) bytes(b []byte) {
	if w.dry {
		w.n += len(b)
	} else {
		w.buf = append(w.buf, b...)
	}
}

func (w *writer) int(key string, v int64) {
	var digits [20]byte
	w.raw(key)
	w.bytes(strconv.AppendInt(digits[:0], v, 10))
}

// value writes a codec encoding as encoding/json writes a
// json.RawMessage: as it is, or null for a nil one.
func (w *writer) value(b json.RawMessage) {
	if b == nil {
		w.raw("null")
		return
	}
	w.empty = w.empty || len(b) == 0
	w.bytes(b)
}

// values writes an omitempty []json.RawMessage field.
func (w *writer) values(key string, v []json.RawMessage) {
	if len(v) == 0 {
		return
	}
	w.raw(key)
	w.raw("[")
	for i, b := range v {
		if i > 0 {
			w.raw(",")
		}
		w.value(b)
	}
	w.raw("]")
}

// payload writes s's fields in declaration order, with their tags'
// names and omitempty rules. name is encoding/json's form of Benchmark,
// nil when it needs no escaping.
func (w *writer) payload(s *Snapshot, name []byte) {
	w.raw(`{"benchmark":`)
	if name == nil {
		w.raw(`"`)
		w.raw(s.Benchmark)
		w.raw(`"`)
	} else {
		w.bytes(name)
	}
	var digits [20]byte
	w.raw(`,"seed":`)
	w.bytes(strconv.AppendUint(digits[:0], s.Seed, 10))
	w.int(`,"chunk_size":`, int64(s.ChunkSize))
	w.int(`,"lookback":`, int64(s.Lookback))
	w.int(`,"extra_states":`, int64(s.ExtraStates))
	w.int(`,"workers":`, int64(s.Workers))
	w.int(`,"next_chunk":`, int64(s.NextChunk))
	w.int(`,"inputs":`, s.Inputs)
	w.values(`,"prev_window":`, s.PrevWindow)
	w.values(`,"lineage":`, s.Lineage)
	if len(s.ReplicaSeed) > 0 {
		w.raw(`,"replica_seed":`)
		w.bytes(s.ReplicaSeed)
	}
	if s.Reorig {
		w.raw(`,"reorig":true`)
	}
	w.raw("}")
}

// plainJSON reports whether encoding/json writes s as itself in quotes:
// printable ASCII with nothing it escapes.
func plainJSON(s string) bool {
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case c < 0x20 || c >= 0x7f, c == '"', c == '\\', c == '<', c == '>', c == '&':
			return false
		}
	}
	return true
}

// Decode parses and verifies an envelope. Corruption anywhere in the
// guarded region (version, length, payload) fails the CRC; a snapshot is
// either restored whole or rejected.
func Decode(data []byte) (*Snapshot, error) {
	if len(data) < header+4 {
		return nil, fmt.Errorf("checkpoint: envelope truncated (%d bytes)", len(data))
	}
	if string(data[:4]) != string(magic[:]) {
		return nil, fmt.Errorf("checkpoint: bad magic %q", data[:4])
	}
	version := binary.LittleEndian.Uint32(data[4:8])
	length := binary.LittleEndian.Uint32(data[8:12])
	if int64(len(data)) != int64(header)+int64(length)+4 {
		return nil, fmt.Errorf("checkpoint: envelope length mismatch: header says %d payload bytes, have %d total", length, len(data))
	}
	want := binary.LittleEndian.Uint32(data[len(data)-4:])
	if got := crc32.Checksum(data[4:len(data)-4], castagnoli); got != want {
		return nil, fmt.Errorf("checkpoint: CRC mismatch (got %08x, want %08x)", got, want)
	}
	// Version is checked after the CRC: a corrupt version byte reports as
	// corruption, not as a mysterious future version.
	if version != Version {
		return nil, fmt.Errorf("checkpoint: unsupported snapshot version %d (have %d)", version, Version)
	}
	var s Snapshot
	if err := json.Unmarshal(data[header:len(data)-4], &s); err != nil {
		return nil, fmt.Errorf("checkpoint: decode payload: %w", err)
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// EncodeString renders the envelope in base64, the form carried on NDJSON
// control lines (`#ckpt <b64>`, `#resume <b64>`) between statsserved and
// statsgate.
func EncodeString(s *Snapshot) (string, error) {
	raw, err := Encode(s)
	if err != nil {
		return "", err
	}
	return base64.StdEncoding.EncodeToString(raw), nil
}

// DecodeString parses a base64 envelope.
func DecodeString(data string) (*Snapshot, error) {
	raw, err := base64.StdEncoding.DecodeString(data)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: bad base64 envelope: %w", err)
	}
	return Decode(raw)
}
