// Package checkpoint defines the commit-frontier snapshot: the versioned,
// CRC-guarded serialization of a streaming session's resumable core.
//
// A snapshot is taken at a commit boundary — the one point in the STATS
// protocol where the session's observable state is fully determined by
// (benchmark, seed, committed input prefix). Everything a fresh pipeline
// needs to produce byte-identical remaining outputs fits in a few fields:
// the session parameters (which fix every rng derivation), the index of
// the next chunk to dispatch, the committed-state lineage at the frontier
// (final state plus the extra original-state replicas the next boundary
// validation will compare against), the previous chunk's lookback window,
// and the adaptive controller's decision state. Nothing else is captured
// — in-flight speculative work is deliberately discarded, because the
// determinism contract makes it free to re-derive (DESIGN.md §12).
//
// Wire format (everything little-endian):
//
//	magic   [4]byte  "STCP"
//	version uint32   currently 1
//	length  uint32   payload byte count
//	payload []byte   JSON-encoded Snapshot
//	crc     uint32   CRC-32C (Castagnoli) over version|length|payload
//
// The JSON payload keeps the format self-describing (fields are named,
// unknown fields are ignored on decode, states are opaque codec-encoded
// byte strings); the binary envelope gives cheap integrity and version
// gating before any JSON is parsed. A snapshot that fails the CRC or
// carries an unknown version is rejected, never partially applied.
package checkpoint

import (
	"encoding/base64"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"

	"gostats/internal/autotune"
)

// Version is the current snapshot format version.
const Version = 1

// magic identifies a snapshot envelope.
var magic = [4]byte{'S', 'T', 'C', 'P'}

// castagnoli is the CRC-32C table (hardware-accelerated on amd64/arm64).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Snapshot is a session's resumable core at a commit boundary. All state
// and input fields hold the benchmark wire codec's encodings (one JSON
// document per entry), so the snapshot layer itself never needs to know
// benchmark types.
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
	ChunkSize   int  `json:"chunk_size"`
	Lookback    int  `json:"lookback"`
	ExtraStates int  `json:"extra_states"`
	InnerWidth  int  `json:"inner_width"`
	Workers     int  `json:"workers"`
	Adapt       bool `json:"adapt,omitempty"`
	MinChunk    int  `json:"min_chunk,omitempty"`
	MaxChunk    int  `json:"max_chunk,omitempty"`

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
	PrevWindow [][]byte `json:"prev_window,omitempty"`
	// Lineage is the committed-state lineage at the frontier
	// (codec-encoded states): Lineage[0] is the committed final state,
	// the rest are the extra original-state replicas boundary validation
	// compares speculative states against. Empty when NextChunk is 0.
	Lineage [][]byte `json:"lineage,omitempty"`

	// Pending is the commit/abort outcome of the most recent committed
	// chunks (oldest first) that the producer had not yet folded
	// into the adaptive controller when the snapshot was taken — the
	// in-flight window between the commit frontier and the producer, at
	// most Window(Workers) entries. A restored pipeline preloads its outcome
	// queue with these so the controller sees the exact same outcome
	// sequence at the exact same decision points.
	Pending []bool `json:"pending,omitempty"`
	// Controller is the adaptive chunk-size controller's state with all
	// Pending outcomes excluded; nil when the session does not adapt.
	Controller *autotune.OnlineState `json:"controller,omitempty"`
}

// Window is the speculation window of a session with the given worker
// count: the most chunks its pipeline keeps in flight past the commit
// frontier, and so the most outcomes a snapshot can hold pending. Two
// chunks a worker: one executing, one queued behind it, so a worker that
// finishes never waits for the frontier to open its next slot.
func Window(workers int) int { return 2 * workers }

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
	case s.NextChunk == 0 && (len(s.Lineage) > 0 || len(s.PrevWindow) > 0):
		return fmt.Errorf("checkpoint: next_chunk 0 cannot carry lineage or window")
	case s.NextChunk > 0 && len(s.Lineage) == 0:
		return fmt.Errorf("checkpoint: next_chunk %d without committed lineage", s.NextChunk)
	case len(s.Pending) > Window(s.Workers):
		return fmt.Errorf("checkpoint: %d pending outcomes exceed the window of %d workers", len(s.Pending), s.Workers)
	}
	return nil
}

// Encode serializes the snapshot into a self-describing envelope.
func Encode(s *Snapshot) ([]byte, error) {
	payload, err := json.Marshal(s)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: encode payload: %w", err)
	}
	buf := make([]byte, 0, len(magic)+12+len(payload))
	buf = append(buf, magic[:]...)
	buf = binary.LittleEndian.AppendUint32(buf, Version)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(payload)))
	buf = append(buf, payload...)
	crc := crc32.Checksum(buf[len(magic):], castagnoli)
	buf = binary.LittleEndian.AppendUint32(buf, crc)
	return buf, nil
}

// Decode parses and verifies an envelope. Corruption anywhere in the
// guarded region (version, length, payload) fails the CRC; a snapshot is
// either restored whole or rejected.
func Decode(data []byte) (*Snapshot, error) {
	const header = 4 + 4 + 4 // magic, version, length
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
