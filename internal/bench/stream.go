package bench

import (
	"encoding/json"
	"fmt"
	"maps"
	"slices"
	"sync/atomic"

	"gostats/internal/engine"
)

// StreamCodec translates one benchmark's inputs and outputs to and from a
// wire form (one JSON object per line — NDJSON). It is what lets the
// serving layer (cmd/statsserved) speak a benchmark's native types
// without knowing them: sessions decode request lines into engine.Input and
// encode committed engine.Output values back out.
//
// A codec must round-trip inputs exactly: DecodeInput(EncodeInput(in))
// yields an input that drives the program identically to in. That is what
// makes a served session reproducible from its request log.
type StreamCodec interface {
	// DecodeInput parses one request line into the benchmark's input type.
	DecodeInput(data []byte) (engine.Input, error)
	// EncodeInput renders an input as one line (no trailing newline).
	EncodeInput(in engine.Input) ([]byte, error)
	// EncodeOutput renders a committed output as one line.
	EncodeOutput(out engine.Output) ([]byte, error)
}

// ReusingCodec is the optional half of a StreamCodec that lets a served
// line allocate almost nothing: decoding into storage a retired input
// already holds, encoding onto a buffer the caller keeps. Every codec in
// the tree has it, and its DecodeInput and EncodeOutput are one-line
// wrappers over these two, so each codec keeps one decoder body and one
// encoder body. Reusing pairs it with a forwarding fallback for codecs
// that lack it.
//
// A codec may reuse a spare only if its kernel keeps no reference into an
// input after Update returns, in its state or in its output
// (engine.StateDependence.Update): the serving layer decodes each line
// into the input its pipeline record slot retires (engine's
// Pipeline.PushFrom), and TestDeterminismMatrix's wire-ingest row holds
// every benchmark to it.
type ReusingCodec interface {
	// DecodeInputInto is DecodeInput that may reuse the slices spare — an
	// input of this codec's type, or nil — points to, and overwrite them.
	// The result equals DecodeInput's (reflect.DeepEqual), whatever spare
	// held: no element of spare survives into it unless the line says so.
	DecodeInputInto(data []byte, spare engine.Input) (engine.Input, error)
	// AppendOutput appends EncodeOutput's line to dst and returns the
	// extended buffer, or nil and the error EncodeOutput would return.
	AppendOutput(dst []byte, out engine.Output) ([]byte, error)
}

// Reusing returns c's own ReusingCodec, or, for a codec that only
// forwards the allocating methods (a wrapper that times them, say), one
// that decodes with DecodeInput, ignoring the spare, and appends
// EncodeOutput's line.
func Reusing(c StreamCodec) ReusingCodec {
	if rc, ok := c.(ReusingCodec); ok {
		return rc
	}
	return allocating{c}
}

// allocating is Reusing's fallback.
type allocating struct{ c StreamCodec }

func (a allocating) DecodeInputInto(data []byte, _ engine.Input) (engine.Input, error) {
	return a.c.DecodeInput(data)
}

func (a allocating) AppendOutput(dst []byte, out engine.Output) ([]byte, error) {
	b, err := a.c.EncodeOutput(out)
	if err != nil {
		return nil, err
	}
	return append(dst, b...), nil
}

var codecs = map[string]func() StreamCodec{}

// RegisterCodec adds a stream codec under the benchmark's registered
// name. Like Register, it panics on duplicates.
func RegisterCodec(name string, ctor func() StreamCodec) {
	if _, dup := codecs[name]; dup {
		panic(fmt.Sprintf("bench: duplicate codec %q", name))
	}
	codecs[name] = ctor
}

// CodecFor instantiates the stream codec registered for name. Not every
// benchmark is streamable; the error lists those that are.
func CodecFor(name string) (StreamCodec, error) {
	ctor, ok := codecs[name]
	if !ok {
		return nil, fmt.Errorf("bench: no stream codec for %q (have %v)", name, CodecNames())
	}
	return ctor(), nil
}

// CodecNames lists benchmarks with stream codecs in sorted order.
func CodecNames() []string { return slices.Sorted(maps.Keys(codecs)) }

// WireCodec extends StreamCodec with state serialization: what checkpoint
// snapshots (the frontier lineage) and the out-of-process chunk protocol
// (speculative/final/original states) need that a served session does
// not. The contract is stronger than "round-trips": DecodeState must
// yield a state that is bit-equivalent to the original under Update,
// Match, and EncodeState — float64 fields must survive exactly and
// any internal derived structure (caches, hash tables) must be rebuilt to
// the same observable contents. That is what makes a resumed or remotely
// executed session byte-identical to an uninterrupted in-process one.
//
// The wire format of all six methods is encoding/json's, and the codecs
// hold to it without calling it: every encoder writes, with Enc, exactly
// the bytes json.Marshal would (floats as the shortest decimal that
// round-trips, which is what carries float64 losslessly), and every
// decoder reads that one canonical form with a Cursor. Any other line —
// whitespace, reordered or case-folded keys, unknown fields, escapes,
// null — goes to Unmarshal below, the fallback at the bottom of every
// decoder and the only call into encoding/json outside tests. So the
// lines accepted and the values decoded are encoding/json's by
// construction, and internal/bench/all's differential tests and fuzz
// targets check the rest against it. strconv stands in two places:
// writing a float (AppendFloat's shortest digits are its Ryu) and reading
// the rare literal Cursor.Float's own exact conversion declines.
type WireCodec interface {
	StreamCodec
	// DecodeOutput parses an EncodeOutput line back into a live output —
	// the return half of the out-of-process chunk protocol. Like inputs,
	// outputs must round-trip exactly: EncodeOutput(DecodeOutput(line))
	// reproduces line byte for byte.
	DecodeOutput(data []byte) (engine.Output, error)
	// EncodeState renders a benchmark state as one line (no newline).
	EncodeState(s engine.State) ([]byte, error)
	// DecodeState parses an EncodeState line back into a live state.
	DecodeState(data []byte) (engine.State, error)
}

// fallbackLines counts Unmarshal calls.
var fallbackLines atomic.Uint64

// Unmarshal is json.Unmarshal, counted: where a decoder sends a line its
// Cursor did not take. Such a line costs about three times a canonical
// one, and a client whose encoder writes ", " and ": " (Python's
// json.dumps by default) sends nothing else, so the count is published
// (statsserved /metrics, decode_fallback_lines) for an operator to see.
func Unmarshal(data []byte, v any) error {
	fallbackLines.Add(1)
	return json.Unmarshal(data, v)
}

// FallbackLines reports how many lines this process has decoded with
// Unmarshal rather than with a Cursor.
func FallbackLines() uint64 { return fallbackLines.Load() }

var wires = map[string]func() WireCodec{}

// RegisterWire adds a wire codec under the benchmark's registered name.
// Like Register, it panics on duplicates.
func RegisterWire(name string, ctor func() WireCodec) {
	if _, dup := wires[name]; dup {
		panic(fmt.Sprintf("bench: duplicate wire codec %q", name))
	}
	wires[name] = ctor
}

// WireFor instantiates the wire codec registered for name. Not every
// benchmark has one; the error lists those that do.
func WireFor(name string) (WireCodec, error) {
	ctor, ok := wires[name]
	if !ok {
		return nil, fmt.Errorf("bench: no wire codec for %q (have %v)", name, WireNames())
	}
	return ctor(), nil
}

// WireNames lists benchmarks with wire codecs in sorted order.
func WireNames() []string { return slices.Sorted(maps.Keys(wires)) }
