package workload

import (
	"bufio"
	"fmt"
	"io"

	"gostats/internal/bench"
	"gostats/internal/engine"
	"gostats/internal/rng"
)

// SessionInputs regenerates one session's input stream: the first n
// inputs of the benchmark's native stream under the session's seed. A
// session's (Benchmark, Inputs, Seed) triple therefore names the exact
// bytes it will stream, wherever it is regenerated.
//
// n <= 0 or beyond the native length means the full native stream.
func SessionInputs(b bench.Benchmark, n int, seed uint64) []engine.Input {
	inputs := b.Inputs(rng.New(seed))
	if n > 0 && n < len(inputs) {
		inputs = inputs[:n]
	}
	return inputs
}

// WriteNDJSON encodes inputs one per line through the benchmark's stream
// codec — the body of a POST /v1/stream/{benchmark} session.
func WriteNDJSON(w io.Writer, codec bench.StreamCodec, inputs []engine.Input) error {
	bw := bufio.NewWriter(w)
	for i, in := range inputs {
		line, err := codec.EncodeInput(in)
		if err != nil {
			return fmt.Errorf("workload: encoding input %d: %w", i, err)
		}
		if _, err := bw.Write(line); err != nil {
			return err
		}
		if err := bw.WriteByte('\n'); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// WriteSessionNDJSON regenerates a session's input stream and
// writes it as an NDJSON body. It is the -gen path of statsserved and
// the per-session body builder of statsload.
func WriteSessionNDJSON(w io.Writer, s Session) error {
	b, err := bench.New(s.Benchmark)
	if err != nil {
		return err
	}
	codec, err := bench.CodecFor(s.Benchmark)
	if err != nil {
		return err
	}
	return WriteNDJSON(w, codec, SessionInputs(b, s.Inputs, s.Seed))
}
