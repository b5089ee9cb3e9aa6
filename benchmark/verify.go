package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"gostats/internal/bench"
	"gostats/internal/engine"
	"gostats/internal/serve"
)

// A session is correct when it returned one output per input, the output
// lines hash to what the Workers:1 reference pipeline produced at set-up,
// and the engine isolated no fault on the way. Anything else — a wrong or
// missing line, a trailer that reports an error, a non-200, a refusal — is
// one failed session.

// hashOutputs encodes outs through codec, one line each, and returns the
// SHA-256 of the lines.
func hashOutputs(codec bench.StreamCodec, outs []engine.Output) ([32]byte, error) {
	h := sha256.New()
	for i, o := range outs {
		line, err := codec.EncodeOutput(o)
		if err != nil {
			return [32]byte{}, fmt.Errorf("encoding output %d: %w", i, err)
		}
		h.Write(line)
		h.Write([]byte{'\n'})
	}
	var sum [32]byte
	h.Sum(sum[:0])
	return sum, nil
}

func checkStats(st engine.StreamStats, inputs int) error {
	if int(st.Outputs) != inputs {
		return fmt.Errorf("%d outputs for %d inputs", st.Outputs, inputs)
	}
	if st.Faults != 0 || st.Retries != 0 || st.Degraded != 0 {
		return fmt.Errorf("engine faults=%d retries=%d degraded=%d, want none", st.Faults, st.Retries, st.Degraded)
	}
	return nil
}

// verifyNative checks an in-process session's outputs and statistics.
func verifyNative(codec bench.StreamCodec, outs []engine.Output, st engine.StreamStats, inputs int, want [32]byte) error {
	if len(outs) != inputs {
		return fmt.Errorf("%d outputs for %d inputs", len(outs), inputs)
	}
	if err := checkStats(st, inputs); err != nil {
		return err
	}
	got, err := hashOutputs(codec, outs)
	if err != nil {
		return err
	}
	if got != want {
		return errors.New("output hash differs from the reference run")
	}
	return nil
}

// wireResult is what the client saw of one served session.
type wireResult struct {
	lines   int      // output lines, control lines and trailer excluded
	sum     [32]byte // SHA-256 of the output lines
	trailer serve.Trailer
}

// readWire consumes one session's response body: output lines, '#' control
// lines (checkpoints, migration markers) and the JSON trailer last. onFirst,
// if set, is called when the first line that is not a control line arrives.
func readWire(body io.Reader, onFirst func()) (wireResult, error) {
	var res wireResult
	h := sha256.New()
	sc := bufio.NewScanner(body)
	sc.Buffer(make([]byte, 0, 64<<10), 16<<20)
	var prev []byte // the latest non-control line; the trailer once the body ends
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 || line[0] == '#' {
			continue
		}
		if prev == nil && onFirst != nil {
			onFirst()
		}
		if prev != nil {
			h.Write(prev)
			h.Write([]byte{'\n'})
			res.lines++
		}
		prev = append(prev[:0], line...)
	}
	if err := sc.Err(); err != nil {
		return res, fmt.Errorf("reading response: %w", err)
	}
	if prev == nil {
		return res, errors.New("empty response")
	}
	h.Sum(res.sum[:0])
	if err := json.Unmarshal(prev, &res.trailer); err != nil {
		return res, fmt.Errorf("bad trailer %q: %w", bytes.TrimSpace(prev), err)
	}
	return res, nil
}

// verifyWire checks what readWire returned against the reference.
func verifyWire(res wireResult, inputs int, want [32]byte) error {
	if !res.trailer.Done || res.trailer.Error != "" {
		return fmt.Errorf("trailer done=%v error=%q", res.trailer.Done, res.trailer.Error)
	}
	if res.lines != inputs {
		return fmt.Errorf("%d output lines for %d inputs", res.lines, inputs)
	}
	if err := checkStats(res.trailer.Stats, inputs); err != nil {
		return err
	}
	if res.sum != want {
		return errors.New("output hash differs from the reference run")
	}
	return nil
}
