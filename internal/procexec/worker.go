package procexec

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"time"

	"gostats/internal/bench"
	"gostats/internal/engine"
)

// workerSession is the per-process execution context a hello establishes.
type workerSession struct {
	codec bench.WireCodec
	run   *engine.ChunkWorker
}

// workerAction is what the serve loop does with a handled request line.
type workerAction int

const (
	actReply  workerAction = iota // write the reply
	actDie                        // planned process death: exit without replying
	actHang                       // planned wedge: never reply
	actGarble                     // planned corruption: write an unparseable line
)

// ServeWorker runs the worker side of the out-of-process chunk protocol
// over (r, w): a "hello" line binds the process to a session, then each
// "chunk" line executes the full §III-B chunk protocol and replies with
// the speculative state, outputs, and original states in wire form.
//
// The chunk itself is executed by engine.ChunkWorker — the same attempt
// the in-process pool worker runs, with every RNG substream re-derived
// from (seed, benchmark, chunk index) — so a reply is a pure function of
// (session, chunk index, window, inputs): byte-identical no matter which
// process computes it, or how many died trying.
//
// It returns when r reaches EOF (the parent closed stdin) and on
// transport errors; a request that cannot be parsed or executed is
// reported in-band as an {ok:false} reply instead, keeping the process
// reusable. Planned fault instructions (die/hang/garble) are honored
// unconditionally — they exist so chaos tests can schedule real process
// deaths.
func ServeWorker(r io.Reader, w io.Writer) error {
	br := bufio.NewReaderSize(r, 1<<16)
	bw := bufio.NewWriter(w)
	var sess workerSession
	for {
		line, err := br.ReadBytes('\n')
		if err == io.EOF && len(line) == 0 {
			return nil
		}
		if err != nil {
			return fmt.Errorf("procexec: worker read: %w", err)
		}
		reply, act := sess.handle(line)
		var out []byte
		switch act {
		case actDie:
			// The parent sees a truncated stream and respawns.
			os.Exit(3)
		case actHang:
			// A timer loop, not select{}, so the runtime's deadlock detector
			// stays quiet. The parent's chunk deadline fires and it kills
			// this process.
			for {
				time.Sleep(time.Hour)
			}
		case actGarble:
			out = []byte("!garbage reply!")
		default:
			if out, err = json.Marshal(reply); err != nil {
				return fmt.Errorf("procexec: worker encode: %w", err)
			}
		}
		if _, err := bw.Write(append(out, '\n')); err != nil {
			return fmt.Errorf("procexec: worker write: %w", err)
		}
		if err := bw.Flush(); err != nil {
			return fmt.Errorf("procexec: worker flush: %w", err)
		}
	}
}

// handle executes one request line against the session and says what the
// serve loop should do with the reply. It never panics, whatever the
// line holds: anything it cannot parse or run becomes an {ok:false} reply.
func (s *workerSession) handle(line []byte) (wireReply, workerAction) {
	var req wireRequest
	if err := json.Unmarshal(line, &req); err != nil {
		return wireReply{Err: fmt.Sprintf("bad request: %v", err)}, actReply
	}
	switch req.Op {
	case "hello":
		sess, err := newWorkerSession(req)
		if err != nil {
			return wireReply{Err: err.Error()}, actReply
		}
		*s = *sess
		return wireReply{OK: true}, actReply
	case "chunk":
		switch {
		case s.run == nil:
			return wireReply{Err: "chunk before hello"}, actReply
		case req.Die:
			return wireReply{}, actDie
		case req.Hang:
			return wireReply{}, actHang
		}
		reply := s.runChunk(req)
		if req.Garble {
			return reply, actGarble
		}
		return reply, actReply
	}
	return wireReply{Err: fmt.Sprintf("unknown op %q", req.Op)}, actReply
}

func newWorkerSession(req wireRequest) (*workerSession, error) {
	prog, err := bench.New(req.Benchmark)
	if err != nil {
		return nil, err
	}
	codec, err := bench.WireFor(req.Benchmark)
	if err != nil {
		return nil, err
	}
	// Each replica is a state per chunk; a count beyond maxExtra is a
	// corrupted frame, not a session shape.
	const maxExtra = 1 << 10
	if req.Lookback <= 0 || req.Extra < 0 || req.Extra > maxExtra {
		return nil, fmt.Errorf("session shape out of range: lookback %d, extra %d", req.Lookback, req.Extra)
	}
	return &workerSession{
		codec: codec,
		run:   engine.NewChunkWorker(prog, req.Seed, req.Lookback, req.Extra),
	}, nil
}

// decodeInputs translates a wire input list; what names it in errors.
func (s *workerSession) decodeInputs(what string, raws []json.RawMessage) ([]engine.Input, error) {
	ins := make([]engine.Input, len(raws))
	for i, raw := range raws {
		in, err := s.codec.DecodeInput(raw)
		if err != nil {
			return nil, fmt.Errorf("decode %s[%d]: %v", what, i, err)
		}
		ins[i] = in
	}
	return ins, nil
}

// runChunk executes one chunk and encodes the reply. Failures (decode
// errors, protocol panics) become {ok:false} replies.
func (s *workerSession) runChunk(req wireRequest) (reply wireReply) {
	defer func() {
		if r := recover(); r != nil {
			reply = wireReply{Err: fmt.Sprintf("chunk %d panicked: %v", req.Chunk, r)}
		}
	}()
	window, err := s.decodeInputs("window", req.Window)
	if err != nil {
		return wireReply{Err: err.Error()}
	}
	inputs, err := s.decodeInputs("input", req.Inputs)
	if err != nil {
		return wireReply{Err: err.Error()}
	}
	switch {
	case req.Chunk < 0:
		return wireReply{Err: fmt.Sprintf("chunk index %d out of range", req.Chunk)}
	case len(inputs) == 0:
		return wireReply{Err: "empty chunk"}
	case req.Chunk > 0 && len(window) == 0:
		return wireReply{Err: fmt.Sprintf("chunk %d has no predecessor window", req.Chunk)}
	}

	res := s.run.Run(engine.ChunkRequest{Chunk: req.Chunk, Window: window, Inputs: inputs})
	defer s.run.Release(res)

	reply = wireReply{OK: true,
		Outs:  make([]json.RawMessage, len(res.Outs)),
		Origs: make([]json.RawMessage, len(res.Origs)),
	}
	if res.Spec != nil {
		raw, err := s.codec.EncodeState(res.Spec)
		if err != nil {
			return wireReply{Err: fmt.Sprintf("encode spec: %v", err)}
		}
		reply.Spec = raw
	}
	for i, o := range res.Outs {
		raw, err := s.codec.EncodeOutput(o)
		if err != nil {
			return wireReply{Err: fmt.Sprintf("encode output[%d]: %v", i, err)}
		}
		reply.Outs[i] = raw
	}
	for i, o := range res.Origs {
		raw, err := s.codec.EncodeState(o)
		if err != nil {
			return wireReply{Err: fmt.Sprintf("encode orig[%d]: %v", i, err)}
		}
		reply.Origs[i] = raw
	}
	return reply
}
