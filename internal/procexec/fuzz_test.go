package procexec

import (
	"encoding/json"
	"testing"

	"gostats/internal/bench"
	_ "gostats/internal/bench/all"
	"gostats/internal/engine"
	"gostats/internal/rng"
)

// replyFixture is one benchmark's side of the reply tests: a pool that
// decodes without spawning anything, and the replies a real worker gives
// to chunk 0 and to chunk 1 of a session with one extra state.
type replyFixture struct {
	pool         *Pool
	chunk0, next wireReply
	inputs       int // per chunk request
}

func newReplyFixture(tb testing.TB, name string) replyFixture {
	tb.Helper()
	codec, err := bench.WireFor(name)
	if err != nil {
		tb.Fatal(err)
	}
	var raws []json.RawMessage
	for _, in := range bench.MustNew(name).Inputs(rng.New(1))[:5] {
		raw, err := codec.EncodeInput(in)
		if err != nil {
			tb.Fatal(err)
		}
		raws = append(raws, raw)
	}
	var s workerSession
	if reply, _ := s.handle(mustMarshal(tb, wireRequest{Op: "hello", Benchmark: name, Seed: 7, Lookback: 2, Extra: 1, Inner: 1})); !reply.OK {
		tb.Fatalf("%s: hello refused: %s", name, reply.Err)
	}
	fx := replyFixture{
		pool:   &Pool{cfg: Config{Codec: codec, Session: Session{Benchmark: name, Seed: 7, Lookback: 2, ExtraStates: 1, InnerWidth: 1}}},
		inputs: 3,
	}
	fx.chunk0, _ = s.handle(mustMarshal(tb, wireRequest{Op: "chunk", Chunk: 0, Inputs: raws[2:]}))
	fx.next, _ = s.handle(mustMarshal(tb, wireRequest{Op: "chunk", Chunk: 1, Window: raws[:2], Inputs: raws[2:]}))
	if !fx.chunk0.OK || !fx.next.OK {
		tb.Fatalf("%s: chunk refused: %s%s", name, fx.chunk0.Err, fx.next.Err)
	}
	return fx
}

func mustMarshal(tb testing.TB, v any) []byte {
	tb.Helper()
	line, err := json.Marshal(v)
	if err != nil {
		tb.Fatal(err)
	}
	return line
}

// request is the chunk request a fixture's replies answer.
func (fx replyFixture) request(chunk int) engine.ChunkRequest {
	return engine.ChunkRequest{Chunk: chunk, Inputs: make([]engine.Input, fx.inputs)}
}

// TestPoolDecodeRefusesWrongShape: a reply that parses but does not answer
// its request — an output short, a replica short, or a speculative state
// missing or extra — is a transport failure, not a result.
func TestPoolDecodeRefusesWrongShape(t *testing.T) {
	fx := newReplyFixture(t, "streamcluster")
	for chunk, good := range []wireReply{fx.chunk0, fx.next} {
		if _, err := fx.pool.decode(fx.request(chunk), &good); err != nil {
			t.Fatalf("chunk %d: well-formed reply refused: %v", chunk, err)
		}
	}
	for name, bad := range map[string]func(r *wireReply){
		"output short":  func(r *wireReply) { r.Outs = r.Outs[:len(r.Outs)-1] },
		"replica short": func(r *wireReply) { r.Origs = r.Origs[:1] },
		"spec missing":  func(r *wireReply) { r.Spec = nil },
	} {
		r := fx.next
		bad(&r)
		if out, err := fx.pool.decode(fx.request(1), &r); err == nil {
			t.Errorf("%s: decoded to %d outputs, %d original states", name, len(out.Outs), len(out.Origs))
		}
	}
	withSpec := fx.chunk0
	withSpec.Spec = fx.next.Spec
	if _, err := fx.pool.decode(fx.request(0), &withSpec); err == nil {
		t.Error("chunk 0: a reply with a speculative state decoded")
	}
}

// FuzzPoolReply feeds arbitrary reply lines to the parent side of the
// process protocol. A worker's reply comes from another process, so
// whatever arrives, decoding must never panic, and a reply it accepts must
// have the request's shape: one output per input, the final state plus
// the session's replicas, and a speculative state exactly when the chunk
// is not the first. Seeded with real replies for every benchmark whose
// states are small enough for the fuzzer to mutate well.
func FuzzPoolReply(f *testing.F) {
	names := bench.WireNames()
	fix := make([]replyFixture, len(names))
	for i, name := range names {
		fix[i] = newReplyFixture(f, name)
		for chunk, r := range []wireReply{fix[i].chunk0, fix[i].next} {
			if line := mustMarshal(f, r); len(line) < 64<<10 {
				f.Add(uint8(i), uint8(chunk), uint8(fix[i].inputs), line)
			}
		}
	}
	f.Add(uint8(0), uint8(1), uint8(1), []byte(`{"ok":true,"spec":null,"outs":[{}],"origs":[{},{}]}`))
	f.Add(uint8(0), uint8(0), uint8(0), []byte(`{"ok":true,"origs":[null,null]}`))
	f.Add(uint8(0), uint8(2), uint8(2), []byte(`not json`))

	f.Fuzz(func(t *testing.T, which, chunk, inputs uint8, line []byte) {
		fx := fix[int(which)%len(fix)]
		var reply wireReply
		if json.Unmarshal(line, &reply) != nil {
			return // RunChunk's exchange refuses it before decode
		}
		req := engine.ChunkRequest{Chunk: int(chunk), Inputs: make([]engine.Input, int(inputs))}
		out, err := fx.pool.decode(req, &reply)
		if err != nil {
			return
		}
		if len(out.Outs) != len(req.Inputs) {
			t.Fatalf("accepted %d outputs for %d inputs: %q", len(out.Outs), len(req.Inputs), line)
		}
		if len(out.Origs) != 1+fx.pool.cfg.Session.ExtraStates {
			t.Fatalf("accepted %d original states: %q", len(out.Origs), line)
		}
		for i, o := range out.Origs {
			if o == nil {
				t.Fatalf("accepted a nil original state %d: %q", i, line)
			}
		}
		if out.Final != out.Origs[0] {
			t.Fatalf("Final is not Origs[0]: %q", line)
		}
		if (out.Spec != nil) != (req.Chunk > 0) {
			t.Fatalf("chunk %d accepted with speculative state %v: %q", req.Chunk, out.Spec != nil, line)
		}
	})
}

// FuzzWorkerRequest feeds arbitrary bytes to the statsworker serve loop's
// request handler, as the line after a (likewise arbitrary) hello. A
// worker reads its requests from a pipe, so whatever arrives it must
// never panic and must always answer with a well-formed reply: ok, or an
// error that says why not. Seeded with one valid session and chunk
// request per benchmark.
func FuzzWorkerRequest(f *testing.F) {
	for _, name := range bench.Names() {
		b := bench.MustNew(name)
		codec, err := bench.WireFor(name)
		if err != nil {
			f.Fatal(err)
		}
		var raws []json.RawMessage
		for _, in := range b.Inputs(rng.New(1))[:5] {
			raw, err := codec.EncodeInput(in)
			if err != nil {
				f.Fatal(err)
			}
			raws = append(raws, raw)
		}
		hello, err := json.Marshal(wireRequest{Op: "hello", Benchmark: name, Seed: 7, Lookback: 2, Extra: 1, Inner: 1})
		if err != nil {
			f.Fatal(err)
		}
		chunk, err := json.Marshal(wireRequest{Op: "chunk", Chunk: 1, Window: raws[:2], Inputs: raws[2:]})
		if err != nil {
			f.Fatal(err)
		}
		var s workerSession
		for _, line := range [][]byte{hello, chunk} {
			if reply, _ := s.handle(line); !reply.OK {
				f.Fatalf("%s: seed request %q refused: %s", name, line, reply.Err)
			}
		}
		f.Add(hello, chunk)
	}
	f.Add([]byte(`{"op":"hello","benchmark":"facetrack","lookback":1}`), []byte(`{"op":"chunk","chunk":-1,"inputs":[{}]}`))
	f.Add([]byte(`{"op":"hello","benchmark":"nope"}`), []byte(`{"op":"chunk"}`))
	f.Add([]byte(`not json`), []byte(`{"op":"chunk","inputs":[1,"x",null]}`))

	f.Fuzz(func(t *testing.T, hello, line []byte) {
		var s workerSession
		s.handle(hello)
		reply, act := s.handle(line)
		if act == actDie || act == actHang {
			return // a planned fault instruction: the worker answers nothing
		}
		out, err := json.Marshal(reply)
		if err != nil {
			t.Fatalf("reply does not encode: %v", err)
		}
		var back wireReply
		if err := json.Unmarshal(out, &back); err != nil {
			t.Fatalf("reply %q does not parse: %v", out, err)
		}
		if !back.OK && back.Err == "" {
			t.Fatalf("request %q was refused without an error: %q", line, out)
		}
		if back.OK && back.Err != "" {
			t.Fatalf("request %q succeeded with an error: %q", line, out)
		}
	})
}
