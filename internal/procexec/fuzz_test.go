package procexec

import (
	"encoding/json"
	"testing"

	"gostats/internal/bench"
	_ "gostats/internal/bench/all"
	"gostats/internal/rng"
)

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
