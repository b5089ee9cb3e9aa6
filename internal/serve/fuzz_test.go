package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"gostats/internal/checkpoint"
)

// FuzzResumePrologue: the first body line of a resume=1 session is
// untrusted bytes read before any pipeline exists. readResumeLine must
// never panic, must accept only a #resume line, and a snapshot it accepts
// must survive re-encoding as a #resume line unchanged.
func FuzzResumePrologue(f *testing.F) {
	b64, err := checkpoint.EncodeString(&checkpoint.Snapshot{
		Benchmark: "streamcluster", Seed: 7, ChunkSize: 8, Lookback: 3, ExtraStates: 1, Workers: 3,
		NextChunk: 2, Inputs: 16, Lineage: []json.RawMessage{json.RawMessage(`{"k":1}`)},
		PrevWindow: []json.RawMessage{json.RawMessage(`[1,2]`)}, ReplicaSeed: json.RawMessage(`{"k":0}`),
	})
	if err != nil {
		f.Fatal(err)
	}
	for _, seed := range []string{
		checkpoint.ResumePrefix + b64 + "\n{\"x\":1}\n",
		"\n  \n" + checkpoint.ResumePrefix + b64,
		checkpoint.ResumePrefix + "corrupt\n",
		checkpoint.CkptPrefix + b64 + "\n",
		checkpoint.MigrateLine + "\n",
		"{\"x\":1}\n",
		strings.Repeat("x", 300) + "\n",
		"",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		snap, err := readResumeLine(bufio.NewReader(bytes.NewReader(body)))
		if (snap == nil) == (err == nil) {
			t.Fatalf("readResumeLine = %v, %v: want exactly one", snap, err)
		}
		if err != nil {
			return
		}
		if !bytes.Contains(body, []byte(checkpoint.ResumePrefix)) {
			t.Fatalf("accepted a prologue with no #resume line: %q", body)
		}
		again, err := checkpoint.EncodeString(snap)
		if err != nil {
			t.Fatalf("accepted snapshot does not re-encode: %v", err)
		}
		snap2, err := readResumeLine(bufio.NewReader(strings.NewReader(checkpoint.ResumePrefix + again + "\n")))
		if err != nil {
			t.Fatalf("re-encoded #resume line rejected: %v", err)
		}
		if final, _ := checkpoint.EncodeString(snap2); final != again {
			t.Fatalf("snapshot changed across a #resume round trip")
		}
	})
}
