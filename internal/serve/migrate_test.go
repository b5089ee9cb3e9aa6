package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"gostats/internal/bench"
	"gostats/internal/checkpoint"
)

// postSession POSTs a session body to a fully-formed URL (query included)
// and splits the NDJSON response into lines plus the parsed trailer.
func postSession(t *testing.T, url string, body []byte) ([]string, Trailer) {
	t.Helper()
	resp, err := http.Post(url, "application/x-ndjson", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("session: status %d: %s", resp.StatusCode, b)
	}
	var lines []string
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 8<<20)
	for sc.Scan() {
		lines = append(lines, sc.Text())
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(lines) == 0 {
		t.Fatal("session: empty response")
	}
	var tr Trailer
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &tr); err != nil {
		t.Fatalf("session: bad trailer %q: %v", lines[len(lines)-1], err)
	}
	return lines[:len(lines)-1], tr
}

// splitControl separates a session's output lines from its #ckpt control
// lines, checking each checkpoint covers exactly the output lines above
// it.
func splitControl(t *testing.T, lines []string) (outs []string, snaps []*checkpoint.Snapshot) {
	t.Helper()
	for _, line := range lines {
		switch {
		case strings.HasPrefix(line, checkpoint.CkptPrefix):
			snap, err := checkpoint.DecodeString(line[len(checkpoint.CkptPrefix):])
			if err != nil {
				t.Fatalf("bad #ckpt line: %v", err)
			}
			if int(snap.Inputs) > len(outs) {
				t.Fatalf("#ckpt covers %d outputs but only %d were written above it",
					snap.Inputs, len(outs))
			}
			snaps = append(snaps, snap)
		case line == checkpoint.MigrateLine:
			// position is asserted by the callers that expect it
		default:
			outs = append(outs, line)
		}
	}
	return outs, snaps
}

// TestServeCheckpointResume runs a ckpt=N session, then restores a
// mid-stream snapshot through a resume=1 session on a fresh server and
// checks prefix + resumed tail reproduce the plain session byte for
// byte.
func TestServeCheckpointResume(t *testing.T) {
	name := "streamcluster"
	cfg := baseConfig()
	ts := httptest.NewServer(New(cfg, Options{}).Handler())
	defer ts.Close()

	inputs := sessionInputs(t, name, 48)
	body := ndjsonBody(t, name, inputs)
	want := wantLines(t, name, cfg, inputs)

	lines, tr := postSession(t, ts.URL+"/v1/stream/"+name+"?ckpt=2", body)
	if !tr.Done || tr.Error != "" {
		t.Fatalf("checkpointed session trailer: %+v", tr)
	}
	outs, snaps := splitControl(t, lines)
	if len(outs) != len(want) {
		t.Fatalf("checkpointed session: %d output lines, want %d", len(outs), len(want))
	}
	for i := range outs {
		if outs[i] != want[i] {
			t.Fatalf("output %d = %q, want %q: control lines changed the output stream", i, outs[i], want[i])
		}
	}
	if len(snaps) < 2 {
		t.Fatalf("ckpt=2 session over %d inputs produced %d snapshots", len(inputs), len(snaps))
	}

	// Resume from a mid-stream snapshot on a brand-new server.
	snap := snaps[len(snaps)/2]
	if snap.Inputs == 0 || int(snap.Inputs) >= len(inputs) {
		t.Fatalf("middle snapshot frontier %d not mid-stream", snap.Inputs)
	}
	b64, err := checkpoint.EncodeString(snap)
	if err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(New(cfg, Options{}).Handler())
	defer ts2.Close()
	var resumeBody bytes.Buffer
	resumeBody.WriteString(checkpoint.ResumePrefix + b64 + "\n")
	resumeBody.Write(ndjsonBody(t, name, inputs[snap.Inputs:]))
	tail, tr2 := postSession(t, ts2.URL+"/v1/stream/"+name+"?resume=1", resumeBody.Bytes())
	if !tr2.Done || tr2.Error != "" {
		t.Fatalf("resumed session trailer: %+v", tr2)
	}
	got := append(append([]string{}, want[:snap.Inputs]...), tail...)
	if len(got) != len(want) {
		t.Fatalf("prefix+resumed = %d lines, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("resumed line %d = %q, want %q", i, got[i], want[i])
		}
	}

	// The snapshot's shape replaces the query's, the worker count too: an
	// attributed resume of a one-worker snapshot on a server whose base is
	// three workers reports its breakdown against the two cores that ran
	// it (one worker plus the frontier), not the base's four.
	lines, _ = postSession(t, ts.URL+"/v1/stream/"+name+"?ckpt=2&workers=1", body)
	_, snaps = splitControl(t, lines)
	snap = snaps[len(snaps)/2]
	if snap.Workers != 1 || cfg.Workers == 1 {
		t.Fatalf("snapshot at %d workers, server base %d: the case needs 1 against another", snap.Workers, cfg.Workers)
	}
	if b64, err = checkpoint.EncodeString(snap); err != nil {
		t.Fatal(err)
	}
	resumeBody.Reset()
	resumeBody.WriteString(checkpoint.ResumePrefix + b64 + "\n")
	resumeBody.Write(ndjsonBody(t, name, inputs[snap.Inputs:]))
	tail, tr3 := postSession(t, ts2.URL+"/v1/stream/"+name+"?resume=1&attrib=1", resumeBody.Bytes())
	if !tr3.Done || tr3.Error != "" || tr3.Attribution == nil {
		t.Fatalf("attributed resumed session trailer: %+v", tr3)
	}
	if want := float64(snap.Workers + 1); tr3.Attribution.Ideal != want {
		t.Fatalf("resumed one-worker session: attribution ideal %v, want %v", tr3.Attribution.Ideal, want)
	}
	if strings.Join(tail, "\n") != strings.Join(want[snap.Inputs:], "\n") {
		t.Fatal("attributed resume of a one-worker snapshot diverged from the uninterrupted outputs")
	}
}

// TestServeResumesLongSnapshot: a #resume line carries a snapshot, not an
// input, and -max-line does not bound it. A bodytrack snapshot is larger
// than the default input line cap, and its resume must still run to the
// uninterrupted session's tail.
func TestServeResumesLongSnapshot(t *testing.T) {
	name := "bodytrack"
	cfg := baseConfig()
	ts := httptest.NewServer(New(cfg, Options{}).Handler())
	defer ts.Close()

	inputs := sessionInputs(t, name, 3*cfg.ChunkSize)
	want := wantLines(t, name, cfg, inputs)
	lines, _ := postSession(t, ts.URL+"/v1/stream/"+name+"?ckpt=1", ndjsonBody(t, name, inputs))
	_, snaps := splitControl(t, lines)
	snap := snaps[0]
	b64, err := checkpoint.EncodeString(snap)
	if err != nil {
		t.Fatal(err)
	}
	if len(checkpoint.ResumePrefix+b64) <= bench.DefaultMaxLine {
		t.Fatalf("the #resume line is %d bytes: the case needs one over the %d-byte input line cap",
			len(checkpoint.ResumePrefix+b64), bench.DefaultMaxLine)
	}
	body := append([]byte(checkpoint.ResumePrefix+b64+"\n"), ndjsonBody(t, name, inputs[snap.Inputs:])...)
	tail, tr := postSession(t, ts.URL+"/v1/stream/"+name+"?resume=1", body)
	if !tr.Done || tr.Error != "" || strings.Join(tail, "\n") != strings.Join(want[snap.Inputs:], "\n") {
		t.Fatalf("resumed from chunk %d: trailer %+v, tail matches %v", snap.NextChunk, tr,
			strings.Join(tail, "\n") == strings.Join(want[snap.Inputs:], "\n"))
	}
}

// TestServeResumeRejectsBadPrologue covers the resume=1 error surface: a
// missing #resume line and a corrupt snapshot both get a clean 400.
func TestServeResumeRejectsBadPrologue(t *testing.T) {
	ts := httptest.NewServer(New(baseConfig(), Options{}).Handler())
	defer ts.Close()
	for _, body := range []string{
		"{\"x\":1}\n",                         // input line where #resume belongs
		checkpoint.ResumePrefix + "corrupt\n", // undecodable snapshot
		"",                                    // empty body
	} {
		resp, err := http.Post(ts.URL+"/v1/stream/streamcluster?resume=1",
			"application/x-ndjson", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("resume body %q: status %d, want 400", body, resp.StatusCode)
		}
	}
}

// TestServeResumeRejectsMisshapenState: a snapshot is client-supplied
// bytes, and a tracker state inside it that claims five particles and
// carries none used to decode fine and panic in the next Update — a 500
// once the engine's fault retries ran out, or worse a 200 computed on a
// cloud of the wrong size. It must be a 400 before any output.
func TestServeResumeRejectsMisshapenState(t *testing.T) {
	const name = "facetrack"
	app := New(baseConfig(), Options{})
	ts := httptest.NewServer(app.Handler())
	defer ts.Close()

	inputs := sessionInputs(t, name, 24)
	lines, _ := postSession(t, ts.URL+"/v1/stream/"+name+"?ckpt=1", ndjsonBody(t, name, inputs))
	_, snaps := splitControl(t, lines)
	if len(snaps) == 0 || len(snaps[0].Lineage) == 0 {
		t.Fatalf("ckpt=1 session gave no snapshot with a lineage")
	}
	snap := snaps[0]
	for _, state := range []string{
		`{"p":[],"w":[],"n":5,"dims":3,"age":0}`,            // fewer coordinates and weights than particles
		`{"p":[1,2,3],"w":[1],"n":1,"dims":3,"age":0}`,      // consistent, but not a facetrack cloud
		`{"p":[0,0],"w":[1,1],"n":-2,"dims":-1,"age":0}`,    // negative shape whose product fits
		`{"p":[0],"w":[],"n":0,"dims":0,"age":0,"zz":true}`, // through the encoding/json path
	} {
		snap.Lineage[0] = []byte(state)
		b64, err := checkpoint.EncodeString(snap)
		if err != nil {
			t.Fatal(err)
		}
		body := checkpoint.ResumePrefix + b64 + "\n" + string(ndjsonBody(t, name, inputs[snap.Inputs:]))
		resp, err := http.Post(ts.URL+"/v1/stream/"+name+"?resume=1", "application/x-ndjson", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		msg, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("resume with state %s: status %d %.200q, want 400", state, resp.StatusCode, msg)
		}
	}
	if n := app.front.Panics(); n != 0 {
		t.Errorf("%d handler panics: a misshapen state reached Update", n)
	}
}

// TestServeMigrateDrain is the session-mobility e2e at the serve layer:
// a migrate=1 session is drained mid-stream, ends with a final #ckpt, a
// #migrate marker, and a Migrated trailer; resuming that checkpoint on a
// second server completes the session with the remaining inputs, and the
// two output streams concatenate to the plain session byte for byte.
func TestServeMigrateDrain(t *testing.T) {
	name := "dedupstream"
	cfg := baseConfig()
	app := New(cfg, Options{})
	ts := httptest.NewServer(app.Handler())
	defer ts.Close()

	inputs := sessionInputs(t, name, 60)
	want := wantLines(t, name, cfg, inputs)
	fed := 40 // hold back the tail: the session must migrate mid-stream

	pr, pw := io.Pipe()
	go func() {
		pw.Write(ndjsonBody(t, name, inputs[:fed]))
		// Keep the body open: from the server's view the session is
		// mid-stream until the drain halts it.
	}()
	defer pw.Close()

	resp, err := http.Post(ts.URL+"/v1/stream/"+name+"?migrate=1&ckpt=2",
		"application/x-ndjson", pr)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("migrate session: status %d: %s", resp.StatusCode, b)
	}

	// Stop reading once the trailer lands (it is the line after #migrate)
	// instead of waiting for connection teardown: the server halts the
	// session with client bytes still in flight, so the close may RST.
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 8<<20)
	var lines []string
	drained, migrated := false, false
	for sc.Scan() {
		lines = append(lines, sc.Text())
		if migrated {
			break
		}
		migrated = sc.Text() == checkpoint.MigrateLine
		if !drained && len(lines) >= 8 {
			app.StartDrain() // mid-stream: outputs are still flowing
			drained = true
		}
	}
	pw.Close() // we have the trailer: close the body so the server sees EOF
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if !drained {
		t.Fatalf("session ended after %d lines, before the drain", len(lines))
	}
	var tr Trailer
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &tr); err != nil {
		t.Fatalf("bad trailer %q: %v", lines[len(lines)-1], err)
	}
	if !tr.Migrated || tr.Done {
		t.Fatalf("drained session trailer: %+v", tr)
	}
	if len(lines) < 2 || lines[len(lines)-2] != checkpoint.MigrateLine {
		t.Fatalf("drained session does not end with %q before the trailer", checkpoint.MigrateLine)
	}

	outs, snaps := splitControl(t, lines[:len(lines)-1])
	if len(snaps) == 0 {
		t.Fatal("drained session emitted no checkpoint")
	}
	last := snaps[len(snaps)-1]
	if int(last.Inputs) != len(outs) {
		t.Fatalf("final checkpoint frontier %d != %d outputs received", last.Inputs, len(outs))
	}
	if len(outs) >= len(want) {
		t.Fatalf("session committed all %d outputs before halting; migration not mid-stream", len(outs))
	}
	for i := range outs {
		if outs[i] != want[i] {
			t.Fatalf("pre-migration output %d = %q, want %q", i, outs[i], want[i])
		}
	}

	// Resume on a second backend with the inputs the first never saw.
	b64, err := checkpoint.EncodeString(last)
	if err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(New(cfg, Options{}).Handler())
	defer ts2.Close()
	var resumeBody bytes.Buffer
	resumeBody.WriteString(checkpoint.ResumePrefix + b64 + "\n")
	resumeBody.Write(ndjsonBody(t, name, inputs[last.Inputs:]))
	tail, tr2 := postSession(t, ts2.URL+"/v1/stream/"+name+"?resume=1", resumeBody.Bytes())
	if !tr2.Done || tr2.Error != "" {
		t.Fatalf("resumed session trailer: %+v", tr2)
	}
	got := append(append([]string{}, outs...), tail...)
	if len(got) != len(want) {
		t.Fatalf("migrated session total %d lines, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("migrated session line %d = %q, want %q", i, got[i], want[i])
		}
	}
}
