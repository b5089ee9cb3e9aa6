package checkpoint

import (
	"bytes"
	"strings"
	"testing"
)

func TestParseControl(t *testing.T) {
	for _, tc := range []struct {
		line    string
		kind    Control
		payload string
	}{
		{"#migrate", Migrate, ""},
		{"#migrate ", NotControl, ""},
		{"#ckpt AAAA", Ckpt, "AAAA"},
		{"#ckpt ", Ckpt, ""},
		{"#ckpt", NotControl, ""},
		{"#resume AAAA", Resume, "AAAA"},
		{" #resume AAAA", NotControl, ""},
		{`{"frame":3}`, NotControl, ""},
		{"", NotControl, ""},
	} {
		if kind, payload := ParseControl(tc.line); kind != tc.kind || payload != tc.payload {
			t.Errorf("ParseControl(%q) = %d, %q; want %d, %q", tc.line, kind, payload, tc.kind, tc.payload)
		}
	}
}

// FuzzParseControl: the control-line parser takes bytes straight off a
// socket. It must never panic, must partition lines exactly as the
// grammar says, and any envelope it hands to DecodeString that decodes
// must re-encode to a snapshot that encodes identically.
func FuzzParseControl(f *testing.F) {
	b64, err := EncodeString(sampleSnapshot())
	if err != nil {
		f.Fatal(err)
	}
	for _, seed := range []string{
		MigrateLine, CkptPrefix + b64, ResumePrefix + b64, CkptPrefix, ResumePrefix + "corrupt",
		"#ckpt", "#", `{"x":1}`, "", CkptPrefix + b64[:len(b64)/2],
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, line string) {
		kind, payload := ParseControl(line)
		switch kind {
		case Migrate:
			if line != MigrateLine || payload != "" {
				t.Fatalf("Migrate for %q (payload %q)", line, payload)
			}
		case Ckpt:
			if line != CkptPrefix+payload {
				t.Fatalf("Ckpt for %q with payload %q", line, payload)
			}
		case Resume:
			if line != ResumePrefix+payload {
				t.Fatalf("Resume for %q with payload %q", line, payload)
			}
		case NotControl:
			if line == MigrateLine || strings.HasPrefix(line, CkptPrefix) || strings.HasPrefix(line, ResumePrefix) || payload != "" {
				t.Fatalf("control line %q classified NotControl (payload %q)", line, payload)
			}
		default:
			t.Fatalf("unknown kind %d for %q", kind, line)
		}
		snap, err := DecodeString(payload)
		if err != nil {
			return
		}
		again, err := EncodeString(snap)
		if err != nil {
			t.Fatalf("accepted snapshot does not re-encode: %v", err)
		}
		snap2, err := DecodeString(again)
		if err != nil {
			t.Fatalf("re-encoded snapshot does not decode: %v", err)
		}
		raw, _ := Encode(snap)
		raw2, _ := Encode(snap2)
		if !bytes.Equal(raw, raw2) {
			t.Fatalf("snapshot changed across a control-line round trip")
		}
	})
}
