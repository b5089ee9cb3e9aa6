package checkpoint

import "strings"

// Control lines of a checkpointed NDJSON session, spoken between
// statsserved and statsgate. A session that opts into checkpointing
// (ckpt=N or migrate=1) gets "#ckpt <base64>" lines interleaved in its
// output — each snapshot covers exactly the output lines written above
// it — and, if the server drains it away, a final "#migrate" marker
// before the trailer. A resume=1 session instead *starts* with a control
// line: its first body line must be "#resume <base64>", the snapshot to
// restore; input lines follow from the snapshot frontier onward. Plain
// sessions never see control lines.
const (
	CkptPrefix   = "#ckpt "
	ResumePrefix = "#resume "
	MigrateLine  = "#migrate"
)

// IsJSONSpace reports whether c is whitespace JSON allows around a value:
// space, tab, CR or LF. It is the one definition of a blank session line,
// a line of nothing else. The backend's pusher skips such a line and
// counts every other one as an input, and the gateway's line index counts
// the same lines, so a resume body starts at the line the backend's input
// count names. Any other byte — \v, \f, U+0085, U+00A0 — makes a line an
// input, which the benchmark's decoder then refuses.
func IsJSONSpace(c byte) bool { return c == ' ' || c == '\t' || c == '\r' || c == '\n' }

// TrimJSONSpace returns line without the JSON whitespace around it: empty
// iff the line is blank.
func TrimJSONSpace(line []byte) []byte {
	for len(line) > 0 && IsJSONSpace(line[0]) {
		line = line[1:]
	}
	for len(line) > 0 && IsJSONSpace(line[len(line)-1]) {
		line = line[:len(line)-1]
	}
	return line
}

// Control is what ParseControl found on a session line.
type Control int

const (
	NotControl Control = iota // an ordinary NDJSON input or output line
	Ckpt                      // "#ckpt <base64>"
	Resume                    // "#resume <base64>"
	Migrate                   // "#migrate"
)

// ParseControl classifies one session line (terminator already stripped)
// and returns the base64 envelope a #ckpt or #resume line carries, for
// DecodeString. It is the only parser of the grammar above.
func ParseControl(line string) (Control, string) {
	switch {
	case line == MigrateLine:
		return Migrate, ""
	case strings.HasPrefix(line, CkptPrefix):
		return Ckpt, line[len(CkptPrefix):]
	case strings.HasPrefix(line, ResumePrefix):
		return Resume, line[len(ResumePrefix):]
	}
	return NotControl, ""
}
