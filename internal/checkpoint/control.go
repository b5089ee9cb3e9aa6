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
