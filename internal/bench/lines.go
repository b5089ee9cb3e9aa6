package bench

import (
	"bufio"
	"errors"
	"fmt"
	"io"
)

// DefaultMaxLine is the per-line byte cap LineScanner applies when the
// caller passes no limit. NDJSON inputs for every registered codec are
// small (tens to hundreds of bytes); a megabyte already allows two
// orders of magnitude of headroom without letting one line grow an
// unbounded buffer.
const DefaultMaxLine = 1 << 20

// ErrLineTooLong reports an NDJSON line that exceeds the scanner's
// limit. Errors returned by LineScanner.Err wrap it, so transport
// layers can map it to a client error (the line is malformed input,
// not a server fault) with errors.Is.
var ErrLineTooLong = errors.New("bench: NDJSON line exceeds length limit")

// LineScanner reads newline-delimited input with a hard per-line byte
// cap. It exists so every NDJSON reader in the tree — the serving
// layer's request bodies above all — bounds its buffer growth the same
// way and surfaces the same typed error instead of bufio's generic
// "token too long".
type LineScanner struct {
	sc    *bufio.Scanner
	limit int
	line  int
	err   error
}

// LineBuffer is the most a LineScanner starts with; bufio grows the
// buffer on demand, up to the line limit.
const LineBuffer = 64 << 10

// NewLineScanner wraps r with a per-line limit of limit bytes
// (DefaultMaxLine when limit <= 0). A line of exactly limit bytes still
// scans; the first longer line stops the scanner with an error wrapping
// ErrLineTooLong. The scanner starts on buf's storage when it has room
// for min(limit, LineBuffer) bytes, and on a new buffer otherwise (nil
// buf), so a caller that reads many bodies can hand one buffer on; a
// longer line moves the scanner to a buffer of its own.
func NewLineScanner(r io.Reader, limit int, buf []byte) *LineScanner {
	if limit <= 0 {
		limit = DefaultMaxLine
	}
	sc := bufio.NewScanner(r)
	initial := min(limit, LineBuffer)
	if cap(buf) < initial {
		buf = make([]byte, 0, initial)
	}
	// The scanner's buffer must also hold the line terminator before the
	// split function can find it, so a line of exactly limit bytes needs
	// limit+1 bytes of buffer. A buffer larger than that would raise the
	// limit (bufio takes the larger of the two), so it is cut to initial.
	sc.Buffer(buf[:0:initial], limit+1)
	return &LineScanner{sc: sc, limit: limit}
}

// Scan advances to the next line, like bufio.Scanner.Scan.
func (s *LineScanner) Scan() bool {
	if s.err != nil {
		return false
	}
	if !s.sc.Scan() {
		if err := s.sc.Err(); errors.Is(err, bufio.ErrTooLong) {
			s.err = fmt.Errorf("line %d: %w (%d bytes)", s.line+1, ErrLineTooLong, s.limit)
		} else {
			s.err = err
		}
		return false
	}
	s.line++
	return true
}

// Bytes returns the current line without its terminator. The slice is
// only valid until the next Scan.
func (s *LineScanner) Bytes() []byte { return s.sc.Bytes() }

// Line is the 1-based number of the current line.
func (s *LineScanner) Line() int { return s.line }

// Err returns the terminal error, nil on clean EOF. Oversized lines
// yield an error wrapping ErrLineTooLong.
func (s *LineScanner) Err() error { return s.err }
