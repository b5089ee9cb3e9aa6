package bench

import (
	"bytes"
	"encoding/base64"
	"encoding/binary"
	"errors"
	"math"
	"math/bits"
	"slices"
	"strconv"
)

// This file is what the eight codecs build their NDJSON lines with: Enc
// writes a line, Cursor reads one. The wire format is encoding/json's —
// an Enc line equals json.Marshal of the same value byte for byte, and a
// Cursor takes exactly the lines an Enc writes (the canonical form: keys
// in declaration order, no whitespace, no escapes, arrays of their full
// length). A codec hands any line its Cursor does not take to
// Unmarshal (stream.go), which is json.Unmarshal, so what is accepted and
// what it decodes to are encoding/json's by construction; the Cursor only
// has to be right about the one form that is sent a million times.
//
// A line is mostly numbers — streamcluster's 1 KB is 52 of them at 16 to
// 19 significant digits — so a number is read once: Cursor.Float checks
// the grammar and gathers the digits in the same walk and converts them
// itself (atof.go), where strconv.ParseFloat behind a grammar check
// walked every digit twice and was half of a served session's serial
// stage. strconv still writes every float (AppendFloat), reads every
// integer, and reads the float literals the exact conversion declines:
// a non-zero digit past the 19th, a power of ten beyond ±64, a value
// half-way between two floats, a subnormal, an overflow.

// errNonFinite is what an Enc reports for NaN and ±Inf, which JSON cannot
// carry (json.Marshal fails on them too).
var errNonFinite = errors.New("bench: NaN or Inf has no JSON form")

// AppendFloat appends f in encoding/json's float64 format: the shortest
// decimal that round-trips, as 'f', or as 'e' below 1e-6 and from 1e21
// with a one-digit negative exponent left unpadded (1e-7, not 1e-07).
func AppendFloat(dst []byte, f float64) ([]byte, error) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return dst, errNonFinite
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if n := len(dst); format == 'e' && n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
		dst[n-2] = dst[n-1]
		dst = dst[:n-1]
	}
	return dst, nil
}

// FloatLen is room for one float64 at full precision and its comma, for
// sizing an Enc.
const FloatLen = 24

// Enc builds one line. Its error is sticky, so a codec writes the whole
// line and checks once, in Bytes.
type Enc struct {
	b   []byte
	err error
}

// NewEnc returns an Enc with room for n bytes; a codec passes its line's
// usual size, so the line is one allocation.
func NewEnc(n int) Enc { return Enc{b: make([]byte, 0, n)} }

// AppendEnc returns an Enc that writes after dst's bytes, with room for n
// more: none is allocated when dst already has it, one buffer otherwise.
func AppendEnc(dst []byte, n int) Enc {
	if cap(dst)-len(dst) < n {
		dst = append(make([]byte, 0, len(dst)+n), dst...)
	}
	return Enc{b: dst}
}

// Reuse returns s emptied, or a new slice if s is nil or holds less than
// n: where a decoder that may reuse a spare's storage appends what a line
// holds. Never nil, as a fresh decoder's make is not, so the two decode a
// line to the same value; no element of s is visible in it until written.
func Reuse[T any](s []T, n int) []T {
	if s == nil || cap(s) < n {
		return make([]T, 0, n)
	}
	return s[:0]
}

// Lit writes s as is: punctuation and keys.
func (e *Enc) Lit(s string) {
	n := len(e.b)
	if cap(e.b)-n < len(s) {
		e.b = slices.Grow(e.b, len(s))
	}
	e.b = e.b[:n+len(s)]
	copy(e.b[n:], s)
}

// Comma writes the ',' before element i of an array, none before the
// first.
func (e *Enc) Comma(i int) {
	if i > 0 {
		e.Lit(",")
	}
}

// Float writes f as AppendFloat does.
func (e *Enc) Float(f float64) {
	b, err := AppendFloat(e.b, f)
	e.b = b
	if err != nil && e.err == nil {
		e.err = err
	}
}

// Floats writes fs as an array, a nil slice as null.
func (e *Enc) Floats(fs []float64) {
	if fs == nil {
		e.Lit("null")
		return
	}
	e.Lit("[")
	for i, f := range fs {
		e.Comma(i)
		e.Float(f)
	}
	e.Lit("]")
}

// Int writes v in decimal.
func (e *Enc) Int(v int) { e.b = strconv.AppendInt(e.b, int64(v), 10) }

// Uint writes v in decimal.
func (e *Enc) Uint(v uint64) { e.b = strconv.AppendUint(e.b, v, 10) }

// Bool writes true or false.
func (e *Enc) Bool(v bool) { e.b = strconv.AppendBool(e.b, v) }

// Base64 writes p as a standard-base64 string, a nil slice as null.
func (e *Enc) Base64(p []byte) {
	if p == nil {
		e.Lit("null")
		return
	}
	e.Lit(`"`)
	e.b = base64.StdEncoding.AppendEncode(e.b, p)
	e.Lit(`"`)
}

// Bytes returns the line, or the first error a write met.
func (e *Enc) Bytes() ([]byte, error) {
	if e.err != nil {
		return nil, e.err
	}
	return e.b, nil
}

// Cursor reads one line front to back. Its failure is sticky too: after
// the first mismatch every read is a no-op returning zero, and End
// reports false, so a codec reads the whole shape and checks once.
type Cursor struct {
	b   []byte
	i   int
	bad bool
}

// NewCursor starts at the front of line, which it reads but never
// writes or keeps.
func NewCursor(line []byte) Cursor { return Cursor{b: line} }

// Try consumes s if the line continues with it.
func (c *Cursor) Try(s string) bool {
	if c.bad || len(c.b)-c.i < len(s) || string(c.b[c.i:c.i+len(s)]) != s {
		return false
	}
	c.i += len(s)
	return true
}

// Lit consumes s or fails.
func (c *Cursor) Lit(s string) {
	if !c.Try(s) {
		c.bad = true
	}
}

// tryByte is Try for one byte: the separators of an array, read once an
// element, for which Try's string compare is most of the cost.
func (c *Cursor) tryByte(ch byte) bool {
	if c.bad || c.i >= len(c.b) || c.b[c.i] != ch {
		return false
	}
	c.i++
	return true
}

// Comma consumes the ',' before element i of an array of known length,
// none before the first.
func (c *Cursor) Comma(i int) {
	if i > 0 && !c.tryByte(',') {
		c.bad = true
	}
}

// End reports whether every read matched and the line is used up.
func (c *Cursor) End() bool { return !c.bad && c.i == len(c.b) }

// digits returns the index after the run of decimal digits at b[i:].
func digits(b []byte, i int) int {
	for i < len(b) && '0' <= b[i] && b[i] <= '9' {
		i++
	}
	return i
}

// number consumes the integer form of a JSON number literal and returns
// it, or fails and returns nil. strconv accepts more than JSON does
// (underscores, "+1", "01"), so the grammar is checked here.
func (c *Cursor) number() []byte {
	if c.bad {
		return nil
	}
	b, i := c.b, c.i
	if i < len(b) && b[i] == '-' {
		i++
	}
	end := digits(b, i)
	if end == i || b[i] == '0' && end > i+1 {
		c.bad = true // no digits, or a leading zero
		return nil
	}
	lit := b[c.i:end]
	c.i = end
	return lit
}

// manRoom bounds a mantissa that can take one more digit: below it there
// are at most 18, and 19 always fit a uint64.
const manRoom = 1e18

// notDigits maps each byte of v that is '0' to '9' to zero and every
// other byte to non-zero. A byte is a digit iff its high nibble is 3 and
// adding 6 leaves it 3 (so its low nibble is at most 9). A byte of 0xFA
// and up carries into the next byte, but is not a digit itself, so the
// result is still zero iff all eight are digits, and exact up to the
// first that is not.
func notDigits(v uint64) uint64 {
	const hi = 0xF0F0F0F0F0F0F0F0
	return (v&hi | (v+0x0606060606060606)&hi>>4) ^ 0x3333333333333333
}

// digitRun is how many bytes of v come before its first non-digit, given
// x = notDigits(v) != 0: the top bit of every non-zero byte of x, found
// without a carry between bytes, and the lowest of them counted.
func digitRun(x uint64) int {
	const low7 = 0x7F7F7F7F7F7F7F7F
	return bits.TrailingZeros64((x&low7+low7|x)&^low7) >> 3
}

// pow10Int holds the powers of ten a digitRun can scale by.
var pow10Int = [8]uint64{1, 10, 100, 1e3, 1e4, 1e5, 1e6, 1e7}

// eightDigitsValue folds eight ASCII digits, loaded little-endian (the
// first digit in the low byte), into their value in three multiplies: one
// forms the four two-digit pairs, and two more weigh the pairs by 10^6,
// 10^4, 10^2 and 1 and sum them in the high half.
func eightDigitsValue(v uint64) uint64 {
	const (
		mask = 0x000000FF000000FF
		mul1 = 100 + 1000000<<32 // pairs 0 and 2 of the four
		mul2 = 1 + 10000<<32     // pairs 1 and 3
	)
	v -= 0x3030303030303030
	v = v*10 + v>>8 // each even byte holds its digit pair's value, 0 to 99
	return uint64(uint32((v&mask*mul1 + v>>16&mask*mul2) >> 32))
}

// Float reads a number to the float64 encoding/json reads it to, which
// is strconv.ParseFloat's.
func (c *Cursor) Float() float64 {
	if c.bad {
		return 0
	}
	f, end, ok := readFloat(c.b, c.i)
	if !ok {
		c.bad = true
		return 0
	}
	c.i = end
	return f
}

// readFloat reads the number at b[start:] and returns it and the index
// after it, or ok false if there is no JSON number there that float64 can
// hold. One walk over the literal checks JSON's grammar — strconv accepts
// more than JSON does (hex, underscores, "+1", "Inf", "01", "1.") — and
// gathers what the conversion needs: the first 19 significant digits as
// an integer, the power of ten that scales it, and whether any non-zero
// digit was left out. clinger, then eiselLemire64, converts that exactly
// or declines; what both decline, and a literal whose digits did not all
// fit, goes to ParseFloat as the slice just delimited, the way a codec
// hands a line it does not take to json.Unmarshal.
func readFloat(b []byte, start int) (f float64, end int, ok bool) {
	i := start
	neg := i < len(b) && b[i] == '-'
	if neg {
		i++
	}
	var (
		man   uint64 // the first 19 significant digits
		exp10 int    // the value is man·10^exp10, plus any dropped tail
		exact = true // no non-zero digit was dropped
	)
	// Integer part: a lone 0, or digits that start with 1-9. A digit
	// past the 19th is dropped and scales the kept ones up.
	first := i
	for ; i < len(b) && b[i]-'0' <= 9; i++ {
		d := uint64(b[i] - '0')
		if man < manRoom {
			man = man*10 + d
		} else {
			exp10++
			exact = exact && d == 0
		}
	}
	if i == first || b[first] == '0' && i > first+1 {
		return 0, 0, false // no digits, or a leading zero
	}
	if i < len(b) && b[i] == '.' {
		i++
		first = i
		// Eight digits a step while all eight are kept: below 1e11 the
		// mantissa has at most 11 digits, so it ends the step with at most
		// 19 — the digits the byte loop would have kept one at a time. A
		// word that ends the run takes its digits in the same step: moved
		// to the top of the word over '0's, they fold the same way.
		for man < 1e11 && len(b)-i >= 8 {
			v := binary.LittleEndian.Uint64(b[i:])
			if x := notDigits(v); x != 0 {
				n := digitRun(x)
				man = man*pow10Int[n] + eightDigitsValue(v<<(64-8*uint(n))|0x3030303030303030>>(8*uint(n)))
				exp10 -= n
				i += n
				break
			}
			man = man*1e8 + eightDigitsValue(v)
			exp10 -= 8
			i += 8
		}
		for ; i < len(b) && b[i]-'0' <= 9; i++ {
			d := uint64(b[i] - '0')
			if man < manRoom {
				man = man*10 + d // a zero ahead of the first non-zero digit only scales
				exp10--
			} else {
				exact = exact && d == 0
			}
		}
		if i == first {
			return 0, 0, false
		}
	}
	if i < len(b) && b[i]|0x20 == 'e' {
		i++
		eneg := false
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			eneg = b[i] == '-'
			i++
		}
		first = i
		e := 0
		for ; i < len(b) && b[i]-'0' <= 9; i++ {
			if e < 10000 { // past any float64; keeps a long run from overflowing e
				e = e*10 + int(b[i]-'0')
			}
		}
		if i == first {
			return 0, 0, false
		}
		if eneg {
			e = -e
		}
		exp10 += e
	}
	if exact {
		f, ok := clinger(man, exp10, neg)
		if !ok {
			f, ok = eiselLemire64(man, exp10, neg)
		}
		if ok {
			return f, i, true
		}
	}
	f, err := strconv.ParseFloat(string(b[start:i]), 64)
	return f, i, err == nil
}

// Int reads an integer that fits an int.
func (c *Cursor) Int() int {
	lit := c.number()
	if lit == nil {
		return 0
	}
	v, err := strconv.ParseInt(string(lit), 10, strconv.IntSize)
	if err != nil {
		c.bad = true
		return 0
	}
	return int(v)
}

// Uint reads a non-negative integer that fits in bits bits.
func (c *Cursor) Uint(bits int) uint64 {
	lit := c.number()
	if lit == nil {
		return 0
	}
	v, err := strconv.ParseUint(string(lit), 10, bits)
	if err != nil {
		c.bad = true
		return 0
	}
	return v
}

// Bool reads true or false.
func (c *Cursor) Bool() bool {
	if c.Try("true") {
		return true
	}
	c.Lit("false")
	return false
}

// Floats reads an array of exactly len(dst) numbers into dst. The line
// and the index stay in locals for the walk; after a mismatch what is
// left of dst is zero, as the Float calls it stands for would leave it.
func (c *Cursor) Floats(dst []float64) {
	if !c.tryByte('[') {
		c.bad = true
	}
	ok, b, i := !c.bad, c.b, c.i
	for k := range dst {
		if ok && k > 0 {
			ok = i < len(b) && b[i] == ','
			i++
		}
		if ok {
			dst[k], i, ok = readFloat(b, i)
		}
		if !ok {
			c.bad = true
			clear(dst[k:])
			return
		}
	}
	c.i = i
	if !c.tryByte(']') {
		c.bad = true
	}
}

// Elems sizes the slice for the array whose '[' was just consumed. Its
// elements are one more than the seps before end — "," and "]" for an
// array of numbers, "]," and "]]" for an array of arrays of them — and
// never more than the rest of the line could hold at minBytes bytes an
// element, separator included, so a line of nothing but separators
// cannot ask for more memory than a few times its own length. It is a
// capacity, not a promise; the reads that follow decide what the array
// holds.
func (c *Cursor) Elems(sep, end string, minBytes int) int {
	if c.bad {
		return 0
	}
	rest := c.b[c.i:]
	if i := bytes.Index(rest, []byte(end)); i >= 0 {
		rest = rest[:i]
	}
	return min(bytes.Count(rest, []byte(sep)), len(rest)/minBytes) + 1
}

// Next walks the elements of an array whose '[' was just consumed:
// called with the count of elements read so far, it consumes the ','
// before another element or the closing ']' and reports which it found.
//
//	for i := 0; c.Next(i); i++ { ... read one element ... }
func (c *Cursor) Next(i int) bool {
	if i == 0 {
		return !c.tryByte(']') && !c.bad
	}
	if c.tryByte(',') {
		return true
	}
	if !c.tryByte(']') {
		c.bad = true
	}
	return false
}

// FloatSlice reads an array of numbers of any length into dst's storage
// when it has room (Reuse). Like encoding/json, it returns an empty
// non-nil slice for [].
func (c *Cursor) FloatSlice(dst []float64) []float64 {
	c.Lit("[")
	out := Reuse(dst, c.Elems(",", "]", 2))
	for i := 0; c.Next(i); i++ {
		out = append(out, c.Float())
	}
	return out
}

// Base64 reads a string of standard base64 and returns its bytes, in
// dst's storage when it has room (Reuse). Escapes and anything else
// outside the alphabet fail; the one thing base64 skips that JSON
// forbids, a raw CR or LF, is refused here.
func (c *Cursor) Base64(dst []byte) []byte {
	c.Lit(`"`)
	if c.bad {
		return nil
	}
	j := c.i
	for j < len(c.b) && c.b[j] != '"' {
		if c.b[j] < ' ' {
			c.bad = true
			return nil
		}
		j++
	}
	src := c.b[c.i:j]
	c.i = j
	c.Lit(`"`)
	if c.bad {
		return nil
	}
	n := base64.StdEncoding.DecodedLen(len(src))
	out := Reuse(dst, n)[:n]
	n, err := base64.StdEncoding.Decode(out, src)
	if err != nil {
		c.bad = true
		return nil
	}
	return out[:n]
}
