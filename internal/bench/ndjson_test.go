package bench

import (
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"testing"
)

// TestAppendFloatMatchesEncodingJSON walks the edges of encoding/json's
// float format: both zeros, the two cutoffs where 'f' gives way to 'e',
// the exponent clean-up, the extremes and a full 17-digit mantissa.
func TestAppendFloatMatchesEncodingJSON(t *testing.T) {
	for _, f := range []float64{
		0, math.Copysign(0, -1), 1, -1, 0.1, 100, 123456789,
		1e-7, 1.5e-7, -1e-7, 1e-6, 0.000001234, 9.999999e-7, 1e-10, 1.25e-100,
		999999999999999868928, 1e21, -1e21, 1.5e21, 1e22, 1e100,
		math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64,
		0.30000000000000004, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
		float64(1 << 53), float64(math.MaxInt64), math.Pi, 1.0 / 3,
	} {
		want, err := json.Marshal(f)
		if err != nil {
			t.Fatal(err)
		}
		got, err := AppendFloat([]byte("x"), f)
		if err != nil || string(got) != "x"+string(want) {
			t.Errorf("AppendFloat(%g) = %q, %v; json.Marshal writes %q", f, got[1:], err, want)
		}
		c := NewCursor(got[1:])
		if back := c.Float(); !c.End() || math.Float64bits(back) != math.Float64bits(f) {
			t.Errorf("Cursor.Float(%q) = %g (consumed all: %v), want %g back bit for bit", got[1:], back, c.End(), f)
		}
	}
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, err := json.Marshal(f); err == nil {
			t.Fatalf("json.Marshal(%g) succeeded", f)
		}
		if got, err := AppendFloat([]byte("x"), f); err == nil || string(got) != "x" {
			t.Errorf("AppendFloat(%g) = %q, %v; want an error and nothing written", f, got, err)
		}
		e := NewEnc(8)
		e.Lit("[")
		e.Float(f)
		e.Float(1)
		if b, err := e.Bytes(); err == nil || b != nil {
			t.Errorf("Enc with %g gave %q, %v; want the error to stick", f, b, err)
		}
	}
}

// TestCursorTakesOnlyJSONNumbers pins the number grammar: strconv parses
// more than JSON allows, and json.Unmarshal is what a refused line falls
// back to, so the cursor must refuse whatever json.Unmarshal refuses and
// agree on the value of the rest.
func TestCursorTakesOnlyJSONNumbers(t *testing.T) {
	for _, lit := range []string{
		"0", "-0", "1", "-1", "10", "1.5", "-1.5e3", "1E5", "1e+5", "1e-05", "0.0", "0e0", "123456789012345678901234567890",
		"", "-", "+1", "01", "-01", "1.", ".5", "1.e5", "1e", "1e+", "1.5.5", "--1", "0x10", "0x1p-2", "1_000",
		"Inf", "-Inf", "NaN", "infinity", "1e999", "-1e999", "1 ", " 1", "1,", "1]", "١",
	} {
		var want float64
		refErr := json.Unmarshal([]byte(lit), &want)
		c := NewCursor([]byte(lit))
		got := c.Float()
		// Whitespace is JSON's, and the fallback's, not the cursor's.
		if ok := c.End(); ok != (refErr == nil && !strings.Contains(lit, " ")) || ok && math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("Float(%q) = %g, taken %v; json.Unmarshal gives %g, %v", lit, got, ok, want, refErr)
		}
	}
	for _, lit := range []string{
		"0", "-0", "7", "-7", "9223372036854775807", "-9223372036854775808",
		"9223372036854775808", "-9223372036854775809", "01", "1.0", "1e2", "+1", "", "-", "0x1", "1_0",
	} {
		var want int
		refErr := json.Unmarshal([]byte(lit), &want)
		c := NewCursor([]byte(lit))
		got := c.Int()
		if ok := c.End(); ok != (refErr == nil) || ok && got != want {
			t.Errorf("Int(%q) = %d, taken %v; json.Unmarshal gives %d, %v", lit, got, ok, want, refErr)
		}
	}
	for _, lit := range []string{"0", "4294967295", "4294967296", "-1", "-0", "1.0"} {
		var want uint32
		refErr := json.Unmarshal([]byte(lit), &want)
		c := NewCursor([]byte(lit))
		got := c.Uint(32)
		if ok := c.End(); ok != (refErr == nil) || ok && got != uint64(want) {
			t.Errorf("Uint(32)(%q) = %d, taken %v; json.Unmarshal gives %d, %v", lit, got, ok, want, refErr)
		}
	}
}

// TestCursorShapes covers the readers that are not numbers, again with
// json.Unmarshal as the judge of both acceptance and value.
func TestCursorShapes(t *testing.T) {
	for _, lit := range []string{
		`[]`, `[1]`, `[1,2.5,-3e2]`, `[1,]`, `[,1]`, `[1 ,2]`, `[1,2`, `[`, `null`, `[[1]]`, `[1,"2"]`, `[]]`,
	} {
		var want []float64
		refErr := json.Unmarshal([]byte(lit), &want)
		c := NewCursor([]byte(lit))
		got := c.FloatSlice(nil)
		// null and whitespace are JSON the cursor leaves to the fallback.
		canonical := lit != "null" && !strings.Contains(lit, " ")
		if ok := c.End(); ok != (refErr == nil && canonical) || ok && !reflect.DeepEqual(got, want) {
			t.Errorf("FloatSlice(%q) = %#v, taken %v; json.Unmarshal gives %#v, %v", lit, got, c.End(), want, refErr)
		}
	}
	for _, lit := range []string{
		`""`, `"QQ=="`, `"QUJD"`, `"QUJDRA=="`, `"QUJDRA"`, `"QQ="`, `"Q"`, `"QU JD"`, "\"QUJD\nRA==\"", "\"QUJD\rRA==\"",
		`"QUJD\nRA=="`, `"QUJ\u0044"`, `"QUJD`, `QUJD"`, `"QUJD"x`, `"QU-D"`, `"QUJD""`,
	} {
		var want []byte
		refErr := json.Unmarshal([]byte(lit), &want)
		c := NewCursor([]byte(lit))
		got := c.Base64(nil)
		// Escapes are JSON the cursor leaves to the fallback.
		canonical := !strings.Contains(lit, `\`)
		if ok := c.End(); ok != (refErr == nil && canonical) || ok && !reflect.DeepEqual(got, want) {
			t.Errorf("Base64(%q) = %q, taken %v; json.Unmarshal gives %q, %v", lit, got, ok, want, refErr)
		}
	}

	c := NewCursor([]byte(`[[1,2],[3,4]]true,false}`))
	c.Lit("[")
	if n := c.Elems("],", "]]", 6); n != 2 {
		t.Errorf("Elems counted %d elements of [[1,2],[3,4]]", n)
	}
	var rows [][2]float64
	for i := 0; c.Next(i); i++ {
		var r [2]float64
		c.Floats(r[:])
		rows = append(rows, r)
	}
	a, _, b := c.Bool(), c.Try(","), c.Bool()
	c.Lit("}")
	if !c.End() || !reflect.DeepEqual(rows, [][2]float64{{1, 2}, {3, 4}}) || !a || b {
		t.Errorf("walked [[1,2],[3,4]]true,false} to %v %v %v, taken %v", rows, a, b, c.End())
	}

	// A line of separators sizes its slice by what it could hold, not by
	// what it claims.
	commas := make([]byte, 1<<16)
	for i := range commas {
		commas[i] = ','
	}
	c = NewCursor(commas)
	if n := c.Elems(",", "]", 26); n > len(commas)/26+1 {
		t.Errorf("Elems sized %d elements for %d bytes at 26 bytes an element", n, len(commas))
	}

	// After a mismatch every read is a no-op and nothing is taken.
	c = NewCursor([]byte(`{"a":1}`))
	c.Lit(`{"b":`)
	if c.Float() != 0 || c.Try(`{"a":`) || c.Next(0) || c.Next(1) || c.Bool() || c.Base64(nil) != nil || c.Elems(",", "]", 2) != 0 || c.End() {
		t.Errorf("a failed cursor kept reading")
	}
	if s := c.FloatSlice(nil); len(s) != 0 {
		t.Errorf("a failed cursor read %v", s)
	}
}

// TestEncMatchesEncodingJSON covers Enc's non-float writers, growth past
// the initial capacity included.
func TestEncMatchesEncodingJSON(t *testing.T) {
	type shape struct {
		I    int
		U    uint64
		B    bool
		F    []float64
		Nil  []float64
		Raw  []byte
		None []byte
		E    []byte
	}
	v := shape{I: math.MinInt64, U: math.MaxUint64, B: true, F: []float64{1, 2.5, 1e-9}, Raw: []byte("any bytes \x00\xff"), E: []byte{}}
	want, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	e := NewEnc(0)
	e.Lit(`{"I":`)
	e.Int(v.I)
	e.Lit(`,"U":`)
	e.Uint(v.U)
	e.Lit(`,"B":`)
	e.Bool(v.B)
	e.Lit(`,"F":`)
	e.Floats(v.F)
	e.Lit(`,"Nil":`)
	e.Floats(v.Nil)
	e.Lit(`,"Raw":`)
	e.Base64(v.Raw)
	e.Lit(`,"None":`)
	e.Base64(v.None)
	e.Lit(`,"E":`)
	e.Base64(v.E)
	e.Lit("}")
	got, err := e.Bytes()
	if err != nil || string(got) != string(want) {
		t.Errorf("Enc wrote %s, %v\njson.Marshal %s", got, err, want)
	}
}
